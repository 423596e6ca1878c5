"""Walk kernel tests against dense linear-algebra oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from conftest import (
    complete_digraph,
    cycle_digraph,
    dense_kernel,
    dense_stationary,
    digraph_from_edges,
    k_regular_digraph,
    random_sc_digraph,
)
from dbmwalk.graph import DbmParams, Digraph, degrees, generate
from dbmwalk.meanfield import q_power_matrix
from dbmwalk.walk import (
    ProbVector,
    _step_walkers,
    community_mass,
    entropy_and_entropic_time,
    evolve,
    evolve_batch,
    indegree_approximation,
    local_stationary,
    mixing_profile,
    path_mass_ratios,
    restrict_normalize,
    sample_tau_jump,
    sample_trajectory,
    select_starts,
    stationary,
    stationary_community_masses,
    step_distribution,
    transition_operator,
    tv_distance,
)


def test_probvector_basics():
    d = ProbVector.delta(5, 2)
    assert d.values[2] == 1.0 and d.values.sum() == 1.0
    u = ProbVector.uniform(4)
    assert np.allclose(u.values, 0.25)
    d.check()
    u.check()
    with pytest.raises(AssertionError):
        ProbVector(np.array([0.5, 0.4])).check()
    with pytest.raises(AssertionError):
        ProbVector(np.array([1.5, -0.5])).check()


def test_evolution_matches_dense_powers():
    rng = np.random.default_rng(7)
    graph = random_sc_digraph(rng, 23)
    kernel = dense_kernel(graph)
    mu = ProbVector.delta(23, 4)
    dense = mu.values.copy()
    for t in range(1, 8):
        dense = dense @ kernel
        got = evolve(graph, mu, t)
        assert np.abs(got.values - dense).max() < 1e-12
        got.check()
    # single step agrees with the same operator
    one = step_distribution(graph, mu)
    assert np.abs(one.values - mu.values @ kernel).max() < 1e-14


def test_evolve_batch_matches_single_columns():
    rng = np.random.default_rng(11)
    graph = random_sc_digraph(rng, 31)
    starts = np.array([0, 5, 17, 30])
    cols = np.zeros((31, 4))
    cols[starts, np.arange(4)] = 1.0
    out = evolve_batch(graph, cols, 6)
    for j, s in enumerate(starts):
        ref = evolve(graph, ProbVector.delta(31, int(s)), 6)
        assert np.abs(out[:, j] - ref.values).max() < 1e-13


def test_evolution_rejects_sink_mass():
    # vertex 3 has no out-edges; stepping mass through it is an error
    graph = digraph_from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    with pytest.raises(ValueError, match="sink"):
        step_distribution(graph, ProbVector.delta(4, 3))
    # mass elsewhere reaches the sink after one step
    with pytest.raises(ValueError, match="sink"):
        evolve(graph, ProbVector.delta(4, 0), 2)
    with pytest.raises(ValueError):
        evolve(graph, ProbVector.delta(4, 0), -1)


def test_stationary_matches_dense_solver():
    rng = np.random.default_rng(3)
    for size in (20, 37, 64, 101, 150, 200):
        graph = random_sc_digraph(rng, size)
        pi = stationary(graph)
        ref = dense_stationary(dense_kernel(graph))
        assert np.abs(pi.values - ref).sum() < 1e-10
        # returned vector satisfies the solver's own residual contract
        residual = np.abs(transition_operator(graph) @ pi.values - pi.values).sum()
        assert residual < 1e-12
        assert pi.residual == residual and pi.iterations > 0
        assert pi.flags == ()


def accepted_dbm(n: int, m: int, alpha: float) -> Digraph:
    """First strongly connected DBM graph over seeds 1, 2, ..."""
    for seed in range(1, 20):
        graph, _ = generate(DbmParams(n=n, m=m, lam=2.5, alpha=alpha, seed=seed), seed)
        if graph.is_strongly_connected():
            return graph
    raise AssertionError("no strongly connected graph drawn")


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("alpha", ["weak", "uniform", "one"])
def test_aggregated_stationary_matches_dense_oracle(m, alpha):
    # weakly coupled (the slow inter-community mode), the point where the
    # coupling chain has no memory, and every edge rewired
    alpha = {"weak": 1e-3, "uniform": (m - 1) / m, "one": 1.0}[alpha]
    graph = accepted_dbm(400, m, alpha)
    pi = stationary(graph)
    ref = dense_stationary(dense_kernel(graph))
    assert np.abs(pi.values - ref).sum() < 1e-10
    assert pi.residual < 1e-12 and pi.iterations < 200


def test_aggregated_stationary_on_an_arbitrary_partition():
    # a random digraph cut into two halves has no block structure at all
    rng = np.random.default_rng(29)
    for size in (60, 150, 300):
        flat = random_sc_digraph(rng, size)
        graph = Digraph(size // 2, 2, flat.indptr, flat.targets, flat.rewired)
        pi = stationary(graph)
        ref = dense_stationary(dense_kernel(graph))
        assert np.abs(pi.values - ref).sum() < 1e-10
        assert pi.residual < 1e-12


def test_single_community_stationary_is_the_plain_lazy_iteration():
    graph = random_sc_digraph(np.random.default_rng(31), 80)
    pt = transition_operator(graph)
    mu = np.full(80, 1.0 / 80)
    for it in range(10**6):
        stepped = pt @ mu
        if float(np.abs(stepped - mu).sum()) < 1e-12:
            break
        mu = 0.5 * (mu + stepped)
    pi = stationary(graph)
    assert np.array_equal(pi.values, mu)
    assert pi.iterations == it


def test_global_solve_converges_at_the_within_community_rate():
    # plain lazy power iteration needs thousands of steps here: its slow
    # mode decays at the rate alpha*m/(m-1) = 0.004 per step
    graph, _ = generate(DbmParams(n=4000, m=2, lam=2.0, alpha=0.002, seed=1), 1)
    pi = stationary(graph)
    assert pi.iterations <= 200
    assert pi.residual < 1e-12
    pi.check()


def test_stationary_falls_back_to_uniform_when_not_strongly_connected():
    # two 2-cycles joined by a one-way bridge
    edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]
    graph = digraph_from_edges(4, edges)
    pi = stationary(graph)
    assert "not_strongly_connected" in pi.flags
    assert np.allclose(pi.values, 0.25)


def test_tv_distance_cases():
    a = ProbVector.delta(4, 0)
    b = ProbVector.delta(4, 3)
    assert tv_distance(a, a) == 0.0
    assert tv_distance(a, b) == 1.0
    half = ProbVector(np.array([0.5, 0.5, 0.0, 0.0]))
    assert tv_distance(a, half) == pytest.approx(0.5)
    other = ProbVector(np.full(4, 0.25), domain="community:0")
    with pytest.raises(ValueError, match="domain"):
        tv_distance(a, other)
    with pytest.raises(ValueError, match="domain"):
        tv_distance(a, ProbVector.uniform(5))


def test_restrict_normalize():
    mu = ProbVector(np.array([0.1, 0.2, 0.3, 0.4]))
    full = restrict_normalize(mu, np.arange(4))
    assert np.abs(full.values - mu.values).max() < 1e-15
    head = restrict_normalize(mu, np.array([0, 1]))
    assert head.values[2] == 0.0 and head.values[3] == 0.0
    assert head.values.sum() == pytest.approx(1.0)
    # conditioning preserves ratios inside the subset
    assert head.values[1] / head.values[0] == pytest.approx(2.0)
    zero = ProbVector(np.array([0.0, 0.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="zero-mass"):
        restrict_normalize(zero, np.array([0, 1]))


def test_entropy_on_regular_graph_is_exact():
    graph = k_regular_digraph(64, 4)
    ent = entropy_and_entropic_time(degrees(graph), 64)
    assert ent.h == pytest.approx(math.log(4), rel=1e-15)
    assert ent.t_ent == pytest.approx(math.log(64) / math.log(4), rel=1e-15)
    assert ent.h_analytic is None
    assert ent.h_first_order == pytest.approx(math.log(math.log(64)))


def test_entropy_analytic_small_binomial():
    # E[log max(D, 1)] for D ~ Binomial(4, 1/2), by direct enumeration:
    # (6 log 2 + 4 log 3 + 2 log 2) / 16
    want = math.log(2) / 2 + math.log(3) / 4
    ent = entropy_and_entropic_time(degrees(k_regular_digraph(10, 3)), 5, p=0.5)
    assert ent.h_analytic == pytest.approx(want, rel=1e-12)


def test_entropy_empirical_concentrates(desk_graph):
    graph, table = desk_graph
    ent = entropy_and_entropic_time(table, graph.n, p=graph.params.p)
    assert abs(ent.h - ent.h_analytic) < 0.02
    assert ent.t_ent == pytest.approx(math.log(graph.n) / ent.h)
    # degrees hover near lambda*log(n), so H sits near its first order
    assert abs(ent.h - ent.h_first_order) < 0.8


def test_entropy_rejects_degenerate_degrees():
    graph = cycle_digraph(6)
    with pytest.raises(ValueError, match="entropic"):
        entropy_and_entropic_time(degrees(graph), 6)


def test_trajectory_log_mass_identity():
    rng = np.random.default_rng(5)
    graph = random_sc_digraph(rng, 40)
    for _ in range(20):
        traj = sample_trajectory(graph, 0, 12, rng)
        deg = graph.out_degree[traj.vertices[:-1]]
        assert traj.log_mass == pytest.approx(-np.log(deg).sum(), rel=1e-12)
        # consecutive vertices are actual edges
        for u, v in zip(traj.vertices[:-1], traj.vertices[1:]):
            assert int(v) in graph.out_neighbors(int(u)).tolist()


def test_trajectory_on_cycle_is_deterministic():
    graph = cycle_digraph(5)
    traj = sample_trajectory(graph, 2, 7, np.random.default_rng(0))
    assert traj.log_mass == 0.0
    assert traj.jump_time is None
    assert list(traj.vertices) == [(2 + s) % 5 for s in range(8)]


def test_trajectory_jump_time_extremes():
    everything = generate(DbmParams(n=200, m=2, lam=3.0, alpha=1.0, seed=9), 9)[0]
    nothing = generate(DbmParams(n=200, m=2, lam=3.0, alpha=0.0, seed=9), 9)[0]
    rng = np.random.default_rng(1)
    for _ in range(10):
        assert sample_trajectory(everything, 0, 5, rng).jump_time == 1
        assert sample_trajectory(nothing, 0, 5, rng).jump_time is None


def test_one_step_sampler_is_uniform_over_neighbors():
    graph = complete_digraph(7)
    reps = 42_000
    cur = np.zeros(reps, dtype=np.int64)
    nxt, rew = _step_walkers(graph, cur, np.random.default_rng(13))
    assert not rew.any()
    counts = np.bincount(nxt, minlength=7)[1:]
    assert counts.sum() == reps
    assert stats.chisquare(counts).pvalue > 1e-4


def test_step_walkers_raise_at_sink():
    graph = digraph_from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="stuck"):
        _step_walkers(graph, np.array([2]), np.random.default_rng(0))


def test_tau_jump_alpha_zero_fully_censored():
    graph = generate(DbmParams(n=300, m=2, lam=3.0, alpha=0.0, seed=21), 21)[0]
    samples, censored = sample_tau_jump(graph, np.array([0]), 50, seed=1)
    assert samples.size == 0
    assert censored == 50


def test_tau_jump_alpha_one_is_immediate():
    graph = generate(DbmParams(n=300, m=2, lam=3.0, alpha=1.0, seed=22), 22)[0]
    samples, censored = sample_tau_jump(graph, np.array([0, 1, 2]), 200, seed=2)
    assert censored == 0
    assert np.all(samples == 1)


def test_tau_jump_survival_tracks_geometric_law(desk_graph):
    graph, _ = desk_graph
    alpha = graph.params.alpha
    reps = 4000
    samples, censored = sample_tau_jump(
        graph, np.arange(graph.vertex_count), reps, seed=3, horizon=300
    )
    t = 50
    survived = censored + int((samples > t).sum())
    assert abs(survived / reps - (1.0 - alpha) ** t) < 0.05


def test_mixing_profile_shape_and_t0():
    rng = np.random.default_rng(17)
    graph = random_sc_digraph(rng, 50)
    pi = stationary(graph)
    starts = np.array([0, 9, 33])
    prof = mixing_profile(graph, starts, np.array([0, 1, 2, 4, 8, 16, 64]), pi)
    assert prof.per_start.shape == (3, 7)
    # at t=0 the walk is a point mass, so TV to pi is 1 - pi(x)
    for row, s in zip(prof.per_start, starts):
        assert row[0] == pytest.approx(1.0 - pi.values[s], abs=1e-12)
    # TV to the stationary law never increases along the same kernel
    d = prof.distances
    assert np.all(np.diff(d) <= 1e-12)
    assert d[-1] < 1e-6
    prof.aggregation = "mean"
    assert np.all(prof.distances <= d + 1e-15)
    prof.aggregation = "nope"
    with pytest.raises(ValueError):
        prof.distances


def test_mixing_profile_matches_dense_powers():
    rng = np.random.default_rng(19)
    graph = random_sc_digraph(rng, 30)
    pi = stationary(graph)
    kernel = dense_kernel(graph)
    times = np.array([0, 1, 3, 5])
    prof = mixing_profile(graph, np.array([2, 7]), times, pi)
    for j, t in enumerate(times):
        power = np.linalg.matrix_power(kernel, int(t))
        for k, s in enumerate((2, 7)):
            want = 0.5 * np.abs(power[s] - pi.values).sum()
            assert prof.per_start[k, j] == pytest.approx(want, abs=1e-10)


def test_community_mass_identities(desk_graph):
    graph, _ = desk_graph
    nm = graph.vertex_count
    masses = community_mass(graph, ProbVector.uniform(nm))
    assert np.allclose(masses, 1.0 / graph.m)
    point = community_mass(graph, ProbVector.delta(nm, graph.n + 3))
    assert point[1] == 1.0 and point[0] == 0.0
    with pytest.raises(ValueError, match="global"):
        community_mass(graph, ProbVector.uniform(graph.n, domain="community:0"))


def test_community_mass_follows_two_state_chain(desk_graph):
    # the community of the walk is nearly Markov with the rewiring kernel
    graph, _ = desk_graph
    mu = ProbVector(
        np.concatenate([np.full(graph.n, 1.0 / graph.n), np.zeros(graph.n)])
    )
    t = 20
    out = evolve(graph, mu, t)
    want = q_power_matrix(graph.m, graph.params.alpha, t)[0]
    assert np.abs(community_mass(graph, out) - want).max() < 0.05


def test_stationary_masses_nearly_balanced(desk_graph):
    graph, _ = desk_graph
    masses = stationary_community_masses(graph)
    assert masses.sum() == pytest.approx(1.0)
    assert np.abs(masses - 0.5).max() < 0.02


def test_path_mass_ratio_is_one_on_regular_graph():
    graph = k_regular_digraph(120, 3)
    ratios = path_mass_ratios(graph, degrees(graph), np.array([0, 40]), 9, 64, seed=4)
    assert np.abs(ratios - 1.0).max() < 1e-12


def test_path_mass_ratio_concentrates(desk_graph):
    graph, table = desk_graph
    ratios = path_mass_ratios(graph, table, np.arange(64), 60, 256, seed=5)
    assert abs(np.median(ratios) - 1.0) < 0.1
    assert (np.abs(ratios - 1.0) < 0.35).mean() > 0.9


def test_select_starts_exhaustive_below_limit():
    graph = k_regular_digraph(30, 3)
    got = select_starts(graph, np.random.default_rng(0))
    assert np.array_equal(got, np.arange(30))


def test_select_starts_sampled_includes_degree_extremes():
    rng = np.random.default_rng(23)
    graph = random_sc_digraph(rng, 80)
    got = select_starts(graph, np.random.default_rng(1), k=12, exhaustive_limit=40)
    deg = graph.out_degree
    assert int(deg.argmin()) in got and int(deg.argmax()) in got
    assert got.size <= 14
    assert np.array_equal(got, np.unique(got))


def test_local_stationary_domain(desk_graph):
    graph, _ = desk_graph
    pi0 = local_stationary(graph, 0)
    assert pi0.domain == "community:0"
    assert pi0.size == graph.n
    pi0.check()


def test_indegree_approximation(desk_graph):
    graph, table = desk_graph
    pi0 = local_stationary(graph, 0)
    got = indegree_approximation(graph, table, 0, pi_local=pi0)
    got.approx.check()
    assert got.approx.domain == "community:0"
    assert got.raw.shape == (graph.n,)
    # raw vector is close to, but not exactly, a probability vector
    assert abs(got.raw.sum() - 1.0) < 0.1
    assert got.max_rel_err is not None and got.max_rel_err < 1.5
    assert got.excluded == 0
    assert got.rel_err.shape == (graph.n,)
    assert got.max_rel_err == got.rel_err.max()
    keep = got.raw > 0.0
    want = np.abs(got.raw[keep] / pi0.values[keep] - 1.0)
    assert np.array_equal(got.rel_err, want)
    assert indegree_approximation(graph, table, 0).rel_err is None
    with pytest.raises(ValueError, match="community"):
        indegree_approximation(graph, table, 1, pi_local=pi0)


def test_indegree_approximation_needs_params():
    graph = k_regular_digraph(12, 3)
    with pytest.raises(ValueError, match="parameters"):
        indegree_approximation(graph, degrees(graph), 0)
