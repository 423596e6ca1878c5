"""Walk kernel tests against dense linear-algebra oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy import stats

from conftest import (
    DIFFERENTIAL,
    bincount_stationary,
    complete_digraph,
    cycle_digraph,
    delta,
    dense_kernel,
    dense_stationary,
    digraph_from_edges,
    k_regular_digraph,
    out_neighbors,
    pre_rewiring_in_degree,
    random_sc_digraph,
    uniform,
)
from dbmwalk.experiments import analytic_entropic_time
from dbmwalk.graph import DbmParams, Digraph, generate
from dbmwalk.meanfield import q_power_matrix
from dbmwalk.rng import NS_TRAJECTORY, derived_rng
from dbmwalk.walk import (
    PROFILE_CHECKPOINT,
    PROFILE_COMPRESS_TOL,
    ProbVector,
    _certify_tail,
    _combine,
    _compress,
    _first_jumps,
    _pivoted_gram_schmidt,
    _step_walkers,
    community_mass,
    entropy_and_entropic_time,
    indegree_approximation,
    jump_target_frequencies,
    local_stationary,
    mixing_profile,
    path_mass_ratios,
    propagate,
    sample_tau_jump,
    select_starts,
    stationary,
    transition_operator,
    tv_distance,
)


def test_probvector_basics():
    d = delta(5, 2)
    assert d.values[2] == 1.0 and d.values.sum() == 1.0
    u = uniform(4)
    assert np.allclose(u.values, 0.25)
    d.check()
    u.check()
    with pytest.raises(AssertionError):
        ProbVector(np.array([0.5, 0.4])).check()
    with pytest.raises(AssertionError):
        ProbVector(np.array([1.5, -0.5])).check()


@DIFFERENTIAL
@given(
    size=st.integers(3, 40),
    graph_seed=st.integers(0, 2**32 - 1),
    t=st.integers(0, 12),
    data=st.data(),
)
def test_evolution_matches_dense_powers(size, graph_seed, t, data):
    # sparse batch evolution by propagate and the profile built on it,
    # against dense powers of the kernel on random strongly connected digraphs
    graph = random_sc_digraph(np.random.default_rng(graph_seed), size)
    kernel = dense_kernel(graph)
    starts = np.array(
        data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=6, unique=True))
    )
    cols = np.zeros((size, starts.size))
    cols[starts, np.arange(starts.size)] = 1.0
    power = np.linalg.matrix_power(kernel, t)
    (stepped,) = propagate(transition_operator(graph), cols, [t])
    assert np.abs(stepped - power[starts].T).max() < 1e-12

    times = sorted(data.draw(st.lists(st.integers(0, 12), min_size=1, max_size=4)) + [t])
    ref = ProbVector(dense_stationary(kernel))
    prof = mixing_profile(graph, starts, times, ref)
    for j, tj in enumerate(times):
        rows = np.linalg.matrix_power(kernel, tj)[starts]
        want = 0.5 * np.abs(rows - ref.values).sum(axis=1)
        assert np.abs(prof.per_start[:, j] - want).max() < 1e-12
    assert np.array_equal(prof.distances, prof.per_start.max(axis=0))


def test_batch_evolution_matches_single_columns():
    rng = np.random.default_rng(11)
    graph = random_sc_digraph(rng, 31)
    starts = np.array([0, 5, 17, 30])
    cols = np.zeros((31, 4))
    cols[starts, np.arange(4)] = 1.0
    operator = transition_operator(graph)
    (out,) = propagate(operator, cols, [6])
    for j in range(4):
        (ref,) = propagate(operator, cols[:, j : j + 1], [6])
        assert np.abs(out[:, j] - ref[:, 0]).max() < 1e-13


def test_evolution_rejects_sink_mass():
    # vertex 3 has no out-edges, so the kernel loses the mass that reaches
    # it; the kernel builder refuses the graph up front, before any
    # column is stepped, and on every later call too (nothing is cached)
    graph = digraph_from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    for _ in range(2):
        with pytest.raises(ValueError, match="^walk kernel loses mass at sink vertex 3$"):
            transition_operator(graph)
    with pytest.raises(ValueError, match="sink vertex 3"):
        mixing_profile(graph, np.array([0]), [2], uniform(4))


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


@DIFFERENTIAL
@given(
    m=st.integers(2, 5),
    lam=st.floats(2.0, 10.0),
    log_alpha=st.floats(-3.0, 0.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=2, lam=10.0, log_alpha=-3.0, seed=1)  # 8 rewired edges
@example(m=5, lam=10.0, log_alpha=-3.0, seed=15)  # 11 rewired edges
def test_stationary_matches_dense_oracle_on_drawn_dbm_graphs(m, lam, log_alpha, seed):
    # about 200 vertices in m communities, coupled down to alpha = 1e-3,
    # where the aggregation step carries the slow inter-community mode
    params = DbmParams(n=200 // m, m=m, lam=lam, alpha=10.0**log_alpha, seed=seed)
    graph, _ = generate(params)
    assume(graph.is_strongly_connected())
    pi = stationary(graph)
    ref = dense_stationary(dense_kernel(graph))
    assert np.abs(pi.values - ref).sum() < 1e-10
    assert pi.residual < 1e-12


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("alpha", [1e-3, 0.05, 1.0])
def test_stationary_bytes_match_the_bincount_aggregation(m, alpha):
    # P(v, d) read from the kernel sums the same 1/deg(v) terms as the
    # bincount over v's edges did, so the solve is unchanged bit for bit
    graph = accepted_dbm(300, m, alpha)
    pi = stationary(graph)
    want, iterations = bincount_stationary(graph)
    assert pi.values.tobytes() == want.tobytes()
    assert pi.iterations == iterations


def test_aggregated_stationary_on_an_arbitrary_partition():
    # a random digraph cut into two halves has no block structure at all
    rng = np.random.default_rng(29)
    for size in (60, 150, 300):
        flat = random_sc_digraph(rng, size)
        graph = Digraph(size // 2, 2, flat.indptr, flat.targets)
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


def test_stationary_refuses_a_graph_that_is_not_strongly_connected():
    # two 2-cycles joined by a one-way bridge: no unique stationary law
    edges = [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]
    graph = digraph_from_edges(4, edges)
    with pytest.raises(ValueError, match="^global graph is not strongly connected$"):
        stationary(graph)
    with pytest.raises(ValueError, match="^community:0 graph is not strongly connected$"):
        stationary(graph, domain="community:0")


def test_tv_distance_cases():
    a = delta(4, 0)
    b = delta(4, 3)
    assert tv_distance(a, a) == 0.0
    assert tv_distance(a, b) == 1.0
    half = ProbVector(np.array([0.5, 0.5, 0.0, 0.0]))
    assert tv_distance(a, half) == pytest.approx(0.5)
    other = ProbVector(np.full(4, 0.25), domain="community:0")
    with pytest.raises(ValueError, match="domain"):
        tv_distance(a, other)
    with pytest.raises(ValueError, match="domain"):
        tv_distance(a, uniform(5))


def test_entropy_on_regular_graph_is_exact():
    graph = k_regular_digraph(64, 4)
    ent = entropy_and_entropic_time(graph)
    assert ent.h == pytest.approx(math.log(4), rel=1e-15)
    assert ent.t_ent == pytest.approx(math.log(64) / math.log(4), rel=1e-15)


def test_entropy_analytic_small_binomial():
    # E[log max(D, 1)] for D ~ Binomial(4, 1/2), by direct enumeration:
    # (6 log 2 + 4 log 3 + 2 log 2) / 16
    want = math.log(2) / 2 + math.log(3) / 4
    params = DbmParams.from_edge_probability(n=5, m=2, p=0.5, alpha=0.1, seed=0)
    assert analytic_entropic_time(params) == pytest.approx(math.log(5) / want, rel=1e-12)


def test_entropy_empirical_concentrates(desk_graph):
    graph = desk_graph
    ent = entropy_and_entropic_time(graph)
    h_exact = math.log(graph.n) / analytic_entropic_time(graph.params)
    assert abs(ent.h - h_exact) < 0.02
    assert ent.t_ent == pytest.approx(math.log(graph.n) / ent.h)
    # degrees hover near lambda*log(n), so H sits near its first order
    # log(log(n))
    assert abs(ent.h - math.log(math.log(graph.n))) < 0.8


def test_entropy_rejects_degenerate_degrees():
    graph = cycle_digraph(6)
    with pytest.raises(ValueError, match="entropic"):
        entropy_and_entropic_time(graph)


def walk_paths(graph: Digraph, starts: np.ndarray, t: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """t steps of one walker per start: (vertex paths, rewired flag per step)."""
    path, flags = [np.asarray(starts)], []
    for _ in range(t):
        nxt, rew = _step_walkers(graph, path[-1], rng)
        path.append(nxt)
        flags.append(rew)
    return np.stack(path, axis=1), np.stack(flags, axis=1)


def test_trajectory_log_mass_identity():
    # the walkers path_mass_ratios draws follow out-edges, and the ratio
    # is minus the log path mass over H t
    graph = generate(DbmParams(n=200, m=2, lam=3.0, alpha=0.3, seed=5), 5)[0]
    starts = np.arange(0, 400, 25)
    paths, flags = walk_paths(graph, starts, 12, derived_rng(4, NS_TRAJECTORY, 0))
    for path, rew in zip(paths, flags):
        for u, v, r in zip(path[:-1], path[1:], rew):
            edge = graph.indptr[u] + np.searchsorted(out_neighbors(graph, u), v)
            assert graph.targets[edge] == v
            # the flag marks exactly the edges that leave the community
            assert r == graph.rewired[edge] == (u // graph.n != v // graph.n)
    log_mass = -np.log(graph.out_degree[paths[:, :-1]]).sum(axis=1)
    h = entropy_and_entropic_time(graph).h
    ratios = path_mass_ratios(graph, starts, 12, starts.size, seed=4)
    assert np.abs(ratios - (-log_mass / (h * 12))).max() < 1e-12


def test_trajectory_on_cycle_is_deterministic():
    graph = cycle_digraph(5)
    paths, flags = walk_paths(graph, np.array([2]), 7, np.random.default_rng(0))
    assert not flags.any()
    assert list(paths[0]) == [(2 + s) % 5 for s in range(8)]


def test_trajectory_jump_time_extremes():
    everything = generate(DbmParams(n=200, m=2, lam=3.0, alpha=1.0, seed=9), 9)[0]
    nothing = generate(DbmParams(n=200, m=2, lam=3.0, alpha=0.0, seed=9), 9)[0]
    rng = np.random.default_rng(1)
    starts = np.zeros(10, dtype=np.int64)
    assert walk_paths(everything, starts, 5, rng)[1].all()
    assert not walk_paths(nothing, starts, 5, rng)[1].any()


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
    graph = desk_graph
    alpha = graph.params.alpha
    reps = 4000
    samples, censored = sample_tau_jump(graph, np.arange(graph.vertex_count), reps, seed=3)
    t = 50
    survived = censored + int((samples > t).sum())
    assert abs(survived / reps - (1.0 - alpha) ** t) < 0.05


def test_first_jump_samplers_keep_their_streams():
    # values computed before the two samplers shared one walker loop:
    # each keeps its own stream, and both walk up to 20/alpha = 200 steps
    graph, _ = generate(DbmParams(n=60, m=3, lam=3.0, alpha=0.1, seed=5), 5)
    starts = np.arange(60)
    samples, censored = sample_tau_jump(graph, starts, 24, seed=7)
    assert samples.tolist() == [
        42, 14, 15, 11, 5, 5, 2, 22, 6, 22, 2, 13, 10, 5, 1, 3, 4, 27, 33, 7, 7, 29, 8, 4
    ]
    assert censored == 0
    counts, censored = jump_target_frequencies(graph, starts, 24, seed=7)
    assert counts.tolist() == [0, 15, 9] and censored == 0


def test_first_jumps_censor_walkers_that_cannot_jump():
    # 0 <-> 1 has no rewired edge; a walker on 2 <-> 3 leaves by 3 -> 4
    # at each visit to 3 with probability 1/2, well within 20/alpha = 40 steps
    prm = DbmParams.from_edge_probability(n=4, m=2, p=0.5, alpha=0.5, seed=0)
    edges = [(0, 1), (1, 0), (2, 3), (3, 2), (3, 4), (4, 5), (5, 4), (6, 7), (7, 6)]
    graph = digraph_from_edges(8, edges, m=2, params=prm)
    starts = np.arange(4)  # walker k starts on k % 4
    times, landing = _first_jumps(graph, starts, 12, derived_rng(0, NS_TRAJECTORY, 1))
    trapped = np.arange(12) % 4 < 2
    assert np.all(times[trapped] == 0) and np.all(landing[trapped] == -1)
    assert np.all(landing[~trapped] == 4)
    # the walk sits on 3 at even times from 3 and at odd times from 2, so
    # its jump 3 -> 4 comes at odd resp. even times
    assert np.all(times[~trapped] % 2 == np.where(np.arange(12)[~trapped] % 4 == 2, 0, 1))
    samples, censored = sample_tau_jump(graph, starts, 12, seed=0)
    assert censored == 6 and np.array_equal(samples, times[~trapped])
    counts, censored = jump_target_frequencies(graph, starts, 12, seed=0)
    assert counts.tolist() == [0, 6] and censored == 6


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


def plain_profile(graph, starts, times, ref):
    """TV per start and time with every start column stepped to the end."""
    cols = np.zeros((graph.vertex_count, starts.size))
    cols[starts, np.arange(starts.size)] = 1.0
    stepped = propagate(transition_operator(graph), cols, times)
    return np.column_stack([0.5 * np.abs(c - ref.values[:, None]).sum(axis=0) for c in stepped])


@DIFFERENTIAL
@given(
    size=st.integers(8, 40),
    graph_seed=st.integers(0, 2**32 - 1),
    last=st.integers(1, 150),
    data=st.data(),
)
def test_compressed_profile_stays_within_its_certificate(size, graph_seed, last, data):
    # compressed or not, every value lies within tv_bound (plus rounding)
    # of the one from stepping every start column to the end
    graph = random_sc_digraph(np.random.default_rng(graph_seed), size)
    starts = np.array(
        data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=size, unique=True))
    )
    times = sorted(data.draw(st.lists(st.integers(0, last), max_size=4)) + [last])
    ref = ProbVector(dense_stationary(dense_kernel(graph)))
    prof = mixing_profile(graph, starts, times, ref)
    want = plain_profile(graph, starts, times, ref)
    assert np.abs(prof.per_start - want).max() <= prof.tv_bound + 1e-15
    if prof.checkpoint is None:
        assert prof.rank is None and prof.tv_bound == 0.0
        assert np.array_equal(prof.per_start, want)
    else:
        assert prof.checkpoint < last and 1 <= prof.rank <= starts.size // 4
        assert prof.tv_bound <= 0.5e-12
        early = np.asarray(times) <= prof.checkpoint
        assert np.array_equal(prof.per_start[:, early], want[:, early])


def two_block_digraph() -> Digraph:
    """Two complete 6-vertex communities joined by one edge each way."""
    edges = [(u, v) for b in (0, 6) for u in range(b, b + 6) for v in range(b, b + 6) if u != v]
    return digraph_from_edges(12, edges + [(0, 6), (6, 0)], m=2)


def test_profile_compresses_a_weakly_coupled_two_block_chain():
    # each block mixes within about 20 steps while mass crosses between
    # them at about 1/36 per step, so the block of 12 start columns
    # collapses onto two columns and is compressed there
    graph = two_block_digraph()
    starts = np.arange(12)
    times = [0, 5, 40, 100, 300]
    ref = stationary(graph)
    prof = mixing_profile(graph, starts, times, ref)
    assert prof.checkpoint == PROFILE_CHECKPOINT and prof.rank == 2
    assert 0.0 < prof.tv_bound <= 0.5e-12
    want = plain_profile(graph, starts, times, ref)
    assert np.array_equal(prof.per_start[:, :2], want[:, :2])
    assert np.abs(prof.per_start - want).max() <= prof.tv_bound + 1e-15
    # past the checkpoint the tail steps the 2 x 2 community chain, whose
    # subdominant eigenvalue is the whole kernel's second one, 0.94934176...
    assert prof.col_steps == 12 * prof.checkpoint + 2
    kernel_moduli = sorted(np.abs(np.linalg.eigvals(dense_kernel(graph))), reverse=True)
    assert abs(prof.tail_spectrum[1] - kernel_moduli[1]) <= 1e-12
    assert want[:, -1].max() > 1e-9  # not yet mixed: rank 1 would not do


def test_compression_fit_is_the_least_squares_step_matrix():
    # C is fitted from the screen's own orthonormal rows and triangular
    # factor; it is the least-squares solution of B C = P^T B
    graph = two_block_digraph()
    operator = transition_operator(graph)
    (block,) = propagate(operator, np.eye(12), [32])
    basis, step_matrix, _, _ = _compress(operator, block, 3, [68])
    want, *_ = np.linalg.lstsq(basis, operator @ basis, rcond=None)
    assert basis.shape[1] == 2 and np.abs(step_matrix - want).max() <= 1e-12


def test_compression_is_offered_at_the_doubling_checkpoints(monkeypatch):
    # the block is offered at 32, 64, 128, ... strictly before the last
    # time, and at no other step; the checkpoint is the last time minus
    # the longest tail step it is offered
    offered = []

    def recording(operator, block, max_rank, steps, refuse):
        offered.append(last - steps[-1])
        return None if refuse else _compress(operator, block, max_rank, steps)

    graph = two_block_digraph()
    starts = np.arange(12)
    ref = stationary(graph)
    for refuse in (True, False):
        monkeypatch.setattr(
            "dbmwalk.walk._compress", lambda *a, refuse=refuse: recording(*a, refuse)
        )
        for last in (31, 32, 33, 64, 65, 300):
            offered.clear()
            times = [0, 5, last]
            prof = mixing_profile(graph, starts, times, ref)
            due = [32 * 2**k for k in range(4) if 32 * 2**k < last]
            if refuse:
                assert offered == due and prof.checkpoint is None
                assert np.array_equal(prof.per_start, plain_profile(graph, starts, times, ref))
            else:
                # the two-block chain's first screen passes with the tail
                assert offered == due[:1] and prof.checkpoint == (due[0] if due else None)


def test_tail_certificate_returns_the_stepped_powers():
    # one pass keeps the powers of the step-by-step loop bit for bit, and
    # its total is the per-step running sum up to rounding
    graph = two_block_digraph()
    operator = transition_operator(graph)
    (block,) = propagate(operator, np.eye(12), [32])
    _, step_matrix, _, _ = _compress(operator, block, 3, [68])
    coef = np.random.default_rng(3).uniform(0.0, 1.0, size=(2, 12))
    misfit = np.array([1e-16, 3e-16])
    residual = np.full(12, 1e-14)
    steps = [1, 5, 68, 268]
    powers, total = _certify_tail(step_matrix, coef, misfit, residual, steps)
    power, want, running = coef, [], residual.copy()
    for s in range(1, steps[-1] + 1):
        running += (misfit[:, None] * np.abs(power)).sum(axis=0)
        power = _combine(step_matrix, power)
        if s in steps:
            want.append(power)
    assert len(powers) == len(want)
    assert all(np.array_equal(p, w) for p, w in zip(powers, want))
    assert np.allclose(total, running, rtol=1e-12, atol=0.0)


def test_tail_certificate_refuses_nan_and_diverging_matrices():
    coef = np.array([[1.0, 0.5], [0.0, 0.5]])
    misfit = np.zeros(2)
    residual = np.zeros(2)
    nan = np.array([[0.9, np.nan], [0.1, 1.0]])
    assert _certify_tail(nan, coef, misfit, residual, [3]) is None
    # powers of 1e3 overflow long before step 400; no warning escapes
    diverging = np.array([[1e3, 0.0], [0.0, 1.0]])
    assert _certify_tail(diverging, coef, np.full(2, 1e-20), residual, [400]) is None


def test_tail_certificate_refuses_a_total_over_the_tolerance_only_at_the_last_step():
    # C = 1 and a = 1 add the misfit 2^-42 once per step: 4 steps total
    # 9.09e-13, within the tolerance, and the fifth takes it to 1.14e-12
    one = np.ones((1, 1))
    misfit = np.array([2.0**-42])
    powers, total = _certify_tail(one, one, misfit, np.zeros(1), [4])
    assert total[0] == 4 * 2.0**-42 <= PROFILE_COMPRESS_TOL
    assert len(powers) == 1 and np.array_equal(powers[0], one)
    assert _certify_tail(one, one, misfit, np.zeros(1), [5]) is None
    assert _certify_tail(one, one, misfit, np.zeros(1), [1, 2, 5]) is None


def test_tv_bound_leaves_out_the_rounding_of_the_stepped_paths():
    # a drawn case whose value lies 5e-15 outside tv_bound: 1.79e-14
    # against 1.29e-14, compressed at 64 with rank 1 and 161 tail steps.
    # Rounding allowance: both sides share the bits of the first 64
    # steps.  Past the checkpoint the plain block is stepped by P^T in
    # dot products of length at most d, the largest in-degree, and the
    # tail's coefficients by C in dot products of length r.  One
    # rounded step of a probability column moves it by at most
    # gamma_d = d u / (1 - d u) in L1 (Higham 2002, sec. 3.1), P^T does
    # not increase L1 and C is within 1e-12 of 1 here, so after t steps
    # the plain path is off by at most t gamma_d and the tail by
    # t gamma_r; the misfit was measured against S = P^T B, itself one
    # rounded step, which adds t gamma_d more.  TV halves L1.
    graph = random_sc_digraph(np.random.default_rng(1767174), 12)
    starts = np.array([1, 6, 7, 9])
    times = [225]
    ref = ProbVector(dense_stationary(dense_kernel(graph)))
    prof = mixing_profile(graph, starts, times, ref)
    assert (prof.checkpoint, prof.rank) == (64, 1)
    assert abs(prof.step_matrix[0, 0] - 1.0) <= 1e-12

    def gamma(d):
        u = np.finfo(float).eps / 2
        return d * u / (1 - d * u)

    d = int(np.bincount(graph.targets, minlength=graph.vertex_count).max())
    t = times[-1] - prof.checkpoint
    allowance = 0.5 * t * (2 * gamma(d) + gamma(prof.rank))
    dev = np.abs(prof.per_start - plain_profile(graph, starts, times, ref)).max()
    assert dev <= prof.tv_bound + allowance


def test_profile_is_not_compressed_when_the_tail_is_not_certified():
    # the screen at 64 passes with rank 1, but that basis column's own
    # misfit, summed over the 27 steps past the checkpoint, exceeds the
    # budget: the full block steps on to the end, as if never screened
    graph = random_sc_digraph(np.random.default_rng(7), 8)
    starts = np.arange(8)
    times = [0, 40, 70, 91]
    ref = ProbVector(dense_stationary(dense_kernel(graph)))
    (block,) = propagate(transition_operator(graph), np.eye(8), [64])
    assert _pivoted_gram_schmidt(block, 2, PROFILE_COMPRESS_TOL)[0] == [1]
    prof = mixing_profile(graph, starts, times, ref)
    assert (prof.checkpoint, prof.rank, prof.step_matrix) == (None, None, None)
    assert prof.tail_spectrum is None and prof.col_steps == 8 * 91
    assert np.array_equal(prof.per_start, plain_profile(graph, starts, times, ref))


@DIFFERENTIAL
@given(
    n=st.integers(60, 100),
    m=st.integers(2, 3),
    lam=st.floats(3.0, 5.0),
    alpha=st.floats(0.005, 0.02),
    graph_seed=st.integers(0, 2**32 - 1),
)
def test_mean_field_tail_on_drawn_dbm_graphs(n, m, lam, alpha, graph_seed):
    # supercritical graphs on the inverse-alpha clock: past local mixing
    # the start columns collapse onto m local equilibria, the tail steps
    # an m x m chain, and every value stays within its certificate
    graph, _ = generate(DbmParams(n=n, m=m, lam=lam, alpha=alpha, seed=graph_seed))
    assume(graph.is_strongly_connected())
    starts = np.arange(0, graph.vertex_count, 4)  # a quarter of every community
    times = sorted({round(beta / alpha) for beta in (0.5, 1.0, 2.0)})
    ref = stationary(graph)
    prof = mixing_profile(graph, starts, times, ref)
    assert prof.step_matrix is not None and prof.step_matrix.shape == (prof.rank,) * 2
    assert prof.col_steps == starts.size * prof.checkpoint + prof.rank
    assert prof.tv_bound <= 0.5e-12
    want = plain_profile(graph, starts, times, ref)
    assert np.abs(prof.per_start - want).max() <= prof.tv_bound + 1e-15


def test_profile_is_not_compressed_on_short_grids_or_few_starts():
    # the first checkpoint is skipped when it is the last time, and fewer
    # than four starts leave no rank <= K/4; both give the plain values
    graph = two_block_digraph()
    ref = stationary(graph)
    short = (np.arange(12), [0, 3, PROFILE_CHECKPOINT])
    for starts, times in (short, (np.array([0, 6, 7]), [0, 40, 300])):
        prof = mixing_profile(graph, starts, times, ref)
        assert (prof.checkpoint, prof.rank, prof.tv_bound) == (None, None, 0.0)
        assert np.array_equal(prof.per_start, plain_profile(graph, starts, times, ref))


def test_community_mass_identities(desk_graph):
    graph = desk_graph
    nm = graph.vertex_count
    masses = community_mass(graph, uniform(nm))
    assert np.allclose(masses, 1.0 / graph.m)
    point = community_mass(graph, delta(nm, graph.n + 3))
    assert point[1] == 1.0 and point[0] == 0.0
    with pytest.raises(ValueError, match="global"):
        community_mass(graph, uniform(graph.n, domain="community:0"))


def test_community_mass_follows_two_state_chain(desk_graph):
    # the community of the walk is nearly Markov with the rewiring kernel
    graph = desk_graph
    mu = ProbVector(
        np.concatenate([np.full(graph.n, 1.0 / graph.n), np.zeros(graph.n)])
    )
    t = 20
    (stepped,) = propagate(transition_operator(graph), mu.values[:, None], [t])
    out = ProbVector(stepped[:, 0])
    want = q_power_matrix(graph.m, graph.params.alpha, t)[0]
    assert np.abs(community_mass(graph, out) - want).max() < 0.05


def test_stationary_masses_nearly_balanced(desk_graph):
    graph = desk_graph
    masses = community_mass(graph, stationary(graph))
    assert masses.sum() == pytest.approx(1.0)
    assert np.abs(masses - 0.5).max() < 0.02


def test_path_mass_ratio_is_one_on_regular_graph():
    graph = k_regular_digraph(120, 3)
    ratios = path_mass_ratios(graph, np.array([0, 40]), 9, 64, seed=4)
    assert np.abs(ratios - 1.0).max() < 1e-12


def test_path_mass_ratio_concentrates(desk_graph):
    graph = desk_graph
    ratios = path_mass_ratios(graph, np.arange(64), 60, 256, seed=5)
    assert abs(np.median(ratios) - 1.0) < 0.1
    assert (np.abs(ratios - 1.0) < 0.35).mean() > 0.9


def test_select_starts_exhaustive_below_limit():
    got = select_starts(30, np.random.default_rng(0), k=4, witnesses=[7])
    assert np.array_equal(got, np.arange(30))
    # up to the limit every state is a start, whatever k says
    assert select_starts(2000, None, k=4).size == 2000


def test_select_starts_sampled_includes_degree_extremes():
    graph, _ = generate(DbmParams(n=1100, m=2, lam=3.0, alpha=0.05, seed=4), 4)
    assert graph.vertex_count > 2000
    deg = graph.out_degree
    witnesses = [int(deg.argmin()), int(deg.argmax())]
    got = select_starts(graph.vertex_count, np.random.default_rng(1), 12, witnesses)
    assert set(witnesses) <= set(got.tolist())
    assert 12 <= got.size <= 14
    assert np.array_equal(got, np.unique(got))
    with pytest.raises(ValueError, match="generator"):
        select_starts(graph.vertex_count, None, 12, witnesses)
    # k = None is the exhaustive policy: every state, above the limit too
    got = select_starts(graph.vertex_count, None, None, witnesses)
    assert np.array_equal(got, np.arange(graph.vertex_count))


def test_local_stationary_domain(desk_graph):
    graph = desk_graph
    pi0 = local_stationary(graph, 0)
    assert pi0.domain == "community:0"
    assert pi0.size == graph.n
    pi0.check()


def test_indegree_approximation(desk_graph):
    graph = desk_graph
    pi0 = local_stationary(graph, 0)
    err = indegree_approximation(graph, 0, pi_local=pi0)
    raw = pre_rewiring_in_degree(graph)[: graph.n] / (graph.params.p * graph.n * graph.n)
    # the proxy is close to, but not exactly, a probability vector
    assert abs(raw.sum() - 1.0) < 0.1
    assert err.max() < 1.5
    assert err.shape == (graph.n,)  # no vertex of zero in-degree
    assert np.array_equal(err, np.abs(raw / pi0.values - 1.0))
    with pytest.raises(ValueError, match="community"):
        indegree_approximation(graph, 1, pi_local=pi0)


def test_uniform_fallback_cannot_feed_a_check():
    # lambda = 0.6 leaves the graph and its communities fragmented; a
    # uniform stand-in would give masses of exactly 1/m, so no stationary
    # vector is returned at all, globally or for a community
    graph, _ = generate(DbmParams(n=300, m=2, lam=0.6, alpha=0.05, seed=1))
    with pytest.raises(ValueError, match="global graph is not strongly connected"):
        stationary(graph)
    with pytest.raises(ValueError, match="community:0 graph is not strongly connected"):
        local_stationary(graph, 0)


def test_indegree_approximation_needs_params():
    graph = k_regular_digraph(12, 3)
    with pytest.raises(ValueError, match="parameters"):
        indegree_approximation(graph, 0, uniform(12, "community:0"))
