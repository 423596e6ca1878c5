"""Gate, quasi-stationary, and restart machinery against exact small cases."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.sparse import csr_matrix

from conftest import (
    DIFFERENTIAL,
    complete_digraph,
    delta,
    dense_kernel,
    dense_stationary,
    dense_start_steps,
    digraph_from_edges,
    leaving_out_degree,
    random_sc_digraph,
    spsolve_hitting_oracle,
    survival_curve,
    survivor_kernel,
    survivor_power_iteration,
    uniform,
    validate,
)
from test_acceptance import SWEEP_PARAMS

from dbmwalk import walk
from dbmwalk.graph import DbmParams, generate, pre_rewiring_subgraph
from dbmwalk.qsd import (
    HITTING_ORACLE_RTOL,
    MIX_THRESHOLD,
    START_BLOCK,
    CommunityView,
    MergedKernel,
    build_merged_kernel,
    community_view,
    hitting_time_estimates,
    iota_first_order,
    mixing_time_estimate,
    nice_fraction,
    quasi_stationary,
    restart_process,
    restart_rate,
    return_mass,
)
from dbmwalk.walk import (
    START_STATE_LIMIT,
    STATIONARY_TOL,
    WITNESS_CANDIDATES,
    WITNESSES,
    ProbVector,
    collision_witnesses,
    jump_target_frequencies,
    local_stationary,
    stationary,
)


def one_gate_complete_view(k: int = 6, coin: float = 0.2) -> CommunityView:
    """Complete digraph on k vertices with label 0 as the single gate.

    ``coin`` fixes the gate's rewired-edge fraction for restart runs.
    """
    local = complete_digraph(k)
    # gate coin = rewired / full out-degree, k - 1 here; the rewired count
    # is a float, since coin * (k - 1) need not be an integer
    d_rewired = np.zeros(k)
    d_rewired[0] = coin * (k - 1)
    return CommunityView(
        i=0,
        local=local,
        pi_local=uniform(k, "community:0"),
        d_rewired=d_rewired,
    )


@pytest.fixture(scope="module")
def small_community():
    """Generated graph plus the community-0 working set."""
    params = DbmParams(n=500, m=2, lam=3.0, alpha=0.02, seed=11)
    graph, _ = generate(params, 11)
    return graph, community_view(graph, 0)


def test_qsd_on_complete_digraph_is_uniform():
    # killing at one vertex of a complete digraph leaves a symmetric
    # survivor kernel: QSD uniform, escape rate 1/(k-1), survival exact
    view = one_gate_complete_view(6)
    sol = quasi_stationary(view, build_merged_kernel(view))
    assert sol.mu_star.values[0] == 0.0
    assert np.abs(sol.mu_star.values[1:] - 0.2).max() < 1e-12
    assert sol.iota == pytest.approx(0.2, abs=1e-12)
    assert sol.residual < 1e-12
    t = np.arange(31)
    curve = survival_curve(view, sol, 30)
    assert np.abs(curve - 0.8**t).max() < 1e-12


def test_qsd_requires_survivor_states():
    view = one_gate_complete_view(4)
    view.d_rewired[:] = 1
    with pytest.raises(ValueError, match="gate"):
        quasi_stationary(view, build_merged_kernel(view))


def test_qsd_stops_on_the_stationary_residual_rule(small_community):
    # the returned pair is the first one whose eigen-residual passed the
    # rule walk.stationary stops on; a theta plateau of 50 steps is not
    # waited for
    _, view = small_community
    sol = quasi_stationary(view, build_merged_kernel(view))
    mu = sol.mu_star.values[view.kept]
    stepped = survivor_kernel(view) @ mu
    theta = float(stepped.sum())
    assert sol.iota == 1.0 - theta
    assert sol.residual == float(np.abs(stepped - theta * mu).sum())
    assert sol.residual < STATIONARY_TOL
    assert 0 < sol.iterations < 50


def test_qsd_on_reducible_survivor_kernel_settles_on_slower_piece():
    # two aperiodic 3-cycles leaking to the gate at different rates; the
    # survivor kernel splits into two strongly connected pieces
    edges = [
        (0, 1), (1, 2), (2, 0), (0, 2), (2, 6),
        (3, 4), (4, 5), (5, 3), (3, 5), (4, 6), (5, 6),
        (6, 0),
    ]
    local = digraph_from_edges(7, edges)
    view = CommunityView(
        i=0,
        local=local,
        pi_local=uniform(7, "community:0"),
        d_rewired=np.array([0, 0, 0, 0, 0, 0, 1]),
    )
    sol = quasi_stationary(view, build_merged_kernel(view))
    assert 0.0 < sol.iota < 1.0
    # mass settles on the slower-leaking cycle
    assert sol.mu_star.values[:3].sum() > 0.99


def test_qsd_survival_is_geometric_on_generated_graph(small_community):
    _, view = small_community
    sol = quasi_stationary(view, build_merged_kernel(view))
    assert 0.0 < sol.iota < 1.0
    assert sol.residual < 1e-11
    curve = survival_curve(view, sol, 50)
    want = (1.0 - sol.iota) ** np.arange(51)
    assert np.abs(curve - want).max() < 1e-9


@pytest.mark.parametrize("m, seed", [(2, 1), (2, 2), (3, 3), (3, 4)])
def test_qsd_on_the_merged_kernel_is_the_survivor_power_iteration(m, seed):
    # the merged kernel stepped with its merged state held at 0 is the
    # survivor kernel stepped: iota, mu* and the iteration count agree bit
    # for bit with the power iteration on the explicit survivor kernel
    graph, _ = generate(DbmParams(n=600, m=m, lam=3.0, alpha=0.02, seed=seed))
    for i in range(m):
        view = community_view(graph, i)
        sol = quasi_stationary(view, build_merged_kernel(view))
        mu, iota, iterations = survivor_power_iteration(view)
        assert sol.iota == iota and sol.iterations == iterations
        assert np.array_equal(sol.mu_star.values[view.kept], mu)
        assert not sol.mu_star.values[view.gate_mask].any()


def test_iota_first_order_value():
    params = DbmParams(n=1000, m=2, lam=2.0, alpha=0.01, seed=0)
    assert iota_first_order(params) == pytest.approx(0.02 * math.log(1000))


def test_iota_close_to_first_order(small_community):
    graph, view = small_community
    sol = quasi_stationary(view, build_merged_kernel(view))
    want = iota_first_order(graph.params)
    assert abs(sol.iota - want) / want < 0.35


def test_merged_kernel_single_gate_is_a_relabeling():
    view = one_gate_complete_view(6)
    merged = build_merged_kernel(view)
    assert merged.n_states == 6
    assert merged.merged_index == 5
    order = np.concatenate([view.kept, [0]])
    want = dense_kernel(view.local)[np.ix_(order, order)]
    assert np.abs(merged.operator.T.toarray() - want).max() < 1e-15
    assert np.abs(merged.pi_tilde.values - 1 / 6).max() < 1e-15


def test_merged_kernel_rows_and_exact_stationarity(small_community):
    _, view = small_community
    merged = build_merged_kernel(view)
    mat = merged.operator.T
    rows = np.asarray(mat.sum(axis=1)).ravel()
    assert np.abs(rows - 1.0).max() < 1e-12
    # non-gate block is the plain restriction of the community kernel
    dense = dense_kernel(view.local)
    kept = view.kept
    block = mat.toarray()[: kept.size, : kept.size]
    assert np.abs(block - dense[np.ix_(kept, kept)]).max() < 1e-14
    # merging against the pi-proportional entry law keeps pi stationary
    pi = merged.pi_tilde.values
    assert pi.sum() == pytest.approx(1.0)
    assert np.abs(mat.T @ pi - pi).sum() < 1e-12


def test_merged_kernel_mass_conservation(small_community):
    _, view = small_community
    merged = build_merged_kernel(view)
    dense = dense_kernel(view.local)
    kept = view.kept
    gate = view.gate_labels
    to_gate = merged.operator.T.toarray()[: kept.size, -1]
    want = dense[np.ix_(kept, gate)].sum(axis=1)
    assert np.abs(to_gate - want).max() < 1e-14


def dense_mixing_time(kernel: np.ndarray, pi: np.ndarray, cap: int) -> int | None:
    """Smallest t <= cap with worst-row TV(kernel^t, pi) <= 1/(2e), or None."""
    power = np.eye(kernel.shape[0])
    for t in range(1, cap + 1):
        power = power @ kernel
        if 0.5 * np.abs(power - pi).sum(axis=1).max() <= 1.0 / (2.0 * math.e):
            return t
    return None


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(size=st.integers(4, 30), graph_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_gate_pipeline_matches_dense_oracles(size, graph_seed, data):
    # the merged kernel, its stationary law, mixing time, return mass,
    # hitting oracle and QSD on random strongly connected digraphs with a
    # random proper gate set, against dense re-derivations of each
    # definition
    graph = random_sc_digraph(np.random.default_rng(graph_seed), size)
    gate = np.array(
        sorted(data.draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=size - 1)))
    )
    mask = np.zeros(size, dtype=bool)
    mask[gate] = True
    p = dense_kernel(graph)
    pi = dense_stationary(p)
    view = CommunityView(
        i=0,
        local=graph,
        pi_local=ProbVector(pi, "community:0"),
        d_rewired=mask.astype(np.int64),
    )
    kept = np.flatnonzero(~mask)
    k = kept.size
    w = pi[gate] / pi[gate].sum()
    want = np.zeros((k + 1, k + 1))
    want[:k, :k] = p[np.ix_(kept, kept)]
    want[:k, k] = p[np.ix_(kept, gate)].sum(axis=1)
    want[k, :k] = w @ p[np.ix_(gate, kept)]
    want[k, k] = w @ p[np.ix_(gate, gate)].sum(axis=1)

    merged = build_merged_kernel(view)
    assert merged.n_states == k + 1 and merged.merged_index == k
    # the kept block is the survivor kernel itself, entry for entry
    assert np.array_equal(merged.operator[:k, :k].toarray(), survivor_kernel(view).toarray())
    assert np.abs(merged.operator.T.toarray() - want).max() < 1e-14
    pi_tilde = merged.pi_tilde.values
    assert np.array_equal(pi_tilde, np.append(pi[kept], pi[gate].sum()))
    assert np.abs(merged.operator @ pi_tilde - pi_tilde).sum() < 1e-12

    t_mix = dense_mixing_time(want, pi_tilde, cap=100)
    got, starts = mixing_time_estimate(merged, cap=100)
    assert got == t_mix and np.array_equal(starts, np.arange(k + 1))

    mass = return_mass(merged, t_mix)
    assert mass.t_horizon == math.ceil(t_mix * math.log(1.0 / pi_tilde.min()))
    level = pi_tilde[k]
    returns = [
        np.linalg.matrix_power(want, s)[k, k] for s in range(1, mass.t_horizon + 1)
    ]
    excess = sum(max(r - level, 0.0) for r in returns)
    assert mass.r_tilde == pytest.approx(1.0 + excess, abs=1e-12)

    hit = hitting_time_estimates(view, mass)
    h = np.linalg.solve(np.eye(k) - p[np.ix_(kept, kept)], np.ones(k))
    assert hit.oracle == pytest.approx(float(pi[kept] @ h), rel=1e-10)
    # the oracle is z / pi~(d), and the stop rule's bound covers its unsummed tail
    assert level == view.gate_mass and hit.oracle == mass.z / level
    assert mass.steps >= mass.t_horizon and mass.bound <= HITTING_ORACLE_RTOL * mass.z
    assert abs(hit.oracle - float(pi[kept] @ h)) <= mass.bound / level + 1e-12 * hit.oracle
    assert hit.estimate == mass.r_tilde / pi[gate].sum()

    # the QSD is the Perron left eigenvector of the survivor block; it is
    # checked where the spectral gap lets the power iteration settle
    vals, vecs = np.linalg.eig(p[np.ix_(kept, kept)].T)
    order = np.argsort(-np.abs(vals))
    theta = float(np.abs(vals[order[0]]))
    second = float(np.abs(vals[order[1]])) if k > 1 else 0.0
    if theta > 0.0 and second <= 0.9 * theta:
        sol = quasi_stationary(view, merged)
        mu, iota, iterations = survivor_power_iteration(view)
        assert (sol.iota, sol.iterations) == (iota, iterations)
        assert np.array_equal(sol.mu_star.values[kept], mu)
        perron = vecs[:, order[0]].real
        perron /= perron.sum()
        assert abs(sol.iota - (1.0 - theta)) <= 1e-10 * (1.0 - theta)
        assert np.abs(sol.mu_star.values[kept] - perron).sum() <= 1e-10
        assert not sol.mu_star.values[gate].any()


def test_return_mass_clamp_and_horizon_mechanics():
    # horizon = ceil(t_mix * log(1/min pi)) = ceil(log(7/3)) = 1, and the
    # single return probability 0.55 sits below the stationary level 4/7,
    # so the clamped excess vanishes
    matrix = np.array([[0.4, 0.6], [0.45, 0.55]])
    merged = MergedKernel(
        operator=csr_matrix(matrix.T),
        pi_tilde=ProbVector(np.array([3.0, 4.0]) / 7.0, "merged:0"),
    )
    mass = return_mass(merged, t_mix=1)
    assert mass.t_horizon == 1
    assert mass.r_tilde == 1.0
    # P^t(d, d) - pi(d) = (3/7) (-0.05)^t, so Z_dd = (3/7) / 1.05; the
    # bound (||P^t(d, .) - pi||_1 / (2 (e - 1)) here) takes steps past H
    assert mass.z == pytest.approx(3.0 / 7.0 / 1.05, rel=1e-14)
    assert mass.steps == 8 and mass.bound <= HITTING_ORACLE_RTOL * mass.z


def test_return_mass_raises_when_pi_tilde_is_not_stationary(small_community):
    # 1e-6 of mass moved between two states leaves |P~^t(d, .) - pi~|_1
    # near 2e-6, so the oracle's tail bound never reaches 1e-10 z
    _, view = small_community
    merged = build_merged_kernel(view)
    t_mix, _ = mixing_time_estimate(merged, cap=500)
    return_mass(merged, t_mix)
    values = merged.pi_tilde.values.copy()
    values[0] -= 1e-6
    values[-1] += 1e-6
    off = MergedKernel(merged.operator, ProbVector(values, "merged:0"))
    with pytest.raises(RuntimeError, match="return sum"):
        return_mass(off, t_mix)


@pytest.mark.parametrize(("n", "alpha", "seed"), [(500, 0.02, 3), (2000, 0.002, 1)])
def test_hitting_oracle_matches_the_sparse_solve_on_drawn_communities(n, alpha, seed):
    # the return-sum oracle against the sparse direct solve it replaced,
    # within its own bound, on every community of a drawn graph
    graph, _ = generate(DbmParams(n=n, m=2, lam=3.0, alpha=alpha, seed=seed), seed)
    for i in range(graph.m):
        view = community_view(graph, i)
        merged = build_merged_kernel(view)
        t_mix, _ = mixing_time_estimate(merged, cap=500)
        mass = return_mass(merged, t_mix)
        hit = hitting_time_estimates(view, mass)
        assert mass.steps >= mass.t_horizon and mass.bound <= HITTING_ORACLE_RTOL * mass.z
        assert abs(hit.oracle - spsolve_hitting_oracle(view)) <= mass.bound / view.gate_mass


def test_return_mass_matches_dense_powers():
    view = one_gate_complete_view(6)
    merged = build_merged_kernel(view)
    t_mix, starts = mixing_time_estimate(merged, cap=50)
    assert starts.size == merged.n_states
    mass = return_mass(merged, t_mix)
    dense = merged.operator.T.toarray()
    d = merged.merged_index
    level = merged.pi_tilde.values[d]
    power = np.eye(6)
    raw = 0.0
    excess = 0.0
    for _ in range(mass.t_horizon):
        power = power @ dense
        raw += power[d, d]
        excess += max(power[d, d] - level, 0.0)
    assert mass.r_tilde == pytest.approx(1.0 + excess, abs=1e-12)
    # the clamp keeps the excess within the plain sum of return probabilities
    assert 1.0 <= mass.r_tilde <= 1.0 + raw


def test_hitting_time_on_complete_digraph():
    # from any survivor the gate is hit with chance 1/(k-1) per step, so
    # E[tau] = k-1 from survivors and (k-1)^2/k on stationary average
    view = one_gate_complete_view(6)
    merged = build_merged_kernel(view)
    t_mix, _ = mixing_time_estimate(merged, cap=50)
    mass = return_mass(merged, t_mix)
    est = hitting_time_estimates(view, mass)
    assert view.gate_mass == pytest.approx(1 / 6)
    assert est.oracle == pytest.approx(25 / 6, rel=1e-10)
    assert est.estimate == pytest.approx(est.oracle, rel=0.5)


def test_hitting_time_estimate_tracks_oracle(small_community):
    _, view = small_community
    merged = build_merged_kernel(view)
    t_mix, _ = mixing_time_estimate(merged, cap=500)
    mass = return_mass(merged, t_mix)
    est = hitting_time_estimates(view, mass)
    assert est.oracle is not None and est.oracle > 0
    assert 1.0 < est.estimate / est.oracle < 2.0
    # the ratio estimates the return cycle of the gate state; stationary
    # starts already inside the gates contribute zero to the oracle, so
    # the two differ by a (1 - gate mass) factor when mixing is fast
    assert abs(est.estimate * (1.0 - view.gate_mass) / est.oracle - 1.0) < 0.1


def test_mixing_time_on_complete_digraph_is_one_step():
    view = one_gate_complete_view(6)
    merged = build_merged_kernel(view)
    t_mix, starts = mixing_time_estimate(merged, cap=10)
    assert t_mix == 1 and starts.size == merged.n_states


def test_mixing_time_matches_dense_definition(small_community):
    _, view = small_community
    merged = build_merged_kernel(view)
    t_mix, starts = mixing_time_estimate(merged, cap=500)
    assert starts.size == merged.n_states
    dense = merged.operator.T.toarray()
    pi = merged.pi_tilde.values
    power = np.eye(merged.n_states)
    worst_prev = 1.0
    for _ in range(t_mix - 1):
        power = power @ dense
    worst_prev = 0.5 * np.abs(power - pi).sum(axis=1).max()
    worst_at = 0.5 * np.abs(power @ dense - pi).sum(axis=1).max()
    thresh = 1.0 / (2.0 * math.e)
    assert worst_at <= thresh
    if t_mix > 1:
        assert worst_prev > thresh


def test_mixing_time_cap_and_sampled_mode():
    slow = MergedKernel(
        operator=csr_matrix(np.array([[0.99, 0.01], [0.01, 0.99]])),
        pi_tilde=ProbVector(np.array([0.5, 0.5]), "merged:0"),
    )
    with pytest.raises(RuntimeError, match="cap"):
        mixing_time_estimate(slow, cap=10)
    t_slow, _ = mixing_time_estimate(slow, cap=100)
    assert 0.5 * 0.98**t_slow <= 1.0 / (2.0 * math.e) < 0.5 * 0.98 ** (t_slow - 1)

    # a merged space above the 2000-state limit starts from the merged
    # state and two collision witnesses: every state steps straight into
    # the absorbing merged state, so t_mix = 1, and every candidate ties on
    # out-degree and score, so the witnesses are the two lowest states
    ns = 2001
    absorbing = MergedKernel(
        operator=csr_matrix((np.ones(ns), (np.full(ns, ns - 1), np.arange(ns))), shape=(ns, ns)),
        pi_tilde=delta(ns, ns - 1, "merged:0"),
    )
    t_mix, starts = mixing_time_estimate(absorbing, cap=10)
    assert t_mix == 1
    assert starts.tolist() == [0, 1, ns - 1]
    t_mix, starts = mixing_time_estimate(absorbing, cap=10, k=None)
    assert t_mix == 1 and starts.size == ns


def merged_witnesses(merged: MergedKernel, k: int) -> np.ndarray:
    """``collision_witnesses`` as ``mixing_time_estimate`` scores them.

    The candidates' degrees are the merged out-degrees, the merged state
    left out.
    """
    degree = np.bincount(merged.operator.indices, minlength=merged.n_states)
    return collision_witnesses(merged.operator, degree[: merged.merged_index], k)


def test_collision_witnesses_score_the_lowest_out_degrees():
    # out-degrees 4, 2, 2, 2, 3, and 1 for the absorbing merged state 5,
    # which also has the top two-step collision score (1.0) but is never a
    # candidate; the others score 0.2083, 0.25, 0.375, 0.2292 and 0.1944
    p = np.zeros((6, 6))
    p[0, [1, 2, 3, 4]] = 0.25
    p[1, [0, 2]] = p[2, [3, 5]] = p[3, [0, 4]] = 0.5
    p[4, [0, 1, 2]] = 1.0 / 3.0
    p[5, 5] = 1.0
    merged = MergedKernel(csr_matrix(p.T), uniform(6, "merged:0"))
    score = ((p @ p) ** 2).sum(axis=1)
    assert score.argmax() == 5 and score[2] > score[1] > score[3]
    # k = 1 scores the one lowest-degree state, the lowest index of three ties
    assert merged_witnesses(merged, 1).tolist() == [1]
    assert merged_witnesses(merged, 3).tolist() == [2, 1]
    # every state a candidate but the merged one, whatever k is
    assert merged_witnesses(merged, 6).tolist() == [2, 1]
    assert merged_witnesses(merged, 100).tolist() == [2, 1]

    # every state steps into the merged state: equal degrees and scores,
    # so the two lowest indices win
    flat = np.zeros((5, 5))
    flat[:, 4] = 1.0
    merged = MergedKernel(csr_matrix(flat.T), uniform(5, "merged:0"))
    assert merged_witnesses(merged, 3).tolist() == [0, 1]


@pytest.mark.parametrize(
    ("alpha", "seed", "i", "size"),
    [(0.002, 1, 1, 3), (0.002, 3, 0, 3), (0.005, 1, 1, 4)],
    ids=["1-1", "3-0", "alpha0.005-1-1"],
)
def test_witness_starts_find_the_worst_start_on_drawn_communities(alpha, seed, i, size):
    # the criterion 4-7 sweep's communities (n = 4000, about 3870 merged
    # states) where 64 uniform starts plus the merged state read t_mix = 4
    # and stepping every state reads 5; and a community at alpha = 0.005
    # (3680 merged states) where the two collision witnesses read 4, and
    # the slow start is the lowest-out-degree candidate, state 1862
    graph, _ = generate(replace(SWEEP_PARAMS, alpha=alpha), seed)
    merged = build_merged_kernel(community_view(graph, i))
    assert merged.n_states > START_STATE_LIMIT
    t_mix, starts = mixing_time_estimate(merged, cap=200)
    assert starts.size == size and starts[-1] == merged.merged_index
    every, _ = mixing_time_estimate(merged, cap=200, k=None)
    assert t_mix == every == 5
    check_point_mass_references(merged, t_mix)
    if size == 4:
        top = np.sort(merged_witnesses(merged, WITNESS_CANDIDATES)[:WITNESSES])
        pi, cols = merged.pi_tilde.values, np.append(top, merged.merged_index)
        assert 1862 in starts and 1862 not in top
        assert len(dense_start_steps(merged.operator, pi, cols, cap=200)[0]) == 4


def test_a_candidate_count_of_every_state_steps_every_state():
    # 2142 merged states in community 0: a k of every state steps each
    # one, as the profile does for a k of every vertex, and reads the
    # exhaustive t; one candidate fewer keeps the witnesses
    graph, _ = generate(DbmParams(n=2500, m=2, lam=2.0, alpha=0.01, seed=1), 1)
    merged = build_merged_kernel(community_view(graph, 0))
    ns = merged.n_states
    assert ns == 2142
    every, _ = mixing_time_estimate(merged, cap=200, k=None)
    for k in (ns, ns + 1):
        t_mix, starts = mixing_time_estimate(merged, cap=200, k=k)
        assert np.array_equal(starts, np.arange(ns)) and t_mix == every
    _, starts = mixing_time_estimate(merged, cap=200, k=ns - 1)
    assert starts.size < ns


class RecordingOperator:
    """A merged operator that keeps every block it returns.

    A column read is kept as a dense block, a product as it comes.
    """

    def __init__(self, operator: csr_matrix):
        self.operator, self.shape, self.products = operator, operator.shape, []
        self.indices = operator.indices  # the witness candidates' out-degrees

    def __getitem__(self, key):
        out = self.operator[key]
        self.products.append(out.toarray())
        return out

    def __matmul__(self, block):
        out = self.operator @ block
        self.products.append(out)
        return out


def check_point_mass_references(merged: MergedKernel, t_mix: int) -> None:
    """Column reads against the point-mass loops they replaced, byte for byte.

    The collision scores of the WITNESS_CANDIDATES candidates are
    stepped twice from a CSR block of their point masses, and r~ from the
    merged state's point mass, as ``collision_witnesses`` and
    ``return_mass`` once did.
    """
    ns, op = merged.n_states, merged.operator
    degree = np.bincount(op.indices, minlength=ns)[: ns - 1]
    candidates = np.argsort(degree, kind="stable")[:WITNESS_CANDIDATES]
    size = candidates.size
    one = op @ csr_matrix((np.ones(size), (candidates, np.arange(size))), shape=(ns, size))
    recorder = RecordingOperator(op)
    witnesses = collision_witnesses(recorder, degree, WITNESS_CANDIDATES)
    read, two = recorder.products
    assert read.tobytes() == one.toarray().tobytes()
    score, want = (
        np.bincount(p.indices, weights=p.data**2, minlength=size) for p in (two, op @ one)
    )
    assert score.tobytes() == want.tobytes()
    top = candidates[np.argsort(-want, kind="stable")[:WITNESSES]].tolist()
    assert witnesses.tolist() == top + [c for c in candidates[:1].tolist() if c not in top]

    d, pi = ns - 1, merged.pi_tilde.values
    mass = return_mass(merged, t_mix)
    assert mass.t_horizon == math.ceil(t_mix * math.log(1.0 / pi.min()))
    mu = np.zeros(ns)
    mu[d] = 1.0
    excess = 0.0
    for _ in range(mass.t_horizon):
        mu = op @ mu
        excess += max(float(mu[d]) - float(pi[d]), 0.0)
    assert np.float64(mass.r_tilde).tobytes() == np.float64(1.0 + excess).tobytes()


def check_against_dense_loop(merged: MergedKernel, cap: int) -> list[tuple[int, int]]:
    """``mixing_time_estimate`` against ``dense_start_steps`` on its starts.

    The starts are every state up to START_STATE_LIMIT, and past it the
    merged state and the collision witnesses among WITNESS_CANDIDATES
    candidates, whose scoring takes a column read and a product.  t must
    be the dense loop's, and every block at most 2 START_BLOCK - 1 columns
    wide, the dense loop's next columns bit for bit, stepped until they
    first mix: a start block's first step is its column read, the later
    ones products.  Returns each block's width and step count.
    """
    ns = merged.n_states
    recorder = RecordingOperator(merged.operator)
    t_mix, starts = mixing_time_estimate(MergedKernel(recorder, merged.pi_tilde), cap)
    if ns > START_STATE_LIMIT:
        scoring, recorder.products = recorder.products[:2], recorder.products[2:]
        assert [p.shape for p in scoring] == [(ns, min(WITNESS_CANDIDATES, ns - 1))] * 2
        witnesses = merged_witnesses(merged, WITNESS_CANDIDATES)
        assert np.array_equal(starts, np.append(np.sort(witnesses), ns - 1))
    else:
        assert np.array_equal(starts, np.arange(ns))
    blocks, tvs = dense_start_steps(merged.operator, merged.pi_tilde.values, starts, cap)
    assert tvs[-1].max() <= MIX_THRESHOLD
    assert t_mix == len(blocks)
    assert all(p.shape[1] <= 2 * START_BLOCK - 1 for p in recorder.products)
    stepped, col, step = [], 0, 0
    for product in recorder.products:
        width = product.shape[1]
        assert np.array_equal(product, blocks[step][:, col : col + width])
        if tvs[step][col : col + width].max() <= MIX_THRESHOLD:
            stepped.append((width, step + 1))
            col, step = col + width, 0
        else:
            step += 1
    assert col == starts.size and step == 0
    return stepped


def test_mixing_time_takes_the_slowest_of_its_start_blocks():
    # P = (1 - a) I + a 1 pi^T mixes start x with TV (1 - pi_x) (1 - a)^t;
    # at 1 - a = 0.43 a start of pi 1e-4 mixes at t = 3, every other
    # start (pi about 0.0101) at t = 2, so the block that holds the
    # smallest-pi start decides t, wherever it sits among the three
    ns, rate = 100, 0.43
    assert ns > 2 * START_BLOCK
    for slow in (0, ns // 2, ns - 1):
        pi = np.full(ns, (1.0 - 1e-4) / (ns - 1))
        pi[slow] = 1e-4
        kernel = rate * np.eye(ns) + (1.0 - rate) * np.outer(np.ones(ns), pi)
        merged = MergedKernel(operator=csr_matrix(kernel.T), pi_tilde=ProbVector(pi, "merged:0"))
        closed = [min(t for t in range(1, 10) if (1 - p) * rate**t <= MIX_THRESHOLD) for p in pi]
        assert max(closed) == 3 and sorted(closed)[-2] == 2
        blocks = check_against_dense_loop(merged, cap=10)
        steps = [2, 2, 2]
        steps[slow * 3 // ns] = 3
        assert blocks == list(zip([34, 33, 33], steps))
        t_mix, starts = mixing_time_estimate(merged, cap=10)
        assert t_mix == 3 and starts.tolist() == list(range(ns))


@DIFFERENTIAL
@given(
    sampled=st.booleans(),
    graph_seed=st.integers(0, 2**31 - 1),
    i=st.integers(0, 1),
    data=st.data(),
)
def test_mixing_time_matches_the_dense_loop_on_drawn_communities(sampled, graph_seed, i, data):
    # exhaustive starts on small communities, the gate state and two
    # collision witnesses once the merged space passes START_STATE_LIMIT
    if sampled:
        params = DbmParams(
            n=data.draw(st.integers(2100, 2300)), m=2, lam=2.0, alpha=0.001, seed=graph_seed
        )
    else:
        params = DbmParams(
            n=data.draw(st.integers(60, 400)),
            m=2,
            lam=data.draw(st.floats(1.5, 3.0)),
            alpha=data.draw(st.floats(0.005, 0.05)),
            seed=graph_seed,
        )
    graph, _ = generate(params, graph_seed)
    lo = i * params.n
    assume(graph.rewired_out_degree[lo : lo + params.n].any())
    assume(pre_rewiring_subgraph(graph, i).is_strongly_connected())
    merged = build_merged_kernel(community_view(graph, i))
    assert (merged.n_states > START_STATE_LIMIT) == sampled
    blocks = check_against_dense_loop(merged, cap=200)
    check_point_mass_references(merged, max(steps for _, steps in blocks))
    widths = [width for width, _ in blocks]
    # past 2000 states one block, the merged state, two collision witnesses
    # and the lowest-out-degree candidate when it is not one of them
    assert max(widths) <= 2 * START_BLOCK - 1 and (widths in ([3], [4]) or not sampled)


def test_nice_fraction_counts_single_edge_gates_in_the_degree_window(small_community):
    graph, view = small_community
    assert 0.0 <= nice_fraction(graph, view) <= 1.0
    # window (1 +- eps) lambda log(n), eps = 1/sqrt(log n): about [11.2, 26.1] here
    target = graph.params.lam * math.log(graph.n)
    eps = 1.0 / math.sqrt(math.log(graph.n))
    low, high = math.ceil((1 - eps) * target), math.floor((1 + eps) * target)
    gate = view.gate_labels[:5]
    d_out, d_rew = np.zeros(graph.n, dtype=np.int64), np.zeros(graph.n)
    # nice at both window edges; two rewired edges; just below; just above
    d_out[gate] = [low, high, low, low - 1, high + 1]
    d_rew[gate] = [1, 1, 2, 1, 1]
    # a local graph whose gates have exactly these out-degrees
    edges = [(v, (v + j) % graph.n) for v in gate for j in range(1, d_out[v] + 1)]
    local = digraph_from_edges(graph.n, edges)
    assert np.array_equal(local.out_degree, d_out)
    crafted = replace(view, local=local, d_rewired=d_rew)
    assert nice_fraction(graph, crafted) == 0.4


def test_restart_first_success_is_geometric_with_sure_coins():
    # coin probability one at the single gate: tau_rho is the first gate
    # visit, geometric with rate 1/(k-1) from the uniform QSD
    view = one_gate_complete_view(6, coin=1.0)
    sol = quasi_stationary(view, build_merged_kernel(view))
    reps = 5000
    samples = restart_process(view, sol, reps, seed=3)
    taus = np.array([s.tau_rho for s in samples if s.tau_rho is not None])
    assert taus.size == reps  # cap is far beyond the geometric scale
    kmax = 12
    counts = np.array([(taus == k).sum() for k in range(1, kmax + 1)])
    counts = np.append(counts, (taus > kmax).sum())
    probs = 0.2 * 0.8 ** np.arange(kmax)
    probs = np.append(probs, 0.8**kmax)
    assert stats.chisquare(counts, reps * probs).pvalue > 1e-4


def test_restart_bookkeeping_invariants(small_community):
    _, view = small_community
    sol = quasi_stationary(view, build_merged_kernel(view))
    samples = restart_process(view, sol, 300, seed=5)
    hit = 0
    for s in samples:
        assert np.all(s.sigma_list >= 1)
        if s.tau_rho is not None:
            assert s.sigma_list.sum() == s.tau_rho
            hit += 1
    assert hit > 250  # cap censors only a tail


def test_restart_process_keeps_its_stream(small_community):
    # values computed before the sampler stepped only its running walkers:
    # the draws, their order and the per-run records are unchanged
    _, view = small_community
    sol = quasi_stationary(view, build_merged_kernel(view))
    samples = restart_process(view, sol, 24, seed=13)
    assert [s.tau_rho for s in samples] == [
        29, 153, 5, 18, 65, 3, 12, 126, 10, 52, 4, 63,
        28, 75, 6, 6, 56, 41, 56, 133, 173, 24, 7, 24,
    ]
    assert [len(s.sigma_list) for s in samples] == [
        10, 55, 2, 9, 19, 2, 6, 31, 4, 16, 1, 18, 11, 23, 3, 3, 10, 13, 19, 33, 59, 13, 2, 11
    ]
    assert samples[0].sigma_list.tolist() == [2, 5, 1, 2, 1, 2, 3, 1, 1, 11]
    assert samples[2].sigma_list.tolist() == [4, 1]
    assert samples[3].sigma_list.tolist() == [2, 1, 2, 4, 3, 3, 1, 1, 1]
    assert all(s.sigma_list.dtype == np.int64 for s in samples)
    # rare coins: four of six runs are censored at ceil(100 / iota) = 501
    # steps, and their gaps stop at the last gate visit
    view = one_gate_complete_view(6, coin=0.002)
    sol = quasi_stationary(view, build_merged_kernel(view))
    samples = restart_process(view, sol, 6, seed=2)
    assert [s.tau_rho for s in samples] == [None, 495, None, None, None, 1]
    assert [len(s.sigma_list) for s in samples] == [104, 92, 93, 90, 107, 1]
    assert [int(s.sigma_list.sum()) for s in samples] == [495, 495, 499, 497, 501, 1]
    assert samples[0].sigma_list[:8].tolist() == [1, 4, 14, 3, 2, 9, 3, 3]
    assert samples[1].sigma_list[-8:].tolist() == [4, 2, 10, 6, 2, 5, 1, 2]


def test_restart_stream_pin_holds_for_a_tiny_block(monkeypatch, small_community):
    # with a block of 7 doubles the start, re-init, step and coin draws
    # cross block ends everywhere, and still read the stream in order
    monkeypatch.setattr(walk, "UNIFORM_BLOCK", 7)
    test_restart_process_keeps_its_stream(small_community)


def test_restart_gap_mean_and_independence(small_community):
    _, view = small_community
    sol = quasi_stationary(view, build_merged_kernel(view))
    samples = restart_process(view, sol, 400, seed=7)
    gaps = np.concatenate([s.sigma_list for s in samples if len(s.sigma_list) >= 1])
    assert gaps.size > 500
    assert abs(gaps.mean() * sol.iota - 1.0) < 0.3
    pairs_a = []
    pairs_b = []
    for s in samples:
        if len(s.sigma_list) >= 2:
            pairs_a.append(s.sigma_list[:-1])
            pairs_b.append(s.sigma_list[1:])
    a = np.concatenate(pairs_a).astype(float)
    b = np.concatenate(pairs_b).astype(float)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.1


def test_restart_jump_times_near_exponential_scale():
    params = DbmParams(n=600, m=2, lam=3.0, alpha=0.005, seed=17)
    graph, _ = generate(params, 17)
    view = community_view(graph, 0)
    sol = quasi_stationary(view, build_merged_kernel(view))
    samples = restart_process(view, sol, 600, seed=9)
    taus = np.array(
        [s.tau_rho for s in samples if s.tau_rho is not None], dtype=float
    )
    assert taus.size > 550
    ks = stats.kstest(params.alpha * taus, "expon").statistic
    assert ks < 0.12


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_restart_sampler_draws_geometric_q(seed):
    # every step of the restart walk succeeds with probability q, so the
    # uncensored runs follow Geometric(q) conditioned on tau_rho <= the cap.
    # Both CDFs are flat between integers, so the sup is read at each one.
    # 1.358 / sqrt(N) is the 5% Kolmogorov value of a continuous law; for a
    # discrete law the KS statistic is stochastically smaller, so the test
    # is conservative
    graph, _ = generate(DbmParams(n=500, m=2, lam=3.0, alpha=0.02, seed=seed), seed)
    view = community_view(graph, 0)
    sol = quasi_stationary(view, build_merged_kernel(view))
    q = restart_rate(view, sol)
    assert 0.0 < q <= sol.iota
    samples = restart_process(view, sol, 10_000, seed=seed)
    taus = np.array([s.tau_rho for s in samples if s.tau_rho is not None])
    cap = math.ceil(100.0 / sol.iota)
    k = np.arange(cap + 1)
    law = np.expm1(k * math.log1p(-q)) / math.expm1(cap * math.log1p(-q))
    sample = np.cumsum(np.bincount(taus, minlength=cap + 1)) / taus.size
    ks = np.abs(sample - law).max()
    assert ks < 1.358 / math.sqrt(taus.size), (ks, taus.size)


def test_jump_targets_all_land_in_other_community(small_community):
    graph, _ = small_community
    starts = np.arange(10, dtype=np.int64)  # community 0
    counts, censored = jump_target_frequencies(graph, starts, 400, seed=1)
    assert counts[0] == 0
    assert counts[1] + censored == 400


def test_jump_targets_uniform_over_other_communities():
    params = DbmParams(n=150, m=4, lam=3.0, alpha=1.0, seed=23)
    graph, _ = generate(params, 23)
    starts = np.arange(150, dtype=np.int64)
    counts, censored = jump_target_frequencies(graph, starts, 600, seed=2)
    assert censored == 0
    assert counts[0] == 0
    assert counts.sum() == 600
    assert stats.chisquare(counts[1:]).pvalue > 1e-3


def test_jump_targets_guards(small_community):
    graph, _ = small_community
    with pytest.raises(ValueError, match="single community"):
        jump_target_frequencies(graph, np.array([0, graph.n]), 10, seed=0)
    plain = generate(DbmParams(n=100, m=2, lam=3.0, alpha=0.0, seed=1), 1)[0]
    with pytest.raises(ValueError, match="alpha"):
        jump_target_frequencies(plain, np.array([0]), 10, seed=0)


def test_community_view_consistency(small_community):
    graph, view = small_community
    n = graph.n
    leaving = leaving_out_degree(graph)
    assert np.array_equal(graph.rewired_out_degree, leaving)
    assert np.array_equal(view.d_rewired, leaving[:n])
    assert np.array_equal(view.gate_labels, np.flatnonzero(leaving[:n] > 0))
    assert view.gate_mask.sum() == view.gate_labels.size
    assert view.pi_local.domain == "community:0"
    # rewiring redirects edges without changing out-degrees, so the full
    # out-degrees, which the nice-gate window and the restart coins read
    # from the local graph, coincide with the restored local ones
    assert np.array_equal(graph.out_degree[:n], view.local.out_degree)
    assert np.all(view.d_rewired <= view.local.out_degree)
    assert view.d_rewired.sum() > 0
    assert 0.0 < view.gate_mass < 1.0


def test_community_view_rejects_disconnected_community():
    # mean degree ~1.2: far below the connectivity threshold
    params = DbmParams(n=60, m=2, lam=0.3, alpha=0.1, seed=3)
    graph, _ = generate(params, 3)
    with pytest.raises(ValueError, match="strongly connected"):
        community_view(graph, 0)


def test_community_view_rejects_a_community_without_gates():
    # alpha = 0 rewires nothing: the killed walk would never die (iota = 0)
    # and the restart cap of 100/iota steps would never be reached
    graph, _ = generate(DbmParams(n=300, m=2, lam=3.0, alpha=0.0, seed=1), 1)
    with pytest.raises(ValueError, match="^community 0 has no rewired out-edge"):
        community_view(graph, 0)


def test_power_iterations_raise_at_their_cap(monkeypatch):
    graph, _ = generate(DbmParams(n=300, m=2, lam=3.0, alpha=0.02, seed=1), 1)
    view = community_view(graph, 0)  # its local solve runs under the full cap
    monkeypatch.setattr("dbmwalk.walk.STATIONARY_MAX_ITER", 2)
    monkeypatch.setattr("dbmwalk.qsd.STATIONARY_MAX_ITER", 2)
    capped = "iteration did not reach residual 1e-12 in 2 steps$"
    with pytest.raises(RuntimeError, match=f"^stationary {capped}"):
        stationary(graph)
    with pytest.raises(RuntimeError, match=f"^QSD {capped}"):
        quasi_stationary(view, build_merged_kernel(view))


def test_community_view_shares_the_cached_subgraph(small_community):
    graph, view = small_community
    assert view.local is pre_rewiring_subgraph(graph, 0)
    pi = local_stationary(graph, 0)
    assert np.array_equal(view.pi_local.values, pi.values)
    # the escape pipeline reads the shared subgraph and must not change it
    merged = build_merged_kernel(view)
    sol = quasi_stationary(view, merged)
    t_mix, _ = mixing_time_estimate(merged, cap=10_000)
    hitting_time_estimates(view, return_mass(merged, t_mix))
    restart_process(view, sol, 50, seed=1)
    assert community_view(graph, 0).local is view.local
    validate(view.local)
