"""Gate structure and quasi-stationary analysis of a community.

Within one community, the vertices owning at least one rewired out-edge
("gates") are where the full walk can leave.  This module studies the
community walk relative to its gates: the kernel with all gates merged
into a single absorbing-and-releasing state, the quasi-stationary
distribution of the walk killed at the gates, return masses and hitting
time estimates for the merged state, and the marked restart process
whose jump times become exponential on the alpha^-1 time scale.

All community-level objects are indexed by labels 0..n-1; the walk here
is the one on the community's pre-rewiring graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix, identity, issparse
from scipy.sparse.linalg import spsolve

from .graph import DbmParams, Digraph, pre_rewiring_subgraph
from .rng import NS_RESTART, derived_rng
from .walk import (
    SAMPLED_STARTS,
    STATIONARY_MAX_ITER,
    STATIONARY_TOL,
    ProbVector,
    _step_walkers,
    local_stationary,
    propagate,
    select_starts,
    transition_operator,
)

MIX_THRESHOLD = 1.0 / (2.0 * math.e)
# rounding allowance where a support bound or an earlier TV stands in for
# the TV the dense loop computes: a step or a TV sum over 10^5 states is
# off by about 1e-11, and a wider margin only keeps a column in the block,
# or a TV check, for longer
MIX_MARGIN = 1e-6
# fill of the sparse start block past which it is stepped dense: a CSR
# step cost as much as a dense one from about 5-10% fill, at 65 columns
# on 19.2k states and at 2170 columns on 2170 states
SPARSE_FILL_LIMIT = 0.05
HITTING_ORACLE_LIMIT = 2000  # largest community with an exact hitting time


@dataclass
class CommunityView:
    """Shared per-community working set: local graph, pi, rewired counts.

    Rewiring keeps each vertex's edges, so ``local.out_degree`` is the
    full DBM out-degree of the community's vertices.  ``gate_mask`` (the
    labels with a rewired out-edge) and ``survivor`` (the kernel
    ``transition_operator(local)`` on the ``kept`` labels) are built
    once: ``d_rewired``, in ``community_view`` a slice of the graph's
    ``rewired_out_degree``, must not change after they are read.
    """

    i: int
    local: Digraph
    pi_local: ProbVector
    d_rewired: np.ndarray

    @property
    def n(self) -> int:
        return self.local.n

    @cached_property
    def gate_mask(self) -> np.ndarray:
        return self.d_rewired > 0

    @property
    def gate_labels(self) -> np.ndarray:
        return np.flatnonzero(self.gate_mask)

    @property
    def gate_mass(self) -> float:
        return float(self.pi_local.values[self.gate_mask].sum())

    @property
    def kept(self) -> np.ndarray:
        return np.flatnonzero(~self.gate_mask)

    @cached_property
    def survivor(self) -> csr_matrix:
        return transition_operator(self.local)[self.kept][:, self.kept]


def community_view(graph: Digraph, i: int) -> CommunityView:
    """Assemble the per-community objects used by every routine here.

    ``local`` is the graph's cached pre-rewiring subgraph and
    ``pi_local`` its ``local_stationary`` solve, so the subgraph, its
    connectivity check and its kernel are built once per graph.  A
    community without gates, from which the walk never escapes, is
    refused, as is one that is not strongly connected.
    """
    d_rewired = graph.rewired_out_degree[i * graph.n : (i + 1) * graph.n]
    if not d_rewired.any():
        raise ValueError(f"community {i} has no rewired out-edge, so no gate to escape by")
    pi_local = local_stationary(graph, i)
    view = CommunityView(
        i=i,
        local=pre_rewiring_subgraph(graph, i),
        pi_local=pi_local,
        d_rewired=d_rewired,
    )
    view.survivor  # build the community kernel here, where it is traced
    return view


@dataclass
class MergedKernel:
    """Community kernel with all gates collapsed into one state.

    States are the non-gate labels (in ``view.kept`` order) followed by
    the merged gate state at index ``n_states - 1``; ``operator`` is the
    transposed kernel P~^T.  ``pi_tilde`` restricts the community
    stationary distribution to the kept states and assigns the full gate
    mass to the merged state; it is exactly stationary.
    """

    operator: csr_matrix
    pi_tilde: ProbVector

    @property
    def n_states(self) -> int:
        return int(self.operator.shape[0])

    @property
    def merged_index(self) -> int:
        return self.n_states - 1


def build_merged_kernel(view: CommunityView) -> MergedKernel:
    """Aggregated kernel P~ = D P A (Stewart 1994, sec. 6.3).

    A lumps each label into its state; D enters a state uniformly on a
    kept label and by pi_g / sum pi over the gates on the merged one.
    The operator P~^T is ``lump @ P^T @ enter.T``, lump = A^T, enter = D.
    """
    n, kept, gate = view.n, view.kept, view.gate_labels
    pi = view.pi_local.values
    state = np.full(n, kept.size)
    state[kept] = np.arange(kept.size)
    weight = np.ones(n)
    weight[gate] = pi[gate] / pi[gate].sum()
    shape = (kept.size + 1, n)
    lump = csr_matrix((np.ones(n), (state, np.arange(n))), shape=shape)
    enter = csr_matrix((weight, (state, np.arange(n))), shape=shape)
    operator = lump @ transition_operator(view.local) @ enter.T
    values = np.concatenate([pi[kept], [pi[gate].sum()]])
    pi_tilde = ProbVector(values, f"merged:{view.i}")
    return MergedKernel(operator=operator, pi_tilde=pi_tilde)


@dataclass
class QsdSolution:
    """Dominant left eigenpair of the gate-killed community kernel.

    ``mu_star`` lives on community labels with zeros at the gates; the
    survival of the killed walk started from it is exactly geometric:
    P(tau > t) = (1 - iota)^t.
    """

    mu_star: ProbVector
    iota: float
    iterations: int
    residual: float


def quasi_stationary(view: CommunityView) -> QsdSolution:
    """Power iteration for the QSD of the walk killed at the gates.

    Iterates mu <- S mu / theta, theta = |S mu|_1, from uniform on the
    survivor kernel S, and returns the first mu whose eigen-residual
    ||S mu - theta mu||_1 is below STATIONARY_TOL, with iota = 1 - theta:
    the stop rule of ``walk.stationary``.
    """
    kept = view.kept
    if kept.size == 0:
        raise ValueError("every vertex is a gate; no survivor states")
    sub = view.survivor
    mu = np.full(kept.size, 1.0 / kept.size)
    for it in range(STATIONARY_MAX_ITER):
        nxt = sub @ mu
        theta = float(nxt.sum())
        if theta <= 0.0:
            raise RuntimeError("survivor kernel lost all mass; no QSD")
        residual = float(np.abs(nxt - theta * mu).sum())
        if residual < STATIONARY_TOL:
            full = np.zeros(view.n)
            full[kept] = mu
            return QsdSolution(
                mu_star=ProbVector(full, f"community:{view.i}"),
                iota=1.0 - theta,
                iterations=it,
                residual=residual,
            )
        mu = nxt / theta
    raise RuntimeError(
        f"QSD iteration did not reach residual {STATIONARY_TOL} in {STATIONARY_MAX_ITER} steps"
    )


def survival_curve(view: CommunityView, solution: QsdSolution, t_max: int) -> np.ndarray:
    """Exact P(tau_gate > t) from the QSD, for t = 0..t_max."""
    mu = solution.mu_star.values[view.kept]
    steps = propagate(view.survivor, mu, range(1, t_max + 1))
    return np.array([1.0] + [float(mu_t.sum()) for mu_t in steps])


def iota_first_order(params: DbmParams) -> float:
    """Leading-order escape rate lambda * alpha * log(n)."""
    return params.lam * params.alpha * math.log(params.n)


def mixing_time_estimate(
    merged: MergedKernel,
    cap: int,
    rng: np.random.Generator | None = None,
    k: int | None = SAMPLED_STARTS,
) -> tuple[int, bool]:
    """Smallest t with worst-start TV(P~^t(x, .), pi~) <= 1/(2e).

    The starts follow ``walk.select_starts`` with the merged gate state
    as witness: every state when ``k`` is None or the merged space is
    small, otherwise k states drawn from ``rng``, which makes the result
    a lower estimate (flagged by the returned bool = False).

    The answer is that of stepping every start as one dense block and
    checking TV after each step; two things make it cheaper.  The
    point-mass block is stepped as CSR until its fill passes
    SPARSE_FILL_LIMIT: CSR times CSR sums each entry over the operator's
    row in the dense product's order and leaves out only exact zeros, so
    its columns are the dense ones bit for bit.  While it is sparse, the
    TV check is skipped when some column's support misses more than
    1/(2e) + MIX_MARGIN of pi~, as TV >= 1 - pi~(support).  And columns
    whose TV is MIX_MARGIN below 1/(2e) leave the block once at most
    half of it is left (narrowing copies the block): pi~ is stationary,
    so TV from a fixed start never rises, and they cannot decide t.
    """
    ns = merged.n_states
    starts = select_starts(ns, rng, k, witnesses=[merged.merged_index])
    pi = merged.pi_tilde.values
    block = csr_matrix(
        (np.ones(starts.size), (starts, np.arange(starts.size))), shape=(ns, starts.size)
    )
    for t in range(1, cap + 1):
        block = merged.operator @ block
        if issparse(block):
            support = csr_matrix((np.ones(block.nnz), block.indices, block.indptr), block.shape)
            unmixed = 1.0 - (support.T @ pi).min() > MIX_THRESHOLD + MIX_MARGIN
            if not unmixed or block.nnz > SPARSE_FILL_LIMIT * ns * block.shape[1]:
                block = block.toarray()
            if unmixed:
                continue
        diff = block - pi[:, None]
        tv = 0.5 * np.abs(diff, out=diff).sum(axis=0)
        del diff  # freed before the block is narrowed
        if tv.max() <= MIX_THRESHOLD:
            return t, starts.size == ns
        # numpy sums axis 0 of a block two or more columns wide row by row,
        # as it sums the full block, but a lone column pairwise: keep two
        keep = tv > MIX_THRESHOLD - MIX_MARGIN
        keep[np.argsort(tv)[-2:]] = True
        if 2 * keep.sum() <= keep.size:
            block = block[:, keep]
    raise RuntimeError(f"merged kernel did not mix within the cap of {cap} steps")


@dataclass(frozen=True)
class ReturnMass:
    """Accumulated returns to the merged gate state before mixing.

    ``r_tilde`` sums the excess of the return probability over its
    stationary level (clamped below at zero), plus one for the start;
    it is >= 1 by construction and tends to 1 when gates are spread out.
    """

    r_tilde: float
    t_horizon: int


def return_mass(merged: MergedKernel, t_mix: int) -> ReturnMass:
    """Return mass of the merged gate state over the standard horizon.

    The horizon is t_mix * log(1 / min pi~), the time by which every
    start has equilibrated to precision min pi~.
    """
    pi = merged.pi_tilde.values
    horizon = int(math.ceil(t_mix * math.log(1.0 / float(pi.min()))))
    d = merged.merged_index
    level = float(pi[d])
    mu = np.zeros(merged.n_states)
    mu[d] = 1.0
    excess = 0.0
    for mu in propagate(merged.operator, mu, range(1, horizon + 1)):
        excess += max(float(mu[d]) - level, 0.0)
    return ReturnMass(r_tilde=1.0 + excess, t_horizon=horizon)


@dataclass(frozen=True)
class HittingEstimate:
    """Return-mass estimate of the stationary gate hitting time."""

    estimate: float
    oracle: float | None


def hitting_time_estimates(view: CommunityView, mass: ReturnMass) -> HittingEstimate:
    """Estimate E_pi[tau_gate] as r_tilde / pi~(gate state).

    On small communities the exact value is solved from the linear
    system h = 1 + [P]h on non-gate states (gates contribute 0) and
    averaged under pi.
    """
    oracle = None
    if view.n <= HITTING_ORACLE_LIMIT:
        kept = view.kept
        # I - P on the kept states, as CSR (the survivor operator is P^T)
        i_minus_p = identity(kept.size, format="csr") - view.survivor.T
        h = spsolve(i_minus_p, np.ones(kept.size))
        oracle = float((view.pi_local.values[kept] * h).sum())
    return HittingEstimate(estimate=mass.r_tilde / view.gate_mass, oracle=oracle)


def nice_fraction(graph: Digraph, view: CommunityView) -> float:
    """Share of the gates that are nice.

    A gate is nice when it owns exactly one rewired edge and its full
    out-degree sits within (1 +- eps) lambda log(n), eps = 1/sqrt(log n).
    """
    if graph.params is None:
        raise ValueError("needs model parameters")
    n = graph.n
    epsilon = 1.0 / math.sqrt(math.log(n))
    target = graph.params.lam * math.log(n)
    gate = view.gate_labels
    deg = view.local.out_degree[gate]
    in_window = (deg >= (1 - epsilon) * target) & (deg <= (1 + epsilon) * target)
    return float(((view.d_rewired[gate] == 1) & in_window).mean())


@dataclass
class RestartSample:
    """One run of the marked community walk.

    The walk starts from the QSD, is reinitialized one step after every
    gate visit, and tosses a coin with the gate's rewired-edge fraction
    at each visit; ``tau_rho`` is the time of the first success (None if
    censored), ``sigma_list`` the gaps between successive gate visits.
    """

    tau_rho: int | None
    sigma_list: np.ndarray

    @property
    def kappa_final(self) -> int:
        """Number of gate visits, one coin each."""
        return int(self.sigma_list.size)

    @property
    def rho_final(self) -> int:
        """1 if a coin succeeded before the cap, else 0."""
        return int(self.tau_rho is not None)


def _cdf_sampler(weights: np.ndarray):
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]

    def draw(rng: np.random.Generator, k: int) -> np.ndarray:
        return np.searchsorted(cdf, rng.random(k), side="right")

    return draw


def restart_process(
    view: CommunityView,
    solution: QsdSolution,
    reps: int,
    seed: int,
) -> list[RestartSample]:
    """Simulate the marked restart walk until its first marked success.

    Every gate visit tosses a coin with success probability (rewired
    out-degree / full out-degree) of the visited gate; the walk restarts
    from (QSD one step forward) after each visit.  Only the running
    walkers are stepped, and each visit is recorded once as (walker, t).
    Runs are censored at 100/iota steps.
    """
    cap = int(math.ceil(100.0 / max(solution.iota, 1e-12)))
    rng = derived_rng(seed, NS_RESTART, view.i)
    coin_p = view.d_rewired / view.local.out_degree
    draw_start = _cdf_sampler(solution.mu_star.values)
    draw_reinit = _cdf_sampler(transition_operator(view.local) @ solution.mu_star.values)

    alive = np.arange(reps)
    pos = draw_start(rng, reps)
    at_gate = np.zeros(reps, dtype=bool)
    visitors, visit_times = [], []
    for t in range(1, cap + 1):
        # an empty group draws nothing (rng.random(0) leaves the stream as it was)
        nxt = np.empty_like(pos)
        nxt[at_gate] = draw_reinit(rng, np.count_nonzero(at_gate))
        nxt[~at_gate] = _step_walkers(view.local, pos[~at_gate], rng)[0]
        at_gate = view.gate_mask[nxt]
        visitors.append(alive[at_gate])
        visit_times.append(np.full(visitors[-1].size, t))
        stop = np.zeros(alive.size, dtype=bool)
        stop[at_gate] = rng.random(visitors[-1].size) < coin_p[nxt[at_gate]]
        keep = ~stop
        alive, pos, at_gate = alive[keep], nxt[keep], at_gate[keep]
        if alive.size == 0:
            break

    # the walkers still running at the cap are the censored ones
    censored = np.zeros(reps, dtype=bool)
    censored[alive] = True
    ids = np.concatenate(visitors)
    order = np.argsort(ids, kind="stable")
    times = np.concatenate(visit_times)[order]
    bounds = np.searchsorted(ids[order], np.arange(reps + 1))
    out = []
    for r in range(reps):
        run = times[bounds[r] : bounds[r + 1]]
        tau = None if censored[r] else int(run[-1])
        out.append(RestartSample(tau_rho=tau, sigma_list=np.diff(run, prepend=0)))
    return out
