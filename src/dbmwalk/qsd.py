"""Gate structure and quasi-stationary analysis of a community.

Within one community, the vertices owning at least one rewired out-edge
("gates") are where the full walk can leave.  This module studies the
community walk relative to its gates: the kernel with all gates merged
into a single absorbing-and-releasing state, the quasi-stationary
distribution of the walk killed at the gates, return masses and hitting
time estimates for the merged state, and the marked restart process,
whose jump time is exactly geometric and becomes exponential on the
alpha^-1 time scale.

All community-level objects are indexed by labels 0..n-1; the walk here
is the one on the community's pre-rewiring graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix

from .graph import DbmParams, Digraph, pre_rewiring_subgraph
from .rng import NS_RESTART, derived_rng
from .walk import (
    STATIONARY_MAX_ITER,
    STATIONARY_TOL,
    WITNESS_CANDIDATES,
    ProbVector,
    _step_walkers,
    _UniformStream,
    collision_witnesses,
    every_state_starts,
    local_stationary,
    propagate,
    transition_operator,
)

MIX_THRESHOLD = 1.0 / (2.0 * math.e)
# fewest columns of a start block: timed one call per fresh interpreter
# on an n = 4000 community (3680 merged states, 2 shared vCPUs), 16-32
# columns took 0.63-0.87 s and 40-128 columns 1.20-1.84 s, a cliff that
# in-process repeats hide
START_BLOCK = 32
HITTING_ORACLE_RTOL = 1e-10  # bound on the oracle's unsummed tail, relative


@dataclass
class CommunityView:
    """Shared per-community working set: local graph, pi, rewired counts.

    Rewiring keeps each vertex's edges, so ``local.out_degree`` is the
    full DBM out-degree of the community's vertices.  ``gate_mask`` (the
    labels with a rewired out-edge) is built once: ``d_rewired``, in
    ``community_view`` a slice of the graph's ``rewired_out_degree``,
    must not change after it is read.
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


def community_view(graph: Digraph, i: int) -> CommunityView:
    """Assemble the per-community objects used by every routine here.

    ``local`` is the graph's cached pre-rewiring subgraph and
    ``pi_local`` its ``local_stationary`` solve, so the subgraph and its
    connectivity check are built once per graph, and its kernel once per
    community pass.  A
    community without gates, from which the walk never escapes, is
    refused, as is one that is not strongly connected.
    """
    d_rewired = graph.rewired_out_degree[i * graph.n : (i + 1) * graph.n]
    if not d_rewired.any():
        raise ValueError(f"community {i} has no rewired out-edge, so no gate to escape by")
    pi_local = local_stationary(graph, i)
    return CommunityView(
        i=i,
        local=pre_rewiring_subgraph(graph, i),
        pi_local=pi_local,
        d_rewired=d_rewired,
    )


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


def quasi_stationary(view: CommunityView, merged: MergedKernel) -> QsdSolution:
    """Power iteration for the QSD of the walk killed at the gates.

    Iterates mu <- S mu / theta, theta = |S mu|_1, from uniform on the
    survivor kernel S, and returns the first mu whose eigen-residual
    ||S mu - theta mu||_1 is below STATIONARY_TOL, with iota = 1 - theta:
    the stop rule of ``walk.stationary``.  S is the kept block of
    ``merged``, ``view``'s merged kernel, which holds each row's kept
    entries in S's order; stepped with the merged state held at 0, the
    gate column adds only zeros, so no survivor kernel is built and the
    kept states are S mu bit for bit.
    """
    kept = view.kept
    if kept.size == 0:
        raise ValueError("every vertex is a gate; no survivor states")
    state = np.zeros(merged.n_states)  # the merged state stays 0
    mu = state[: kept.size]
    mu[:] = 1.0 / kept.size
    for it in range(STATIONARY_MAX_ITER):
        nxt = (merged.operator @ state)[: kept.size]
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
        np.divide(nxt, theta, out=mu)
    raise RuntimeError(
        f"QSD iteration did not reach residual {STATIONARY_TOL} in {STATIONARY_MAX_ITER} steps"
    )


def iota_first_order(params: DbmParams) -> float:
    """Leading-order escape rate lambda * alpha * log(n)."""
    return params.lam * params.alpha * math.log(params.n)


def mixing_time_estimate(
    merged: MergedKernel,
    cap: int,
    k: int | None = WITNESS_CANDIDATES,
) -> tuple[int, np.ndarray]:
    """Smallest t with worst-start TV(P~^t(x, .), pi~) <= 1/(2e), and its starts.

    Every state is a start when ``walk.every_state_starts``; otherwise the
    starts are the merged gate state and the ``collision_witnesses`` among
    the k lowest merged out-degrees (nonzeros of a row of P~), the merged
    state left out.  Those starts found the exhaustive t on every measured
    draw (README, "Escape mixing time"), but they do not certify it: t is
    then a lower estimate.  The starts come back as sorted merged states,
    the merged state last; they are every state exactly when their count is
    ``merged.n_states``.

    The starts are stepped in dense blocks of START_BLOCK to
    2 START_BLOCK - 1 columns (one block when there are fewer), never a
    lone column: numpy sums a lone column pairwise but a wider block row
    by row, so each column's TV is, bit for bit, that of stepping every
    start as one block.  A block's first step is its columns of P~^T (its
    point masses' product, bit for bit), ``walk.propagate`` takes the rest,
    and it stops at its first step whose worst TV is at most 1/(2e).  pi~
    is stationary, so TV from a fixed start never rises, and the largest
    of those steps is the t of all the starts.
    """
    ns, operator = merged.n_states, merged.operator
    if every_state_starts(ns, k):
        starts = np.arange(ns)
    else:
        degree = np.bincount(operator.indices, minlength=ns)[: merged.merged_index]
        witnesses = np.sort(collision_witnesses(operator, degree, k))
        starts = np.append(witnesses, merged.merged_index)
    pi = merged.pi_tilde.values
    t_mix = 0
    for cols in np.array_split(starts, max(1, starts.size // START_BLOCK)):
        first = operator[:, cols].toarray()
        for t, block in enumerate(propagate(operator, first, range(cap)), start=1):
            if 0.5 * np.abs(block - pi[:, None]).sum(axis=0).max() <= MIX_THRESHOLD:
                t_mix = max(t_mix, t)
                break
        else:
            raise RuntimeError(f"merged kernel did not mix within the cap of {cap} steps")
    return t_mix, starts


@dataclass(frozen=True)
class ReturnMass:
    """Returns to the merged gate state d.

    ``r_tilde`` is one plus the clamped excess of the return probability
    over pi~(d) to ``t_horizon``: >= 1, near 1 when gates are spread out.
    ``z``, the unclamped sum over ``steps``, is Z~_dd within ``bound``.
    """

    r_tilde: float
    t_horizon: int
    z: float
    bound: float
    steps: int


def return_mass(merged: MergedKernel, t_mix: int) -> ReturnMass:
    """Return mass of the merged gate state d, and Z~_dd = sum_t (P~^t - Pi~)_dd.

    Both sums step d's column of P~^T to the horizon H = t_mix log(1 /
    min pi~), when every start has equilibrated to precision min pi~, and
    on to the first t >= H whose tail bound (README, "Hitting-time oracle")
    is at most HITTING_ORACLE_RTOL z; they raise after H + t_mix log(1 /
    RTOL) steps, as when pi~ is not stationary.
    """
    pi = merged.pi_tilde.values
    horizon = int(math.ceil(t_mix * math.log(1.0 / float(pi.min()))))
    cap = horizon + math.ceil(t_mix * math.log(1.0 / HITTING_ORACLE_RTOL))
    d = merged.merged_index
    level = float(pi[d])
    first = merged.operator[:, [d]].toarray()[:, 0]
    excess, z = 0.0, 1.0 - level
    for t, mu in enumerate(propagate(merged.operator, first, range(cap)), start=1):
        z += float(mu[d]) - level
        if t <= horizon:
            excess += max(float(mu[d]) - level, 0.0)
        if t >= horizon:
            bound = 0.5 * (t_mix - 1 + t_mix / (math.e - 1)) * float(np.abs(mu - pi).sum())
            if bound <= HITTING_ORACLE_RTOL * z:
                return ReturnMass(1.0 + excess, horizon, z, bound, t)
    raise RuntimeError(f"return sum not within {HITTING_ORACLE_RTOL} after {cap} steps")


@dataclass(frozen=True)
class HittingEstimate:
    """Return-mass estimate of the stationary gate hitting time, and its oracle."""

    estimate: float
    oracle: float


def hitting_time_estimates(view: CommunityView, mass: ReturnMass) -> HittingEstimate:
    """E_pi[tau_gate] = E_pi~[tau_d]: estimated as r_tilde / pi~(d), exactly z / pi~(d)."""
    return HittingEstimate(mass.r_tilde / view.gate_mass, mass.z / view.gate_mass)


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


def _reentry_law(view: CommunityView, solution: QsdSolution) -> np.ndarray:
    """mu* P: the law of the restart walk one step after its QSD start or a gate visit."""
    return transition_operator(view.local) @ solution.mu_star.values


def restart_rate(view: CommunityView, solution: QsdSolution) -> float:
    """Success probability q of every restart-walk step: tau_rho ~ Geometric(q).

    Until the first success the walk stands at mu* off the gates, since
    mu* S = (1 - iota) mu*, or re-enters after a gate, so each step lands
    by ``_reentry_law`` whatever came before: on gate g with probability
    (mu* P)(g), where the coin succeeds with g's rewired-edge fraction.
    So q = sum_g (mu* P)(g) d_rewired(g) / deg(g), summed by numpy, not by
    a BLAS dot, so that q does not depend on the BLAS thread count.
    """
    return float((_reentry_law(view, solution) * view.d_rewired / view.local.out_degree).sum())


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


def _cdf_sampler(weights: np.ndarray):
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]

    def draw(uniforms: _UniformStream, k: int) -> np.ndarray:
        return np.searchsorted(cdf, uniforms.random(k), side="right")

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
    walkers are stepped; each step with gate visits records its visitors
    and their gaps since their ``last`` visit; a finished run's tau_rho is
    its last visit.  Runs are censored at 100/iota steps.  The start draw,
    then at each step the re-init, step and coin draws, read one
    ``walk._UniformStream`` of the walk's own generator, in that order.
    """
    cap = int(math.ceil(100.0 / max(solution.iota, 1e-12)))
    uniforms = _UniformStream(derived_rng(seed, NS_RESTART, view.i))
    coin_p = view.d_rewired / view.local.out_degree
    draw_start = _cdf_sampler(solution.mu_star.values)
    draw_reinit = _cdf_sampler(_reentry_law(view, solution))

    alive = np.arange(reps)
    pos = draw_start(uniforms, reps)
    at_gate = np.zeros(reps, dtype=bool)
    gated = 0  # walkers at a gate, carried over from the last step's hits
    last = np.zeros(reps, dtype=np.int64)  # each walker's last gate-visit time
    # empty first entries keep the records defined when no walker visits a gate (reps = 0)
    visitors, gaps = [alive[:0]], [last[:0]]
    for t in range(1, cap + 1):
        # the walkers at a gate re-init, then the others step; a step
        # without gate walkers draws no re-init doubles, as rng.random(0)
        if gated:
            nxt = np.empty_like(pos)
            nxt[at_gate] = draw_reinit(uniforms, gated)
            moving = ~at_gate
            nxt[moving] = _step_walkers(view.local, pos[moving], uniforms)[0]
        else:
            nxt = _step_walkers(view.local, pos, uniforms)[0]
        at_gate = view.gate_mask[nxt]
        hits = np.flatnonzero(at_gate)
        pos, gated = nxt, hits.size
        if gated == 0:
            continue
        ids = alive[hits]
        visitors.append(ids)
        gaps.append(t - last[ids])
        last[ids] = t
        stop = hits[uniforms.random(gated) < coin_p[nxt[hits]]]
        if stop.size:
            keep = np.ones(alive.size, dtype=bool)
            keep[stop] = False
            alive, pos, at_gate = alive[keep], nxt[keep], at_gate[keep]
            gated -= stop.size  # every stopped walker was at a gate
            if alive.size == 0:
                break

    # the walkers still running at the cap are the censored ones
    censored = np.zeros(reps, dtype=bool)
    censored[alive] = True
    ids = np.concatenate(visitors)
    order = np.argsort(ids, kind="stable")
    sigma = np.concatenate(gaps)[order]
    bounds = np.searchsorted(ids[order], np.arange(reps + 1))
    return [
        RestartSample(None if censored[r] else int(last[r]), sigma[bounds[r] : bounds[r + 1]])
        for r in range(reps)
    ]
