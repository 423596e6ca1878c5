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
from scipy.sparse import bmat, csr_matrix, identity
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve

from .graph import DbmParams, DegreeTable, Digraph, gates, pre_rewiring_subgraph
from .rng import NS_RESTART, derived_rng
from .walk import (
    ProbVector,
    _step_walkers,
    local_stationary,
    propagate,
    select_starts,
    transition_operator,
)

MIX_THRESHOLD = 1.0 / (2.0 * math.e)
QSD_STABLE_TOL = 1e-13
QSD_STABLE_RUN = 50
QSD_MAX_ITER = 10**5
HITTING_ORACLE_LIMIT = 2000  # largest community with an exact hitting time


@dataclass
class CommunityView:
    """Shared per-community working set: local graph, gates, pi.

    The kernel is ``transition_operator(local)``; ``survivor``, its
    restriction to the ``kept`` non-gate labels, is built once, so the
    gates must not change after it is first read.
    """

    i: int
    local: Digraph
    gate_labels: np.ndarray
    gate_mask: np.ndarray
    pi_local: ProbVector
    d_out_full: np.ndarray  # DBM out-degrees of this community's vertices
    d_rewired: np.ndarray

    @property
    def n(self) -> int:
        return self.local.n

    @property
    def gate_mass(self) -> float:
        return float(self.pi_local.values[self.gate_mask].sum())

    @property
    def kernel(self):
        """Row-stochastic walk kernel P (rows = sources), a view of P^T."""
        return transition_operator(self.local).T

    @property
    def kept(self) -> np.ndarray:
        return np.flatnonzero(~self.gate_mask)

    @cached_property
    def survivor(self) -> csr_matrix:
        return transition_operator(self.local)[self.kept][:, self.kept]


def community_view(graph: Digraph, table: DegreeTable, i: int) -> CommunityView:
    """Assemble the per-community objects used by every routine here.

    ``local`` is the graph's cached pre-rewiring subgraph and
    ``pi_local`` its ``local_stationary`` solve, so the subgraph, its
    connectivity check and its kernel are built once per graph.  A
    community without gates, from which the walk never escapes, is
    refused, as is one that is not strongly connected.
    """
    gate_labels = gates(graph, table, i) - i * graph.n
    if gate_labels.size == 0:
        raise ValueError(f"community {i} has no rewired out-edge, so no gate to escape by")
    mask = np.zeros(graph.n, dtype=bool)
    mask[gate_labels] = True
    pi_local = local_stationary(graph, i)
    lo, hi = i * graph.n, (i + 1) * graph.n
    view = CommunityView(
        i=i,
        local=pre_rewiring_subgraph(graph, i),
        gate_labels=gate_labels,
        gate_mask=mask,
        pi_local=pi_local,
        d_out_full=table.d_out[lo:hi],
        d_rewired=table.d_rewired_out[lo:hi],
    )
    view.survivor  # build the community kernel here, where it is traced
    return view


@dataclass
class MergedKernel:
    """Community kernel with all gates collapsed into one state.

    States are the non-gate labels (in ``kept`` order) followed by the
    merged gate state at index ``len(kept)``; ``operator`` is the
    transposed kernel P~^T.  ``pi_tilde`` restricts the community
    stationary distribution to the kept states and assigns the full gate
    mass to the merged state; it is exactly stationary.
    """

    operator: csr_matrix
    kept: np.ndarray
    pi_tilde: ProbVector

    @property
    def n_states(self) -> int:
        return int(self.operator.shape[0])

    @property
    def merged_index(self) -> int:
        return int(self.kept.shape[0])


def build_merged_kernel(view: CommunityView) -> MergedKernel:
    pt = transition_operator(view.local)
    kept = view.kept
    gate = view.gate_labels
    pi = view.pi_local.values
    w = pi[gate] / pi[gate].sum()  # entry distribution into the merged state

    # column v holds P(v, g) over the gates g; a CSC column sum adds them
    # in the order a row sum of P would
    into_gate = pt[gate].tocsc()
    to_gate = np.asarray(into_gate[:, kept].sum(axis=0)).ravel()
    from_gate = pt[kept][:, gate] @ w
    dd = float(w @ np.asarray(into_gate[:, gate].sum(axis=0)).ravel())

    operator = bmat(
        [
            [view.survivor, csr_matrix(from_gate[:, None])],
            [csr_matrix(to_gate[None, :]), np.array([[dd]])],
        ],
        format="csr",
    )
    values = np.concatenate([pi[kept], [pi[gate].sum()]])
    pi_tilde = ProbVector(values, f"merged:{view.i}")
    return MergedKernel(operator=operator, kept=kept, pi_tilde=pi_tilde)


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
    reducible: bool
    residual: float


def quasi_stationary(view: CommunityView) -> QsdSolution:
    """Power iteration for the QSD of the walk killed at the gates."""
    kept = view.kept
    if kept.size == 0:
        raise ValueError("every vertex is a gate; no survivor states")
    sub = view.survivor
    ncomp, _ = connected_components(sub, directed=True, connection="strong")
    reducible = ncomp > 1

    mu = np.full(kept.size, 1.0 / kept.size)
    theta_prev = -1.0
    stable = 0
    iterations = 0
    for iterations in range(1, QSD_MAX_ITER + 1):
        nxt = sub @ mu
        theta = float(nxt.sum())
        if theta <= 0.0:
            raise RuntimeError("survivor kernel lost all mass; no QSD")
        mu = nxt / theta
        if abs(theta - theta_prev) < QSD_STABLE_TOL:
            stable += 1
            if stable >= QSD_STABLE_RUN:
                break
        else:
            stable = 0
        theta_prev = theta
    else:
        raise RuntimeError(
            f"QSD iteration did not stabilize in {QSD_MAX_ITER} steps"
            + (" (survivor kernel is reducible)" if reducible else "")
        )

    residual = float(np.abs(sub @ mu - theta * mu).sum())
    full = np.zeros(view.n)
    full[kept] = mu
    return QsdSolution(
        mu_star=ProbVector(full, f"community:{view.i}"),
        iota=1.0 - theta,
        iterations=iterations,
        reducible=reducible,
        residual=residual,
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
    merged: MergedKernel, cap: int, rng: np.random.Generator | None = None
) -> tuple[int, bool]:
    """Smallest t with worst-start TV(P~^t(x, .), pi~) <= 1/(2e).

    The starts follow ``walk.select_starts`` with the merged gate state
    as witness: every state on a small merged space, otherwise a sample
    drawn from ``rng``, which makes the result a lower estimate (flagged
    by the returned bool = False).
    """
    ns = merged.n_states
    starts = select_starts(ns, rng, witnesses=[merged.merged_index])
    cols = np.zeros((ns, starts.size))
    cols[starts, np.arange(starts.size)] = 1.0
    ref = merged.pi_tilde.values[:, None]
    stepped = propagate(merged.operator, cols, range(1, cap + 1))
    for t, cols in enumerate(stepped, start=1):
        if 0.5 * np.abs(cols - ref).sum(axis=0).max() <= MIX_THRESHOLD:
            return t, starts.size == ns
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
    gate_mass: float


def hitting_time_estimates(view: CommunityView, mass: ReturnMass) -> HittingEstimate:
    """Estimate E_pi[tau_gate] as r_tilde / pi~(gate state).

    On small communities the exact value is solved from the linear
    system h = 1 + [P]h on non-gate states (gates contribute 0) and
    averaged under pi.
    """
    gate_mass = view.gate_mass
    estimate = mass.r_tilde / gate_mass
    oracle = None
    if view.n <= HITTING_ORACLE_LIMIT:
        kept = view.kept
        # I - P on the kept states, as CSR (the survivor operator is P^T)
        i_minus_p = identity(kept.size, format="csr") - view.survivor.T
        h = spsolve(i_minus_p, np.ones(kept.size))
        oracle = float((view.pi_local.values[kept] * h).sum())
    return HittingEstimate(estimate=estimate, oracle=oracle, gate_mass=gate_mass)


@dataclass(frozen=True)
class NiceGates:
    """Gates split by edge multiplicity and degree regularity.

    A gate is nice when it owns exactly one rewired edge and its full
    out-degree sits within (1 +- eps) lambda log(n); gates with two or
    more rewired edges are bad.
    """

    nice_labels: np.ndarray
    bad_labels: np.ndarray
    fraction_nice: float
    epsilon: float


def nice_gates(
    graph: Digraph, view: CommunityView, epsilon: float | None = None
) -> NiceGates:
    if graph.params is None:
        raise ValueError("needs model parameters")
    n = graph.n
    if epsilon is None:
        epsilon = 1.0 / math.sqrt(math.log(n))
    target = graph.params.lam * math.log(n)
    gate = view.gate_labels
    rew = view.d_rewired[gate]
    deg = view.d_out_full[gate]
    in_window = (deg >= (1 - epsilon) * target) & (deg <= (1 + epsilon) * target)
    nice = (rew == 1) & in_window
    bad = rew >= 2
    return NiceGates(
        nice_labels=gate[nice],
        bad_labels=gate[bad],
        fraction_nice=float(nice.mean()) if gate.size else 0.0,
        epsilon=float(epsilon),
    )


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
    kappa_final: int
    rho_final: int


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

    Every gate visit increments kappa and tosses a coin with success
    probability (rewired out-degree / full out-degree) of the visited
    gate; the walk restarts from (QSD one step forward) after each
    visit.  Runs are censored at 100/iota steps.
    """
    cap = int(math.ceil(100.0 / max(solution.iota, 1e-12)))
    rng = derived_rng(seed, NS_RESTART, view.i)
    local = view.local
    gate_mask = view.gate_mask
    coin_p = np.zeros(view.n)
    nz = view.d_out_full > 0
    coin_p[nz] = view.d_rewired[nz] / view.d_out_full[nz]

    draw_start = _cdf_sampler(solution.mu_star.values)
    reinit_weights = transition_operator(view.local) @ solution.mu_star.values
    draw_reinit = _cdf_sampler(reinit_weights)

    pos = draw_start(rng, reps)
    was_at_gate = np.zeros(reps, dtype=bool)  # gate visit at current time
    alive = np.ones(reps, dtype=bool)
    kappa = np.zeros(reps, dtype=np.int64)
    last_visit = np.zeros(reps, dtype=np.int64)
    tau = np.full(reps, -1, dtype=np.int64)
    gaps: list[tuple[np.ndarray, np.ndarray]] = []

    for t in range(1, cap + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        cur = pos[idx]
        from_gate = was_at_gate[idx]
        nxt = np.empty(idx.size, dtype=np.int64)
        if from_gate.any():
            nxt[from_gate] = draw_reinit(rng, int(from_gate.sum()))
        walkers = ~from_gate
        if walkers.any():
            stepped, _ = _step_walkers(local, cur[walkers], rng)
            nxt[walkers] = stepped
        pos[idx] = nxt

        hit = gate_mask[nxt]
        was_at_gate[idx] = hit
        if hit.any():
            hit_idx = idx[hit]
            kappa[hit_idx] += 1
            gaps.append((hit_idx, t - last_visit[hit_idx]))
            last_visit[hit_idx] = t
            success = rng.random(hit_idx.size) < coin_p[nxt[hit]]
            if success.any():
                done = hit_idx[success]
                tau[done] = t
                alive[done] = False

    rep_ids = (
        np.concatenate([g[0] for g in gaps]) if gaps else np.empty(0, np.int64)
    )
    gap_vals = (
        np.concatenate([g[1] for g in gaps]) if gaps else np.empty(0, np.int64)
    )
    order = np.argsort(rep_ids, kind="stable")
    rep_ids, gap_vals = rep_ids[order], gap_vals[order]
    bounds = np.searchsorted(rep_ids, np.arange(reps + 1))

    out = []
    for r in range(reps):
        sigma = gap_vals[bounds[r] : bounds[r + 1]]
        censored = tau[r] < 0
        out.append(
            RestartSample(
                tau_rho=None if censored else int(tau[r]),
                sigma_list=sigma,
                kappa_final=int(kappa[r]),
                rho_final=0 if censored else 1,
            )
        )
    return out
