"""Walks on a graph revealed edge-by-edge alongside the walker.

No DBM graph is sampled first: out-edges are revealed one slot at a time
as the walk uses them.  The first departure from a vertex draws its
degree d ~ Binomial(n-1, p), a slot uniform in [0, d) and that slot's
edge: a uniform label among the n-1 others and a rewiring coin, as the
quenched generator would.  A later departure draws a slot uniform in
[0, d) again: a revealed slot keeps its edge, a new one gets a label
distinct from those already revealed there.  This is the exploration
coupling of Bordenave, Caputo and Salez (PTRF 2018): averaging the
quenched path law over graphs gives exactly this walk's path law.  A
walker's path, degrees and slots are its whole revealed environment, so
all replicates step together as arrays.

Short-horizon identities (community marginals, jump survival) hold up
to corrections driven by the revisit probability, which is small while
t^2 is small against n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import DbmParams
from .meanfield import q_power_matrix
from .rng import NS_ANNEALED, derived_rng

# Hard validity guard for the short-time laws; the useful window is much
# earlier (t of order sqrt(n) already sees revisit corrections).
T_GUARD_FACTOR = 10.0


@dataclass(frozen=True)
class AnnealedWalks:
    """``reps`` revealed-graph walks of t steps from one start.

    ``path[r]`` holds X_0..X_t, padded with -1 after ``steps[r]`` when
    the walk got stuck on a zero-out-degree reveal (``stuck[r]``).
    ``cycle_free`` means no vertex was visited twice; ``jump_time`` is
    the 1-based step that first traversed a rewired edge, t + 1 if none.
    """

    path: np.ndarray
    steps: np.ndarray
    stuck: np.ndarray
    cycle_free: np.ndarray
    jump_time: np.ndarray


def annealed_walks(
    params: DbmParams, start: int, t: int, reps: int, rng: np.random.Generator
) -> AnnealedWalks:
    """Run ``reps`` independent t-step walks, each on its own revealed graph.

    Each step draws, in this order: the degrees of the vertices left for
    the first time, one slot per moving walker, labels for the slots not
    revealed before (rejection rounds until each differs from the labels
    already revealed at its vertex), their rewiring coins, and the
    communities of the rewired ones.
    """
    n, m, alpha = params.n, params.m, params.alpha
    path = np.full((reps, t + 1), -1, dtype=np.int64)
    path[:, 0] = start
    deg, slot = np.zeros((2, reps, t), dtype=np.int64)  # at step s: d(X_{s-1}), slot
    stuck = np.zeros(reps, dtype=bool)
    for s in range(1, t + 1):
        cur = path[:, s - 1]
        left = path[:, :s] == cur[:, None]  # earlier departures from X_{s-1}
        left[:, -1] = False
        seen = ~stuck & left.any(axis=1)
        d = np.where(seen, deg[np.arange(reps), left.argmax(axis=1)], 0)
        fresh = np.flatnonzero(~stuck & ~seen)
        d[fresh] = rng.binomial(n - 1, params.p, size=fresh.size)
        stuck |= d == 0
        go = np.flatnonzero(~stuck)
        deg[go, s - 1] = d[go]
        slot[go, s - 1] = rng.integers(0, d[go])
        back = np.flatnonzero(seen)
        same = left[back] & (slot[back, :s] == slot[back, s - 1, None])
        found = same.any(axis=1)
        hit, first = back[found], same.argmax(axis=1)[found]
        path[hit, s] = path[hit, first + 1]  # a revealed slot keeps its edge
        new = go[path[go, s] < 0]
        src = cur[new]
        label = rng.integers(0, n - 1, size=new.size)
        label += label >= src % n  # skip self
        todo = np.flatnonzero(seen[new])
        used = np.where(left[new[todo]], path[new[todo], 1 : s + 1] % n, -1)
        while (clash := (used == label[todo, None]).any(axis=1)).any():
            todo, used = todo[clash], used[clash]
            label[todo] = rng.integers(0, n - 1, size=todo.size)
            label[todo] += label[todo] >= src[todo] % n
        coin = rng.random(new.size) < alpha
        comm = src // n
        off = rng.integers(0, m - 1, size=int(coin.sum()))
        comm[coin] = off + (off >= comm[coin])
        path[new, s] = comm * n + label
    steps = (path >= 0).sum(axis=1) - 1
    ordered = np.sort(path, axis=1)
    repeat = (ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)
    # a rewired edge, and only a rewired one, leaves the community
    cross = (path[:, 1:] >= 0) & (path[:, 1:] // n != path[:, :-1] // n)
    jump_time = np.where(cross.any(axis=1), cross.argmax(axis=1) + 1, t + 1)
    return AnnealedWalks(path, steps, stuck, ~repeat.any(axis=1), jump_time)


@dataclass(frozen=True)
class AnnealedResult:
    """One row of :class:`AnnealedWalks`, unpadded; no jump is None."""

    vertices: np.ndarray
    cycle_free: bool
    jump_time: int | None
    stuck: bool


def annealed_walk(
    params: DbmParams, start: int, t: int, rng: np.random.Generator
) -> AnnealedResult:
    """Run one t-step walk on a graph revealed as it is explored."""
    w = annealed_walks(params, start, t, 1, rng)
    tau = int(w.jump_time[0])
    return AnnealedResult(
        vertices=w.path[0, : w.steps[0] + 1],
        cycle_free=bool(w.cycle_free[0]),
        jump_time=tau if tau <= t else None,
        stuck=bool(w.stuck[0]),
    )


def _check_horizon(params: DbmParams, t: int) -> None:
    cap = T_GUARD_FACTOR * math.sqrt(params.n)
    if t > cap:
        raise ValueError(
            f"horizon {t} is far outside the short-time window (cap {cap:.0f} "
            f"for n={params.n}); the identities checked here need t^2 << n"
        )


@dataclass(frozen=True)
class CommunityLaw:
    """Monte Carlo community marginal of the revealed walk at time t.

    ``joint`` estimates P(X_t in community i, no revisit by t); the
    ``conditional`` row renormalizes within the no-revisit runs, which
    cancels the common revisit deficit when comparing to the community
    mean-field row ``q_row``.  The ``stuck`` runs, which hit a
    zero-out-degree reveal, count as failures next to the revisiting ones.
    """

    t: int
    start: int
    joint: np.ndarray
    joint_se: np.ndarray
    conditional: np.ndarray
    conditional_se: np.ndarray
    q_row: np.ndarray
    cycle_free_rate: float
    stuck: int
    reps: int


def annealed_community_law(
    params: DbmParams, start: int, t: int, reps: int, seed: int
) -> CommunityLaw:
    """Estimate where the revealed walk sits at time t, community-wise."""
    _check_horizon(params, t)
    walks = annealed_walks(params, start, t, reps, derived_rng(seed, NS_ANNEALED, 0))
    m = params.m
    ok = walks.cycle_free & ~walks.stuck
    n_cf = int(ok.sum())
    if n_cf == 0:
        raise RuntimeError("no cycle-free runs; horizon too long for this n")
    counts = np.bincount(walks.path[ok, t] // params.n, minlength=m)
    joint = counts / reps
    joint_se = np.sqrt(np.maximum(joint * (1 - joint), 1e-300) / reps)
    cond = counts / n_cf
    cond_se = np.sqrt(np.maximum(cond * (1 - cond), 1e-300) / n_cf)
    q_row = q_power_matrix(m, params.alpha, t)[start // params.n]
    return CommunityLaw(
        t=t,
        start=start,
        joint=joint,
        joint_se=joint_se,
        conditional=cond,
        conditional_se=cond_se,
        q_row=q_row,
        cycle_free_rate=n_cf / reps,
        stuck=int(walks.stuck.sum()),
        reps=reps,
    )


@dataclass(frozen=True)
class JumpSurvival:
    """Empirical survival of the first rewired-edge time.

    A ``stuck`` walk that had not jumped yet counts as surviving to the
    horizon; ``stuck`` says how many walks that concerns at most.
    """

    times: np.ndarray
    survival: np.ndarray
    stderr: np.ndarray
    theory: np.ndarray
    stuck: int
    reps: int


def annealed_jump_survival(params: DbmParams, t_max: int, reps: int, seed: int) -> JumpSurvival:
    """Estimate P(tau_jump > t) for t = 0..t_max on the revealed walk from vertex 0.

    Freshly revealed steps jump independently with probability alpha, so
    the reference curve is (1 - alpha)^t; revisited edges introduce the
    usual short-horizon corrections.
    """
    _check_horizon(params, t_max)
    rng = derived_rng(seed, NS_ANNEALED, 1)
    walks = annealed_walks(params, 0, t_max, reps, rng)
    # #{tau > t} = reps - #{tau <= t}; tau = t_max + 1 means no jump
    jumped_by = np.cumsum(np.bincount(walks.jump_time, minlength=t_max + 2))
    survival = (reps - jumped_by[: t_max + 1]) / reps
    stderr = np.sqrt(np.maximum(survival * (1 - survival), 1e-300) / reps)
    times = np.arange(t_max + 1)
    theory = (1.0 - params.alpha) ** times
    return JumpSurvival(
        times=times,
        survival=survival,
        stderr=stderr,
        theory=theory,
        stuck=int(walks.stuck.sum()),
        reps=reps,
    )
