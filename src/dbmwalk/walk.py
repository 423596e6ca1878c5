"""Simple random walk machinery on DBM graphs.

Distributions are row vectors evolved by mu -> mu P where P(x, y) =
1/deg_out(x) on every edge (x, y).  The transition operator is kept as a
cached scipy CSR matrix (transposed, so evolution is a CSR matvec), and
it is the only code that forms 1/deg_out.  All samplers draw from
explicit generators or derived streams.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .graph import Digraph, pre_rewiring_subgraph
from .rng import NS_TRAJECTORY, derived_rng

STATIONARY_TOL = 1e-12
STATIONARY_MAX_ITER = 10**6
PROFILE_CHECKPOINT = 32  # first step at which a profile block may be compressed
PROFILE_COMPRESS_TOL = 1e-12  # max L1 residual of a compressed start column
START_STATE_LIMIT = 2000  # largest state space whose worst start is exact
SAMPLED_STARTS = 64  # starts drawn on a larger space unless k is None


@dataclass(frozen=True)
class ProbVector:
    """A probability distribution over a vertex domain.

    ``domain`` is "global" for the full vertex set or "community:<i>" for
    a single community indexed by labels 0..n-1.  A solved vector also
    carries the solver's ``iterations`` and final ``residual``.
    """

    values: np.ndarray
    domain: str = "global"
    flags: tuple = ()  # always empty; the benchmark's stationary hook still reads it
    iterations: int = 0
    residual: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=np.float64)
        )

    @property
    def size(self) -> int:
        return int(self.values.shape[0])

    def check(self) -> None:
        if np.any(self.values < -1e-15):
            raise AssertionError("negative probability entry")
        s = float(self.values.sum())
        if abs(s - 1.0) > 1e-12:
            raise AssertionError(f"probabilities sum to {s}, not 1")


@dataclass(frozen=True)
class EntropyResult:
    """Empirical mean log out-degree and the derived time scale."""

    h: float
    t_ent: float


@dataclass
class MixingProfile:
    """Total-variation distance to a reference at recorded times.

    ``col_steps`` counts the column-steps of the sparse product actually
    taken.  When the start block was compressed, ``checkpoint`` is the
    step at which it happened, ``rank`` the number r of basis columns B,
    ``step_matrix`` the r x r matrix C of the mean-field tail that formed
    every later column as B C^s a_x, and ``tv_bound`` the certified bound
    on how far any later value may lie from the uncompressed one in exact
    arithmetic; the rounding of the two stepped paths, up to t gamma_d in
    L1 for t steps of length-d dot products (Higham 2002, sec. 3.1), is
    not in it.  When every start was stepped to the end they are None,
    None, None and 0.0.
    """

    times: np.ndarray
    per_start: np.ndarray  # shape (n_starts, n_times)
    col_steps: int
    checkpoint: int | None = None
    rank: int | None = None
    tv_bound: float = 0.0
    step_matrix: np.ndarray | None = None

    @property
    def distances(self) -> np.ndarray:
        """Worst-start distance at each time."""
        return self.per_start.max(axis=0)

    @property
    def tail_spectrum(self) -> list[float] | None:
        """Moduli of the tail matrix's eigenvalues, largest first."""
        if self.step_matrix is None:
            return None
        moduli = np.abs(np.linalg.eigvals(self.step_matrix))
        return sorted((float(v) for v in moduli), reverse=True)


def transition_operator(graph: Digraph) -> csr_matrix:
    """Transposed walk kernel P^T as CSR (cached on the graph).

    The one place out-degrees become step probabilities.  A graph with a
    sink is refused, since its kernel loses the mass that reaches it.
    """
    if "PT" not in graph._cache:
        n = graph.vertex_count
        deg = graph.out_degree
        sinks = np.flatnonzero(deg == 0)
        if sinks.size:
            raise ValueError(f"walk kernel loses mass at sink vertex {int(sinks[0])}")
        src = graph.sources()
        data = 1.0 / deg[src]
        pt = csr_matrix((data, (graph.targets, src)), shape=(n, n))
        graph._cache["PT"] = pt
    return graph._cache["PT"]


def propagate(
    operator: csr_matrix, columns: np.ndarray, times: Iterable[int]
) -> Iterator[np.ndarray]:
    """Yield ``operator^t @ columns`` at each of the sorted ``times``.

    The one loop that applies a kernel to a block of columns: P^T for
    global or community distributions, the survivor or merged-gate
    operator for the escape pipeline.  Lazy, so a caller may stop early.
    """
    now = 0
    for t in times:
        for _ in range(t - now):
            columns = operator @ columns
        now = t
        yield columns


def stationary(graph: Digraph, domain: str = "global") -> ProbVector:
    """Stationary distribution by lazy power iteration with aggregation.

    Iterates mu <- (mu + mu P) / 2 from uniform until the plain-kernel
    residual ||mu P - mu||_1 drops below STATIONARY_TOL.  With m > 1 communities
    each step is followed by an aggregation-disaggregation step: the
    m-state coupling chain A[c, d] = sum_{v in c} (mu_v / w_c) P(v, d),
    w_c the mass of community c, is solved exactly and each community
    block of mu is rescaled to its mass xi_c.  This removes the slow
    inter-community mode (rate ~ alpha m / (m - 1)), so the iteration
    converges at the within-community rate (Koury-McAllister-Stewart;
    Stewart 1994, sec. 6.3).  With m = 1 it is the plain lazy iteration.
    The result carries the iteration count and the final residual.  A
    graph that is not strongly connected has no unique stationary
    distribution and is refused.
    """
    n = graph.vertex_count
    if not graph.is_strongly_connected():
        raise ValueError(f"{domain} graph is not strongly connected")
    pt = transition_operator(graph)
    mu = np.full(n, 1.0 / n)
    m = graph.m
    if m > 1:
        # P(v, d): each vertex's one-step probability into each community
        labels = np.arange(n)
        indicator = csr_matrix((np.ones(n), (labels // graph.n, labels)), shape=(m, n))
        to_block = np.ascontiguousarray((indicator @ pt).toarray().T).reshape(m, graph.n, m)
    for it in range(STATIONARY_MAX_ITER):
        stepped = pt @ mu
        residual = float(np.abs(stepped - mu).sum())
        if residual < STATIONARY_TOL:
            return ProbVector(mu, domain, iterations=it, residual=residual)
        mu = 0.5 * (mu + stepped)
        if m > 1:
            blocks = mu.reshape(m, graph.n)
            w = blocks.sum(axis=1)
            coupling = np.einsum("cv,cvd->cd", blocks, to_block) / w[:, None]
            xi = _chain_stationary(coupling)
            mu = (blocks * (xi / w)[:, None]).ravel()
    raise RuntimeError(
        f"stationary iteration did not reach residual {STATIONARY_TOL} "
        f"in {STATIONARY_MAX_ITER} steps"
    )


def _chain_stationary(a: np.ndarray) -> np.ndarray:
    """Stationary vector of a small dense stochastic matrix.

    The diagonal of A - I is set to minus the off-diagonal row sums, so a
    weakly coupled chain (A close to I) loses no digits to cancellation.
    """
    gen = a - np.diag(np.diag(a))
    gen -= np.diag(gen.sum(axis=1))
    lhs = gen.T
    lhs[-1, :] = 1.0
    rhs = np.zeros(a.shape[0])
    rhs[-1] = 1.0
    return np.linalg.solve(lhs, rhs)


def local_stationary(graph: Digraph, i: int) -> ProbVector:
    """Stationary distribution of community i's pre-rewiring graph.

    Solved on the graph's cached subgraph, whose connectivity answer and
    kernel the escape pipeline then reuses.
    """
    return stationary(pre_rewiring_subgraph(graph, i), domain=f"community:{i}")


def tv_distance(a: ProbVector, b: ProbVector) -> float:
    if a.domain != b.domain or a.size != b.size:
        raise ValueError(f"domain mismatch: {a.domain} vs {b.domain}")
    return 0.5 * float(np.abs(a.values - b.values).sum())


def community_mass(graph: Digraph, mu: ProbVector) -> np.ndarray:
    """Mass of each community under a global distribution."""
    if mu.domain != "global":
        raise ValueError("community_mass expects a global distribution")
    return mu.values.reshape(graph.m, graph.n).sum(axis=1)


def indegree_approximation(graph: Digraph, i: int, pi_local: ProbVector) -> np.ndarray:
    """Relative error |proxy/pi_i - 1| of the in-degree proxy for pi_i.

    The proxy is pre-rewiring in-degree / (p*n^2), whose scale error vs
    pi_i is part of the statement.  One entry per vertex of nonzero
    in-degree, in label order.
    """
    if graph.params is None:
        raise ValueError("needs model parameters for the p*n^2 scale")
    if pi_local.domain != f"community:{i}":
        raise ValueError("reference must live on the same community")
    n = graph.n
    in_degree = np.bincount(pre_rewiring_subgraph(graph, i).targets, minlength=n)
    raw = in_degree / (graph.params.p * n * n)
    keep = raw > 0.0
    return np.abs(raw[keep] / pi_local.values[keep] - 1.0)


def entropy_and_entropic_time(graph: Digraph) -> EntropyResult:
    """Mean log out-degree H and the time scale log(n)/H, n the community width.

    H averages log(deg v 1) over all vertices; the exact Binomial(n-1, p)
    expectation is ``experiments.analytic_entropic_time``.
    """
    h = float(np.log(np.maximum(graph.out_degree, 1)).mean())
    if h <= 0.0:
        raise ValueError("mean log out-degree is zero; no entropic time scale")
    return EntropyResult(h=h, t_ent=math.log(graph.n) / h)


def select_starts(
    size: int,
    rng: np.random.Generator | None,
    k: int | None = SAMPLED_STARTS,
    witnesses: Iterable[int] = (),
) -> np.ndarray:
    """Start states, sorted and distinct, for a worst-start maximum.

    Every one of the ``size`` states when ``k`` is None or there are at
    most START_STATE_LIMIT, whatever ``k`` is: a profile on a graph of at
    most 2000 vertices starts from every vertex, and its manifest records
    that count as ``profile_compression.starts``.  Otherwise k states
    drawn from ``rng`` plus the ``witnesses`` (states expected to be
    among the slowest), which makes the maximum a lower estimate.
    """
    if k is None or size <= START_STATE_LIMIT:
        return np.arange(size, dtype=np.int64)
    if rng is None:
        raise ValueError("sampled starts need a generator")
    sampled = rng.choice(size, size=min(k, size), replace=False)
    return np.unique(np.concatenate([sampled, np.asarray(witnesses, dtype=np.int64)]))


def mixing_profile(
    graph: Digraph,
    starts: np.ndarray,
    times: np.ndarray,
    reference: ProbVector,
) -> MixingProfile:
    """TV distance to ``reference`` from each start at the given times.

    The K start columns are stepped together.  At the checkpoints
    PROFILE_CHECKPOINT, twice that, four times that, ... before the last
    time, the block is offered to ``_compress``.  It picks r <= min(K/4,
    checkpoint) of the block's own columns B with every column c_x
    within PROFILE_COMPRESS_TOL in L1 of B a_x, fits the r x r matrix C
    with B C ~ P^T B, and certifies that every later column formed as
    B C^s a_x, s steps past the checkpoint, stays within that tolerance
    too.  The first certified checkpoint ends the sparse product: each
    later column is formed from B and C alone.  A refused screen or tail
    leaves the full block stepping on to the next checkpoint, and past
    the last one to the end, so short grids, fewer than four starts and
    uncertified tails give the plain values exactly.  P^T does not
    increase the L1 norm of a signed vector, so in exact arithmetic each
    later value lies within half the certified L1 misfit of the
    uncompressed one; ``tv_bound`` is the largest such bound.  The
    first checkpoint is 32, not 16: a screen at 16 failed on every
    measured profile run (README), each one a wasted Gram-Schmidt pass.
    Supercritical walks collapse onto the m local equilibria after local
    mixing, so B then has about m columns and C is the m-state community
    chain.
    """
    times = np.asarray(sorted(int(t) for t in times), dtype=np.int64)
    if times.size and times[0] < 0:
        raise ValueError("times must be non-negative")
    starts = np.asarray(starts, dtype=np.int64)
    operator = transition_operator(graph)
    cols = np.zeros((graph.vertex_count, starts.size))
    cols[starts, np.arange(starts.size)] = 1.0
    ref = reference.values[:, None]
    per_start = np.zeros((starts.size, times.size))

    def record(t: int, block: np.ndarray) -> None:
        per_start[:, times == t] = 0.5 * np.abs(block - ref).sum(axis=0)[:, None]

    recorded = set(times.tolist())
    last = int(times[-1]) if times.size else 0
    max_rank = starts.size // 4
    checkpoints = []
    t = PROFILE_CHECKPOINT
    while max_rank and t < last:
        checkpoints.append(t)
        t *= 2
    schedule = sorted(recorded.union(checkpoints))
    for t, cols in zip(schedule, propagate(operator, cols, schedule)):
        if t in recorded:
            record(t, cols)
        if t in checkpoints:
            later = [s - t for s in sorted(recorded) if s > t]
            # capping r at t keeps a failed screen's O(n K r) within about
            # the cost of the t block steps already taken
            fit = _compress(operator, cols, min(max_rank, t), later)
            if fit is not None:
                break
    else:
        return MixingProfile(times=times, per_start=per_start, col_steps=starts.size * last)
    del cols  # only the basis is needed from here on
    basis, step_matrix, powers, misfit = fit
    for s, power in zip(later, powers):
        record(t + s, _combine(basis, power))  # formed one at a time
    rank = basis.shape[1]
    return MixingProfile(
        times=times,
        per_start=per_start,
        col_steps=starts.size * t + rank,
        checkpoint=t,
        rank=rank,
        tv_bound=0.5 * float(misfit.max()),
        step_matrix=step_matrix,
    )


def _compress(
    operator: csr_matrix, block: np.ndarray, max_rank: int, steps: list[int]
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray], np.ndarray] | None:
    """Compress ``block`` onto a few of its columns and a mean-field tail.

    ``_pivoted_gram_schmidt`` picks the columns B = block[:, picked] at
    the first rank whose least-squares residuals all lie within
    PROFILE_COMPRESS_TOL in L1.  The coefficients a_x are solved from
    its triangular factor (exact unit columns for the picks themselves),
    and each column's residual is recomputed from them as it will be
    formed.  C with B C ~ S = P^T B is the least-squares fit
    (Rayleigh-Ritz on an approximately invariant subspace; Saad 2011,
    ch. 4): S is projected onto the screen's orthonormal rows in the
    same modified Gram-Schmidt order and solved with the same triangular
    factor, whose diagonal holds the picks' positive residual norms.
    With e_k = ||S_k - (B C)_k||_1 the misfit of each basis column,
    (P^T)^s B - B C^s = sum_{j<s} (P^T)^(s-1-j) (S - B C) C^j, and P^T
    does not increase the L1 norm, column x is within residual_x +
    sum_{j<s} sum_k e_k |(C^j a_x)_k| of B C^s a_x at step s, whatever
    C is.  Returns (B, C, [C^s a for s in steps], that total at the last
    step) when ``_certify_tail`` accepts it, and None otherwise.
    """
    screened = _pivoted_gram_schmidt(block, max_rank, PROFILE_COMPRESS_TOL)
    if screened is None:
        return None
    picked, upper, ortho = screened
    triangle = upper[:, picked]
    coef = _back_substitute(triangle, upper)
    coef[:, picked] = np.eye(len(picked))
    basis = block[:, picked]
    approx = _combine(basis, coef)
    total = np.abs(np.subtract(block, approx, out=approx), out=approx).sum(axis=0)
    if not total.max() <= PROFILE_COMPRESS_TOL:
        return None
    stepped = operator @ basis
    rows = stepped.T.copy()
    projected = np.zeros((len(picked), rows.shape[0]))
    for i, q in enumerate(ortho):
        projected[i] = (rows * q).sum(axis=1)
        rows -= projected[i][:, None] * q
    step_matrix = _back_substitute(triangle, projected)
    e = np.abs(stepped - _combine(basis, step_matrix)).sum(axis=0)
    tail = _certify_tail(step_matrix, coef, e, total, steps)
    return None if tail is None else (basis, step_matrix, *tail)


def _certify_tail(
    step_matrix: np.ndarray,
    coef: np.ndarray,
    misfit: np.ndarray,
    residual: np.ndarray,
    steps: list[int],
) -> tuple[list[np.ndarray], np.ndarray] | None:
    """([C^s a for s in steps], total) if the tail's total is within tolerance.

    total_x = residual_x + sum_{j<S} sum_k misfit_k |(C^j a_x)_k| at the
    last step S.  It never decreases in s, so one test after the last
    step refuses whatever a test at every step would; only the r x K sum
    of |C^j a| is kept, never the whole power sequence.
    """
    wanted = set(steps)
    power = coef
    powers = []
    magnitude = np.zeros_like(coef)
    # a diverging C may overflow before the one test refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(1, steps[-1] + 1):
            magnitude += np.abs(power)
            power = _combine(step_matrix, power)
            if s in wanted:
                powers.append(power)
        total = residual + (misfit[:, None] * magnitude).sum(axis=0)
    if not total.max() <= PROFILE_COMPRESS_TOL:  # NaN fails too
        return None
    return powers, total


def _pivoted_gram_schmidt(
    block: np.ndarray, max_rank: int, tol: float
) -> tuple[list[int], np.ndarray, list[np.ndarray]] | None:
    """Pick columns by column-pivoted modified Gram-Schmidt.

    After r picks, the residual left in each column is its least-squares
    misfit on the picks, so screening every rank up to ``max_rank`` costs
    O(n K max_rank) in all.  Stops at the first rank whose residuals all
    lie within ``tol`` in L1 and returns (picked, rows of the upper
    triangular factor, the orthonormal rows in pick order), or None.
    The columns are held as rows, so every inner product is a numpy
    pairwise sum: more accurate than a running sum over n, and
    independent of the BLAS thread count.
    """
    resid = block.T.copy()
    work = np.empty_like(resid)
    upper = np.zeros((max_rank, block.shape[1]))
    picked: list[int] = []
    ortho: list[np.ndarray] = []
    for r in range(max_rank):
        norms = np.square(resid, out=work).sum(axis=1)
        pick = int(np.argmax(norms))
        q = resid[pick] / math.sqrt(norms[pick])
        upper[r] = np.multiply(resid, q, out=work).sum(axis=1)
        resid -= np.multiply(upper[r][:, None], q, out=work)
        picked.append(pick)
        ortho.append(q)
        if np.abs(resid, out=work).sum(axis=1).max() <= tol:
            return picked, upper[: r + 1], ortho
    return None


def _back_substitute(upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve upper @ x = rhs for an upper-triangular ``upper``, row by row."""
    x = np.zeros_like(rhs)
    r = upper.shape[0]
    for i in reversed(range(r)):
        x[i] = (rhs[i] - sum(upper[i, j] * x[j] for j in range(i + 1, r))) / upper[i, i]
    return x


def _combine(basis: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """basis @ coef, summed one rank-one term at a time in a fixed order."""
    out = basis[:, :1] * coef[0]
    for i in range(1, coef.shape[0]):
        out += basis[:, i : i + 1] * coef[i]
    return out


def _step_walkers(
    graph: Digraph, current: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Advance every walker one step; returns (next vertices, rewired?)."""
    deg = graph.out_degree[current]
    if np.any(deg == 0):
        v = int(current[int(np.flatnonzero(deg == 0)[0])])
        raise ValueError(f"walker stuck at sink vertex {v}")
    pick = (rng.random(current.shape[0]) * deg).astype(np.int64)
    edge = graph.indptr[current] + pick
    return graph.targets[edge], graph.rewired[edge]


def path_mass_ratios(
    graph: Digraph, starts: np.ndarray, t: int, reps: int, seed: int
) -> np.ndarray:
    """Normalized log path masses -log m(path) / (H t) for sampled walks.

    Walks start round-robin on ``starts``; the ratio concentrates at 1
    when the walk's step entropy matches the graph average H.
    """
    ent = entropy_and_entropic_time(graph)
    rng = derived_rng(seed, NS_TRAJECTORY, 0)
    starts = np.asarray(starts, dtype=np.int64)
    cur = starts[np.arange(reps) % starts.size]
    log_sum = np.zeros(reps)
    for _ in range(t):
        log_sum += np.log(graph.out_degree[cur])
        cur, _ = _step_walkers(graph, cur, rng)
    return log_sum / (ent.h * t)


def _first_jumps(
    graph: Digraph, starts: np.ndarray, reps: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Walk ``reps`` walkers until each first traverses a rewired edge.

    Walkers start round-robin on ``starts``.  Returns each walker's jump
    time and landing vertex; a walker that did not jump within the
    horizon of 20/alpha steps (10^6 when alpha = 0) is censored, with
    time 0 and landing vertex -1.
    """
    alpha = graph.params.alpha
    horizon = int(math.ceil(20.0 / alpha)) if alpha > 0.0 else 10**6
    starts = np.asarray(starts, dtype=np.int64)
    times = np.zeros(reps, dtype=np.int64)
    landing = np.full(reps, -1, dtype=np.int64)
    if not graph.rewired.any():
        return times, landing
    cur = starts[np.arange(reps) % starts.size]
    alive = np.arange(reps, dtype=np.int64)
    for t in range(1, horizon + 1):
        nxt, rew = _step_walkers(graph, cur, rng)
        if rew.any():
            times[alive[rew]] = t
            landing[alive[rew]] = nxt[rew]
            keep = ~rew
            alive = alive[keep]
            cur = nxt[keep]
            if alive.size == 0:
                break
        else:
            cur = nxt
    return times, landing


def sample_tau_jump(
    graph: Digraph, starts: np.ndarray, reps: int, seed: int
) -> tuple[np.ndarray, int]:
    """First times a rewired edge is traversed, for ``reps`` walkers.

    Returns (samples, censored) where censored counts walkers that never
    jumped within the horizon (20/alpha steps, or 10^6 when alpha = 0
    and every walker is censored); censored walkers are excluded from
    the samples.
    """
    if graph.params is None:
        raise ValueError("jump times need model parameters")
    rng = derived_rng(seed, NS_TRAJECTORY, 1)
    times, _ = _first_jumps(graph, starts, reps, rng)
    samples = times[times > 0]
    return samples, int(reps - samples.size)


def jump_target_frequencies(
    graph: Digraph, starts: np.ndarray, reps: int, seed: int
) -> tuple[np.ndarray, int]:
    """Count the landing communities of the first rewired-edge jumps.

    All starts must share a community.  Returns (counts by community,
    censored walkers); the start community's count is structurally zero.
    The horizon is sample_tau_jump's.
    """
    starts = np.asarray(starts, dtype=np.int64)
    if np.unique(starts // graph.n).size != 1:
        raise ValueError("starts must lie in a single community")
    if graph.params is None or graph.params.alpha <= 0.0:
        raise ValueError("jump targets need a rewired graph (alpha > 0)")
    rng = derived_rng(seed, NS_TRAJECTORY, 2)
    times, landing = _first_jumps(graph, starts, reps, rng)
    counts = np.bincount(landing[times > 0] // graph.n, minlength=graph.m)
    return counts, int(np.count_nonzero(times == 0))
