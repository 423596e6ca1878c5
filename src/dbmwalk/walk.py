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
WITNESS_CANDIDATES = 64  # lowest-degree starts scored for collision witnesses on a larger space
WITNESSES = 2  # top collision scores stepped on a larger space (README)
PROFILE_STARTS_PER_RANK = 4  # a profile of K starts compresses to rank <= K/4
UNIFORM_BLOCK = 2**14  # doubles a walker sampler draws from its generator at a time


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
        # P row by row straight from the edge layout, then transposed
        p = csr_matrix((np.repeat(1.0 / deg, deg), graph.targets, graph.indptr), shape=(n, n))
        graph._cache["PT"] = p.T.tocsr()
    return graph._cache["PT"]


def drop_transition_operator(graph: Digraph) -> None:
    """Free the P^T cached on ``graph``; ``transition_operator`` builds it again if asked."""
    graph._cache.pop("PT", None)


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
        to_block = community_reach(graph, 1).reshape(m, graph.n, m)  # P(v, d)
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


def every_state_starts(size: int, k: int | None) -> bool:
    """Whether a worst-start maximum over ``size`` states starts from all (k >= size too)."""
    return k is None or size <= START_STATE_LIMIT or k >= size


def collision_witnesses(operator: csr_matrix, degree: np.ndarray, k: int) -> np.ndarray:
    """The likeliest slowest starts among the k lowest ``degree`` states of P^T.

    Ties among the candidates go to the lower index.  Each scores its
    two-step collision probability sum_y P^2(x, y)^2: a start whose
    two-step mass sits on few states is far from equilibrium.  The
    WITNESSES highest scores win, ties going to the earlier candidate,
    and the first candidate joins them.  A point mass's first step is
    its column of P^T, so the scoring holds k two-step supports, not
    k dense columns.
    """
    candidates = np.argsort(degree, kind="stable")[:k]
    two = operator @ operator[:, candidates]
    score = np.bincount(two.indices, weights=two.data**2, minlength=candidates.size)
    top = candidates[np.argsort(-score, kind="stable")[:WITNESSES]]
    return top if candidates[0] in top else np.append(top, candidates[0])


def community_reach(graph: Digraph, t: int) -> np.ndarray:
    """h[x, c] = P^t(x, c): the m community indicators stepped t times by P.

    The one builder of the community-lumped kernel, which ``stationary``
    reads at t = 1 and ``lumped_bound`` at t.
    """
    indicators = np.repeat(np.eye(graph.m), graph.n, axis=0)  # column c: 1 on community c
    (h,) = propagate(transition_operator(graph).T, indicators, [t])
    return h


def lumped_bound(graph: Digraph, pi: ProbVector, t: int) -> np.ndarray:
    """Each vertex's lumping lower bound on its TV distance to ``pi`` at step t.

    1/2 sum_c |h_c(x) - w_c| <= d_x(t), h = ``community_reach(graph, t)``
    and w_c the mass of c under ``pi``: lumping does not increase TV.
    """
    return 0.5 * np.abs(community_reach(graph, t) - community_mass(graph, pi)).sum(axis=1)


def lumped_witnesses(graph: Digraph, pi: ProbVector, t: int) -> np.ndarray:
    """Each community's PROFILE_STARTS_PER_RANK top ``lumped_bound`` vertices, sorted.

    Past local mixing P^t(x, .) is close to sum_c h_c(x) pi|_c / w_c, so
    the bound is nearly d_x(t) and its top vertices are the likeliest
    worst starts.  Taking them per community keeps every community's
    local equilibrium among the starts, so a stepped block of them spans
    the m-state tail, and their count caps ``mixing_profile``'s rank at
    exactly m; ties go to the lower label.
    """
    score = lumped_bound(graph, pi, t).reshape(graph.m, graph.n)
    top = np.argsort(-score, axis=1, kind="stable")[:, :PROFILE_STARTS_PER_RANK]
    return np.sort((top + graph.n * np.arange(graph.m)[:, None]).ravel())


def profile_starts(
    graph: Digraph, pi: ProbVector, times: Iterable[int], k: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """(starts, witnesses) of a worst-start profile, the starts sorted and distinct.

    Every vertex and no witness when ``every_state_starts(size, k)``: an
    exact maximum.  Otherwise a lower estimate from witnesses, which are
    the starts: the ``lumped_witnesses``, past local mixing the likeliest
    worst starts, joined by the ``collision_witnesses`` among k
    candidates, the likeliest before it, when a time is before
    PROFILE_CHECKPOINT (README, "Which starts").
    """
    size = graph.vertex_count
    if every_state_starts(size, k):
        return np.arange(size, dtype=np.int64), np.empty(0, dtype=np.int64)
    witnesses = lumped_witnesses(graph, pi, PROFILE_CHECKPOINT)
    if min(times) < PROFILE_CHECKPOINT:
        local = collision_witnesses(transition_operator(graph), graph.out_degree, k)
        witnesses = np.union1d(witnesses, local)
    return witnesses, witnesses


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
    ref = reference.values[:, None]
    per_start = np.zeros((starts.size, times.size))

    def record(t: int, block: np.ndarray) -> None:
        per_start[:, times == t] = 0.5 * np.abs(block - ref).sum(axis=0)[:, None]

    recorded = set(times.tolist())
    if 0 in recorded:  # the point masses themselves, summed as a stepped block is
        record(0, (np.arange(graph.vertex_count)[:, None] == starts).astype(np.float64))
    last = int(times[-1]) if times.size else 0
    max_rank = starts.size // PROFILE_STARTS_PER_RANK
    checkpoints = []
    t = PROFILE_CHECKPOINT
    while max_rank and t < last:
        checkpoints.append(t)
        t *= 2
    schedule = sorted(recorded.union(checkpoints) - {0})
    cols = operator[:, starts].toarray()  # the point masses' first step, bit for bit
    for t, cols in zip(schedule, propagate(operator, cols, [s - 1 for s in schedule])):
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


class _UniformStream:
    """The doubles of ``rng.random``, handed out in order, drawn in blocks.

    ``random(k)`` has the shape of ``Generator.random(k)`` and returns the
    same doubles: for PCG64, ``rng.random(a)`` then ``rng.random(b)``
    yields the doubles of ``rng.random(a + b)``, so reading them
    UNIFORM_BLOCK at a time moves no stream.  A walker step then costs a
    slice instead of a generator call.  The generator is left advanced
    past the last block drawn, beyond the last double used, so only a
    caller that owns ``rng`` and draws nothing else from it may wrap it.
    The arrays returned are read-only views of the block.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._block = np.empty(0)
        self._used = 0

    def random(self, k: int) -> np.ndarray:
        end = self._used + k
        if end > self._block.size:
            rest = self._block[self._used :]
            fresh = self._rng.random(max(UNIFORM_BLOCK, k - rest.size))
            self._block = np.concatenate([rest, fresh])
            self._block.flags.writeable = False
            self._used, end = 0, k
        out = self._block[self._used : end]
        self._used = end
        return out


def _walker_degrees(graph: Digraph) -> tuple[np.ndarray, bool]:
    """Float out-degrees and whether the graph has a sink (cached on the graph)."""
    if "walker_degrees" not in graph._cache:
        deg = graph.out_degree.astype(np.float64)
        graph._cache["walker_degrees"] = deg, not deg.all()
    return graph._cache["walker_degrees"]


def _step_walkers(
    graph: Digraph, current: np.ndarray, uniforms: np.random.Generator | _UniformStream
) -> tuple[np.ndarray, np.ndarray]:
    """Advance every walker one step; returns (next vertices, rewired?).

    The one walker step of every sampler here and of the restart walk.
    It reads one double of ``uniforms`` per walker, in walker order.  The
    float out-degrees and the sink check are formed once per graph: a
    graph without a sink checks no walker, and on one with a sink a
    walker standing on it raises.
    """
    deg, has_sink = _walker_degrees(graph)
    deg = deg[current]
    if has_sink and not deg.all():
        v = int(current[int(np.flatnonzero(deg == 0)[0])])
        raise ValueError(f"walker stuck at sink vertex {v}")
    edge = graph.indptr[current] + (uniforms.random(current.shape[0]) * deg).astype(np.int64)
    return graph.targets[edge], graph.rewired[edge]


def path_mass_ratios(
    graph: Digraph, starts: np.ndarray, t: int, reps: int, seed: int
) -> np.ndarray:
    """Normalized log path masses -log m(path) / (H t) for sampled walks.

    Walks start round-robin on ``starts``; the ratio concentrates at 1
    when the walk's step entropy matches the graph average H.  The walk
    owns its generator and reads it as a ``_UniformStream``.
    """
    ent = entropy_and_entropic_time(graph)
    uniforms = _UniformStream(derived_rng(seed, NS_TRAJECTORY, 0))
    deg, _ = _walker_degrees(graph)
    starts = np.asarray(starts, dtype=np.int64)
    cur = starts[np.arange(reps) % starts.size]
    log_sum = np.zeros(reps)
    for _ in range(t):
        nxt, _ = _step_walkers(graph, cur, uniforms)  # raises before log(0)
        log_sum += np.log(deg[cur])
        cur = nxt
    return log_sum / (ent.h * t)


def _first_jumps(
    graph: Digraph, starts: np.ndarray, reps: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Walk ``reps`` walkers until each first traverses a rewired edge.

    Walkers start round-robin on ``starts``.  Returns each walker's jump
    time and landing vertex; a walker that did not jump within the
    horizon of 20/alpha steps (10^6 when alpha = 0) is censored, with
    time 0 and landing vertex -1.  ``rng`` is read as a
    ``_UniformStream``, so the caller must own it and draw nothing more.
    """
    alpha = graph.params.alpha
    horizon = int(math.ceil(20.0 / alpha)) if alpha > 0.0 else 10**6
    starts = np.asarray(starts, dtype=np.int64)
    times = np.zeros(reps, dtype=np.int64)
    landing = np.full(reps, -1, dtype=np.int64)
    if not graph.rewired.any():
        return times, landing
    uniforms = _UniformStream(rng)
    cur = starts[np.arange(reps) % starts.size]
    alive = np.arange(reps, dtype=np.int64)
    for t in range(1, horizon + 1):
        nxt, rew = _step_walkers(graph, cur, uniforms)
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
