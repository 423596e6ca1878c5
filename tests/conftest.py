"""Shared builders: synthetic digraphs, dense reference kernels and loops.

Everything here is an independent re-derivation used as an oracle; none
of it calls back into the package's sparse fast paths beyond the plain
Digraph container.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import spsolve

from dbmwalk.graph import DbmParams, Digraph, generate
from dbmwalk.walk import (
    STATIONARY_MAX_ITER,
    STATIONARY_TOL,
    ProbVector,
    propagate,
    transition_operator,
)


# a fixed, derandomised hypothesis example set: the same cases on every run
DIFFERENTIAL = settings(derandomize=True, max_examples=40, deadline=None, database=None)


def digraph_from_edges(n_vertices: int, edges: list[tuple[int, int]], m: int = 1,
                       params: DbmParams | None = None) -> Digraph:
    """Build a Digraph from an explicit edge list (community width = n/m)."""
    order = sorted(range(len(edges)), key=lambda k: edges[k])
    src = np.array([edges[k][0] for k in order], dtype=np.int64)
    tgt = np.array([edges[k][1] for k in order], dtype=np.int64)
    indptr = np.zeros(n_vertices + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    indptr = np.cumsum(indptr)
    assert n_vertices % m == 0
    return Digraph(n=n_vertices // m, m=m, indptr=indptr, targets=tgt, params=params)


def params_from_edge_probability(n: int, m: int, p: float, alpha: float, seed: int) -> DbmParams:
    """DBM params from a raw edge probability p instead of lambda = p n / log(n)."""
    return DbmParams(n=n, m=m, lam=p * n / math.log(n), alpha=alpha, seed=seed)


def cycle_digraph(k: int) -> Digraph:
    return digraph_from_edges(k, [(v, (v + 1) % k) for v in range(k)])


def complete_digraph(k: int) -> Digraph:
    edges = [(u, v) for u in range(k) for v in range(k) if u != v]
    return digraph_from_edges(k, edges)


def k_regular_digraph(n_vertices: int, k: int, seed: int = 0) -> Digraph:
    """Each vertex points to the next k vertices cyclically (k-out-regular)."""
    edges = [(v, (v + j) % n_vertices) for v in range(n_vertices) for j in range(1, k + 1)]
    return digraph_from_edges(n_vertices, edges)


def validate(graph: Digraph) -> None:
    """Check every structural invariant of a DBM draw; raises ValueError on a broken one."""
    if graph.indptr[0] != 0 or graph.indptr[-1] != graph.edge_count:
        raise ValueError("indptr must run from 0 to the edge count")
    if np.any(np.diff(graph.indptr) < 0):
        raise ValueError("indptr must be non-decreasing")
    if graph.edge_count:
        if graph.targets.min() < 0 or graph.targets.max() >= graph.vertex_count:
            raise ValueError("target out of range")
    n, targets = graph.n, graph.targets
    src = np.repeat(np.arange(graph.vertex_count), np.diff(graph.indptr))
    if np.any(src == targets):
        raise ValueError("self loop present")
    same_source = src[1:] == src[:-1]
    if np.any(np.diff(targets)[same_source] <= 0):
        raise ValueError("targets of a vertex not strictly sorted")
    # rewiring keeps the target label, so a DBM draw, which takes each
    # ordered pair of distinct labels at most once, never breaks these
    labels = targets % n
    if np.any(labels == src % n):
        raise ValueError("an edge targets its source's own label")
    if np.any(np.diff(np.sort(src * n + labels)) == 0):
        raise ValueError("two out-edges of a vertex share a target label")
    # a DBM draw rewires each edge with probability alpha
    rewired = targets // n != src // n
    alpha = graph.params.alpha if graph.params is not None else None
    if alpha == 0.0 and (k := int(np.count_nonzero(rewired))):
        raise ValueError(f"alpha = 0 but {k} edges leave their community")
    if alpha == 1.0 and (k := int(np.count_nonzero(~rewired))):
        raise ValueError(f"alpha = 1 but {k} edges stay in their community")


def pre_rewiring_in_degree(graph: Digraph) -> np.ndarray:
    """Each vertex's in-degree once every edge is restored to its source's community."""
    n = graph.n
    src = np.repeat(np.arange(graph.vertex_count), graph.out_degree)
    return np.bincount((src // n) * n + graph.targets % n, minlength=graph.vertex_count)


def leaving_out_degree(graph: Digraph) -> np.ndarray:
    """Per vertex, its out-edges whose target lies outside its community, one row at a time."""
    n = graph.n
    counts = np.zeros(graph.vertex_count, dtype=np.int64)
    for v in range(graph.vertex_count):
        row = graph.targets[graph.indptr[v] : graph.indptr[v + 1]]
        counts[v] = np.count_nonzero(row // n != v // n)
    return counts


def random_sc_digraph(rng: np.random.Generator, size: int, extra: float = 2.0) -> Digraph:
    """Random digraph made strongly connected by planting a Hamilton cycle."""
    perm = rng.permutation(size)
    edges = {(int(perm[i]), int(perm[(i + 1) % size])) for i in range(size)}
    n_extra = int(extra * size)
    src = rng.integers(0, size, size=4 * n_extra)
    tgt = rng.integers(0, size, size=4 * n_extra)
    added = 0
    for s, t in zip(src, tgt):
        if added >= n_extra:
            break
        if s != t and (int(s), int(t)) not in edges:
            edges.add((int(s), int(t)))
            added += 1
    return digraph_from_edges(size, sorted(edges))


def out_neighbors(graph: Digraph, v: int) -> np.ndarray:
    return graph.targets[graph.indptr[v] : graph.indptr[v + 1]]


def check_prob_vector(vec: ProbVector) -> None:
    """Raise AssertionError unless ``vec`` is non-negative and sums to 1."""
    if np.any(vec.values < -1e-15):
        raise AssertionError("negative probability entry")
    s = float(vec.values.sum())
    if abs(s - 1.0) > 1e-12:
        raise AssertionError(f"probabilities sum to {s}, not 1")


def delta(size: int, v: int, domain: str = "global") -> ProbVector:
    values = np.zeros(size)
    values[v] = 1.0
    return ProbVector(values, domain)


def uniform(size: int, domain: str = "global") -> ProbVector:
    return ProbVector(np.full(size, 1.0 / size), domain)


def dense_kernel(graph: Digraph) -> np.ndarray:
    """Row-stochastic dense kernel; rows of sinks are left all-zero."""
    big_n = graph.vertex_count
    mat = np.zeros((big_n, big_n))
    for v in range(big_n):
        nb = out_neighbors(graph, v)
        if nb.size:
            mat[v, nb] = 1.0 / nb.size
    return mat


def coo_transition_operator(graph: Digraph) -> csr_matrix:
    """P^T assembled from (target, source) coordinate pairs and converted.

    The construction ``walk.transition_operator`` used before it built P
    row by row from the edge layout: the oracle its CSR arrays must
    equal bit for bit.
    """
    n = graph.vertex_count
    deg = graph.out_degree
    src = np.repeat(np.arange(n), deg)
    return csr_matrix((1.0 / deg[src], (graph.targets, src)), shape=(n, n))


def dense_stationary(kernel: np.ndarray) -> np.ndarray:
    """Stationary row vector by direct linear solve of pi (P - I) = 0."""
    k = kernel.shape[0]
    a = (kernel.T - np.eye(k))
    a[-1, :] = 1.0  # replace one equation with the normalization
    b = np.zeros(k)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def bincount_stationary(graph: Digraph) -> tuple[np.ndarray, int]:
    """Aggregated lazy power iteration with P(v, d) summed by ``bincount``.

    A copy of the loop ``walk.stationary`` runs on m > 1 communities, as
    it stood when it summed P(v, d), the step probability from v into
    community d, as a ``bincount`` of 1/deg(v) over v's edges instead of
    reading it from the kernel.  Returns (mu, iterations).
    """
    n, m = graph.vertex_count, graph.m
    deg = np.diff(graph.indptr)
    src = np.repeat(np.arange(n), deg)
    pt = csr_matrix((1.0 / deg[src], (graph.targets, src)), shape=(n, n))
    to_block = np.bincount(
        src * m + graph.targets // graph.n, weights=1.0 / deg[src], minlength=n * m
    ).reshape(m, graph.n, m)
    mu = np.full(n, 1.0 / n)
    for it in range(10**6):
        stepped = pt @ mu
        if float(np.abs(stepped - mu).sum()) < 1e-12:
            return mu, it
        mu = 0.5 * (mu + stepped)
        blocks = mu.reshape(m, graph.n)
        w = blocks.sum(axis=1)
        coupling = np.einsum("cv,cvd->cd", blocks, to_block) / w[:, None]
        gen = coupling - np.diag(np.diag(coupling))
        gen -= np.diag(gen.sum(axis=1))
        lhs = gen.T
        lhs[-1, :] = 1.0
        rhs = np.zeros(m)
        rhs[-1] = 1.0
        xi = np.linalg.solve(lhs, rhs)
        mu = (blocks * (xi / w)[:, None]).ravel()
    raise AssertionError("reference iteration did not converge")


def dense_start_steps(operator, pi: np.ndarray, starts: np.ndarray, cap: int):
    """Every start stepped as one dense block, as ``operator @ columns``.

    Returns the blocks and their columns' TV to ``pi`` after steps
    1, 2, ..., ending at the first step whose worst TV is at most
    1/(2e), or at ``cap``: the reference the merged mixing time's
    narrower start blocks must reproduce column for column, bit for bit.
    """
    cols = np.zeros((operator.shape[0], starts.size))
    cols[starts, np.arange(starts.size)] = 1.0
    blocks, tvs = [], []
    for _ in range(cap):
        cols = operator @ cols
        blocks.append(cols)
        tvs.append(0.5 * np.abs(cols - pi[:, None]).sum(axis=0))
        if tvs[-1].max() <= 1.0 / (2.0 * math.e):
            break
    return blocks, tvs


def survivor_kernel(view) -> csr_matrix:
    """The survivor kernel S of a ``qsd.CommunityView``, built explicitly.

    P^T on the kept labels: the gate-killed walk, which
    ``qsd.quasi_stationary`` steps as the kept block of the merged kernel.
    """
    return transition_operator(view.local)[view.kept][:, view.kept]


def survivor_power_iteration(view) -> tuple[np.ndarray, float, int]:
    """The QSD power iteration stepped on ``survivor_kernel``: (mu on kept, iota, iterations).

    mu <- S mu / theta from uniform until ||S mu - theta mu||_1 is below
    ``walk.STATIONARY_TOL``: the reference ``qsd.quasi_stationary`` must
    reproduce bit for bit.
    """
    sub = survivor_kernel(view)
    mu = np.full(sub.shape[0], 1.0 / sub.shape[0])
    for it in range(STATIONARY_MAX_ITER):
        nxt = sub @ mu
        theta = float(nxt.sum())
        if float(np.abs(nxt - theta * mu).sum()) < STATIONARY_TOL:
            return mu, 1.0 - theta, it
        mu = nxt / theta
    raise AssertionError("reference QSD iteration did not converge")


def survival_curve(view, solution, t_max: int) -> np.ndarray:
    """Exact P(tau_gate > t) from the QSD, for t = 0..t_max, on ``survivor_kernel``."""
    mu = solution.mu_star.values[view.kept]
    steps = propagate(survivor_kernel(view), mu, range(1, t_max + 1))
    return np.array([1.0] + [float(mu_t.sum()) for mu_t in steps])


def spsolve_hitting_oracle(view) -> float:
    """E_pi[tau_gate] of a ``qsd.CommunityView`` by a sparse direct solve.

    h = 1 + P h on the kept states (h = 0 on the gates), averaged under
    pi: the reference for the return-sum oracle of
    ``qsd.hitting_time_estimates``.
    """
    kept = view.kept
    # I - P on the kept states, as CSR (the survivor operator is P^T)
    i_minus_p = identity(kept.size, format="csr") - survivor_kernel(view).T
    h = spsolve(i_minus_p, np.ones(kept.size))
    return float((view.pi_local.values[kept] * h).sum())


def q_matrix(m: int, alpha: float) -> np.ndarray:
    """One-step community kernel: stay with 1 - alpha, move to each other with alpha/(m-1)."""
    if m < 2:
        raise ValueError("need at least two communities")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    q = np.full((m, m), alpha / (m - 1))
    np.fill_diagonal(q, 1.0 - alpha)
    return q


def mixture_identity_gap(measures) -> float:
    """Max-abs gap between the mean of a ``proxy.SurrogateMeasures``'s surrogates and its average.

    Zero up to float roundoff by construction; a drift means the
    mixture weights stopped being doubly stochastic.
    """
    stack = np.stack([pv.values for pv in measures.per_community])
    return float(np.abs(stack.mean(axis=0) - measures.average.values).max())


def meanfield_tv(m: int, alpha: float, t: int) -> float:
    """TV distance of a row of the community chain's Q^t to uniform.

    Equals ((m-1)/m) * |b|^t with b = 1 - m*alpha/(m-1); the absolute
    value matters when alpha > (m-1)/m and b is negative.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    b = 1.0 - m * alpha / (m - 1)
    return (m - 1) / m * abs(b) ** t


@pytest.fixture(scope="session")
def desk_graph():
    """One mid-size generated graph shared by read-only tests."""
    graph, _ = generate(DbmParams(n=2000, m=2, lam=2.0, alpha=0.01, seed=42))
    return graph
