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
from scipy.sparse import csr_matrix

from dbmwalk.graph import DbmParams, Digraph, generate
from dbmwalk.walk import ProbVector


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


def cycle_digraph(k: int) -> Digraph:
    return digraph_from_edges(k, [(v, (v + 1) % k) for v in range(k)])


def complete_digraph(k: int) -> Digraph:
    edges = [(u, v) for u in range(k) for v in range(k) if u != v]
    return digraph_from_edges(k, edges)


def k_regular_digraph(n_vertices: int, k: int, seed: int = 0) -> Digraph:
    """Each vertex points to the next k vertices cyclically (k-out-regular)."""
    edges = [(v, (v + j) % n_vertices) for v in range(n_vertices) for j in range(1, k + 1)]
    return digraph_from_edges(n_vertices, edges)


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
    sparse and dropped-start steps must reproduce bit for bit.
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
