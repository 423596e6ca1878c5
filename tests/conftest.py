"""Shared builders: synthetic digraphs and dense reference kernels.

Everything here is an independent re-derivation used as an oracle; none
of it calls back into the package's sparse fast paths beyond the plain
Digraph container.
"""

from __future__ import annotations

import numpy as np
import pytest

from dbmwalk.graph import DbmParams, Digraph, generate
from dbmwalk.walk import ProbVector


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


@pytest.fixture(scope="session")
def desk_graph():
    """One mid-size generated graph shared by read-only tests."""
    params = DbmParams(n=2000, m=2, lam=2.0, alpha=0.01, seed=42)
    graph, table = generate(params, seed=42)
    return graph, table
