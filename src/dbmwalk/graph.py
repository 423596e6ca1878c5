"""Directed block model graphs.

A DBM(n, m, p, alpha) graph is a union of m directed Erdos-Renyi graphs
on n vertices each (edge probability p = lambda * log(n) / n, no self
loops), where every edge is independently rewired with probability alpha:
a rewired edge keeps its source and its target *label* but moves to a
uniformly chosen other community.

Vertices are numbered globally: vertex v belongs to community v // n and
carries label v % n.  Community i occupies ids [i*n, (i+1)*n).  Edges are
stored in compressed form (indptr/targets); within each source the targets
are sorted.  An edge is rewired exactly when its target lies outside its
source's community, so the rewired flags are derived from the targets.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .rng import NS_GRAPH, derived_rng

FORMAT_VERSION = 1


def require_int(name: str, value) -> None:
    """Refuse a count or seed that is not an integer (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class DbmParams:
    """Model parameters. ``lam`` is the edge-density constant lambda."""

    n: int
    m: int
    lam: float
    alpha: float
    seed: int

    def __post_init__(self) -> None:
        require_int("n", self.n)
        require_int("m", self.m)
        if self.n < 2:
            raise ValueError(f"community size n must be >= 2, got {self.n}")
        if self.m < 2:
            raise ValueError(f"community count m must be >= 2, got {self.m}")
        if not self.lam > 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.p > 1.0:
            raise ValueError(
                f"edge probability lambda*log(n)/n = {self.p} exceeds 1"
            )

    @property
    def p(self) -> float:
        return self.lam * math.log(self.n) / self.n

    @property
    def vertex_count(self) -> int:
        return self.n * self.m

    @classmethod
    def from_edge_probability(
        cls, n: int, m: int, p: float, alpha: float, seed: int
    ) -> "DbmParams":
        """Build params from a raw edge probability instead of lambda."""
        return cls(n=n, m=m, lam=p * n / math.log(n), alpha=alpha, seed=seed)


class Digraph:
    """Immutable directed graph in compressed out-adjacency form.

    ``indptr`` has length N+1; the targets of vertex v are
    ``targets[indptr[v]:indptr[v+1]]``, sorted.  ``n`` is the community
    width and ``m`` the community count; single-community subgraphs use
    m = 1.  The ``rewired`` flags are derived from the targets, never
    stored; ``load_binary`` checks a file's stored flags against them.
    """

    def __init__(
        self,
        n: int,
        m: int,
        indptr: np.ndarray,
        targets: np.ndarray,
        params: DbmParams | None = None,
    ) -> None:
        self.n = int(n)
        self.m = int(m)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int64)
        self.params = params
        if self.indptr.shape != (self.vertex_count + 1,):
            raise ValueError("indptr length does not match vertex count")
        self._cache: dict = {}

    @property
    def vertex_count(self) -> int:
        return self.n * self.m

    @property
    def edge_count(self) -> int:
        return int(self.targets.shape[0])

    @property
    def out_degree(self) -> np.ndarray:
        if "out_degree" not in self._cache:
            self._cache["out_degree"] = np.diff(self.indptr)
        return self._cache["out_degree"]

    def sources(self) -> np.ndarray:
        """Source vertex of every edge, aligned with ``targets``."""
        if "sources" not in self._cache:
            self._cache["sources"] = np.repeat(
                np.arange(self.vertex_count, dtype=np.int64), self.out_degree
            )
        return self._cache["sources"]

    @property
    def rewired(self) -> np.ndarray:
        """Whether each edge leaves its source's community, aligned with ``targets``."""
        if "rewired" not in self._cache:
            self._cache["rewired"] = self.targets // self.n != self.sources() // self.n
        return self._cache["rewired"]

    def community_vertices(self, i: int) -> np.ndarray:
        return np.arange(i * self.n, (i + 1) * self.n, dtype=np.int64)

    def is_strongly_connected(self) -> bool:
        """Whether every vertex reaches every other; only the answer is cached."""
        if "strong" not in self._cache:
            nv = self.vertex_count
            ones = np.ones(self.edge_count, dtype=np.int8)
            adjacency = csr_matrix((ones, self.targets, self.indptr), shape=(nv, nv))
            ncomp, _ = connected_components(adjacency, directed=True, connection="strong")
            self._cache["strong"] = ncomp == 1
        return self._cache["strong"]

    def validate(self) -> None:
        """Check every structural invariant; raises ValueError on a broken one."""
        if self.indptr[0] != 0 or self.indptr[-1] != self.edge_count:
            raise ValueError("indptr must run from 0 to the edge count")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.edge_count:
            if self.targets.min() < 0 or self.targets.max() >= self.vertex_count:
                raise ValueError("target out of range")
        src = self.sources()
        if np.any(src == self.targets):
            raise ValueError("self loop present")
        same_source = src[1:] == src[:-1]
        if np.any(np.diff(self.targets)[same_source] <= 0):
            raise ValueError("targets of a vertex not strictly sorted")


@dataclass(frozen=True)
class DegreeTable:
    """Per-vertex degree statistics.

    d_out = d_intra_out + d_rewired_out; d_in counts post-rewiring in-edges
    and d_in_intra counts in-edges of the pre-rewiring graph (same-community
    sources aiming at this label).
    """

    d_out: np.ndarray
    d_intra_out: np.ndarray
    d_rewired_out: np.ndarray
    d_in: np.ndarray
    d_in_intra: np.ndarray


def generate(params: DbmParams, seed: int | None = None) -> tuple[Digraph, DegreeTable]:
    """Sample a DBM graph.

    Randomness is drawn from one derived stream per community, so results
    do not depend on scheduling.  ``seed`` overrides ``params.seed``.
    """
    root = params.seed if seed is None else seed
    n, m, p, alpha = params.n, params.m, params.p, params.alpha
    nv = n * m

    seg_targets = []
    seg_counts = []
    for i in range(m):
        rng = derived_rng(root, NS_GRAPH, i)
        src_label, tgt_label = _community_edge_labels(rng, n, p)
        flags = rng.random(src_label.shape[0]) < alpha
        target = i * n + tgt_label
        off = rng.integers(0, m - 1, size=int(np.count_nonzero(flags)))
        other = off + (off >= i)
        target[flags] = other * n + tgt_label[flags]
        # a source's targets are distinct: one integer sort restores their order
        seg_targets.append(np.sort(src_label * nv + target) % nv)
        seg_counts.append(np.bincount(src_label, minlength=n))

    indptr = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(np.concatenate(seg_counts), out=indptr[1:])
    graph = Digraph(n, m, indptr, np.concatenate(seg_targets), params=params)
    return graph, degrees(graph)


def _community_edge_labels(
    rng: np.random.Generator, n: int, p: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sample one community's pre-rewiring edges as (source, target) labels.

    Runs a Bernoulli(p) process over the n*(n-1) ordered non-diagonal
    pairs, realized through geometric gaps, which yields each pair
    independently with probability p and targets already distinct and
    sorted within each source.
    """
    line = n * (n - 1)
    if p >= 1.0:
        pos = np.arange(line, dtype=np.int64)
    else:
        mean = line * p
        batch = int(mean + 6.0 * math.sqrt(mean) + 16.0)
        cum = np.cumsum(rng.geometric(p, size=batch))
        while cum.size == 0 or cum[-1] < line:
            more = np.cumsum(rng.geometric(p, size=batch // 4 + 16))
            tail = (cum[-1] if cum.size else 0) + more
            cum = np.concatenate([cum, tail])
        pos = cum[cum <= line] - 1
    src = pos // (n - 1)
    slot = pos % (n - 1)
    tgt = slot + (slot >= src)  # skip the diagonal: no self loops
    return src.astype(np.int64), tgt.astype(np.int64)


def degrees(graph: Digraph) -> DegreeTable:
    """Recompute the degree table from the edge arrays."""
    nv = graph.vertex_count
    src = graph.sources()
    d_out = np.bincount(src, minlength=nv).astype(np.int64)
    d_rew = np.bincount(src[graph.rewired], minlength=nv).astype(np.int64)
    d_in = np.bincount(graph.targets, minlength=nv).astype(np.int64)
    pre_target = (src // graph.n) * graph.n + (graph.targets % graph.n)
    d_in_intra = np.bincount(pre_target, minlength=nv).astype(np.int64)
    return DegreeTable(
        d_out=d_out,
        d_intra_out=d_out - d_rew,
        d_rewired_out=d_rew,
        d_in=d_in,
        d_in_intra=d_in_intra,
    )


def gates(graph: Digraph, table: DegreeTable, i: int) -> np.ndarray:
    """Vertices of community i with at least one rewired out-edge, sorted."""
    lo, hi = i * graph.n, (i + 1) * graph.n
    local = table.d_rewired_out[lo:hi]
    return lo + np.flatnonzero(local > 0).astype(np.int64)


def pre_rewiring_subgraph(graph: Digraph, i: int) -> Digraph:
    """Community i's graph before rewiring, on label ids 0..n-1 (cached).

    Every edge with a source in community i is restored to its original
    target (same label, community i); the result is the plain directed
    Erdos-Renyi graph the community was born as.  It is built once per
    graph, so its own caches (connectivity, walk kernel) are shared by
    every caller.
    """
    key = ("community", i)
    if key not in graph._cache:
        n = graph.n
        lo, hi = i * n, (i + 1) * n
        e_lo, e_hi = graph.indptr[lo], graph.indptr[hi]
        tgt = graph.targets[e_lo:e_hi] % n
        src = graph.sources()[e_lo:e_hi] - lo
        indptr = graph.indptr[lo : hi + 1] - e_lo
        # label restoration breaks the target order within each source
        graph._cache[key] = Digraph(n, 1, indptr, np.sort(src * n + tgt) % n)
    return graph._cache[key]


def save_binary(graph: Digraph, path: str) -> None:
    """Write the graph and its parameters as a numpy .npz archive."""
    if graph.params is None:
        raise ValueError("binary format requires model parameters on the graph")
    prm = graph.params
    np.savez(
        path,
        format_version=np.array([FORMAT_VERSION], dtype=np.int64),
        shape=np.array([prm.n, prm.m, prm.seed], dtype=np.int64),
        reals=np.array([prm.lam, prm.alpha], dtype=np.float64),
        indptr=graph.indptr,
        targets=graph.targets,
        rewired=graph.rewired,
    )


def load_binary(path: str) -> Digraph:
    """Read a graph written by ``save_binary``.

    A ValueError naming ``path`` rejects a broken archive, a broken graph,
    and stored rewired flags other than the ones the targets imply.
    """
    try:
        archive = np.load(path)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: not a DBM binary graph file") from exc
    try:
        with archive as data:
            if "format_version" not in data or int(data["format_version"][0]) != FORMAT_VERSION:
                raise ValueError("unsupported or missing format version")
            n, m, seed = (int(x) for x in data["shape"])
            lam, alpha = (float(x) for x in data["reals"])
            params = DbmParams(n=n, m=m, lam=lam, alpha=alpha, seed=seed)
            graph = Digraph(n, m, data["indptr"], data["targets"], params=params)
            stored = data["rewired"]
        graph.validate()
        if not np.array_equal(stored, graph.rewired):
            raise ValueError("stored rewired flags must mark exactly the cross-community edges")
    except (KeyError, TypeError, ValueError) as exc:  # KeyError: a missing member
        raise ValueError(f"{path}: {exc}") from exc
    return graph
