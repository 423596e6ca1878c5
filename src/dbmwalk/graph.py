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
import sys
import zipfile
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .rng import NS_GRAPH, derived_rng

FORMAT_VERSION = 1


def require_int(name: str, value) -> None:
    """Refuse a count or seed that is not an integer (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_seed(value) -> None:
    """Refuse a seed that is not an integer in [0, 2**63), the range a graph file stores."""
    require_int("seed", value)
    if value < 0:
        raise ValueError(f"seed must be non-negative, got {value}")
    if value >= 2**63:
        raise ValueError(f"seed must be below 2**63, got {value}")


def require_real(name: str, value) -> None:
    """Refuse a parameter that is not a finite real number (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, an infinity, or an int past every float
        raise ValueError(f"{name} must be finite, got {value!r}")


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
        require_real("lambda", self.lam)
        require_real("alpha", self.alpha)
        require_seed(self.seed)
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

    @property
    def rewired_out_degree(self) -> np.ndarray:
        """How many of each vertex's out-edges leave its community."""
        if "rewired_out_degree" not in self._cache:
            self._cache["rewired_out_degree"] = np.bincount(
                self.sources()[self.rewired], minlength=self.vertex_count
            )
        return self._cache["rewired_out_degree"]

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
        # rewiring keeps the target label, so a DBM draw, which takes each
        # ordered pair of distinct labels at most once, never breaks these
        labels = self.targets % self.n
        if np.any(labels == src % self.n):
            raise ValueError("an edge targets its source's own label")
        if np.any(np.diff(np.sort(src * self.n + labels)) == 0):
            raise ValueError("two out-edges of a vertex share a target label")


def generate(params: DbmParams, seed: int | None = None) -> tuple[Digraph, np.ndarray]:
    """Sample a DBM graph; returns ``(graph, graph.rewired_out_degree)``.

    Randomness is drawn from one derived stream per community, so results
    do not depend on scheduling.  ``seed`` overrides ``params.seed``, and
    the graph's ``params`` record the seed actually used.  The pair is
    kept for the benchmark's hook, which reads the graph as ``result[0]``.
    """
    if seed is not None:
        params = replace(params, seed=seed)  # an override meets the same seed rule
    n, m, p, alpha = params.n, params.m, params.p, params.alpha
    nv = n * m

    seg_targets = []
    seg_counts = []
    for i in range(m):
        rng = derived_rng(params.seed, NS_GRAPH, i)
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
    return graph, graph.rewired_out_degree


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


def _member(data, key: str, kind: type = np.integer) -> np.ndarray:
    """Archive member ``key``, refused unless its dtype is a ``kind``."""
    array = data[key]
    if not np.issubdtype(array.dtype, kind):
        raise ValueError(f"{key} has dtype {array.dtype}, not {kind.__name__}")
    return array


def load_binary(path: str) -> Digraph:
    """Read a graph written by ``save_binary``.

    A ValueError naming ``path`` rejects a broken archive, a member of a
    dtype a cast would truncate or misread, a broken graph, and stored rewired flags
    other than the ones the targets imply.
    """
    try:
        archive = np.load(path)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: not a DBM binary graph file") from exc
    try:
        with archive as data:
            if int(_member(data, "format_version")[0]) != FORMAT_VERSION:
                raise ValueError("unsupported format version")
            n, m, seed = (int(x) for x in _member(data, "shape"))
            lam, alpha = (float(x) for x in _member(data, "reals", np.floating))
            params = DbmParams(n=n, m=m, lam=lam, alpha=alpha, seed=seed)
            graph = Digraph(n, m, _member(data, "indptr"), _member(data, "targets"), params=params)
            stored = _member(data, "rewired", np.bool_)
        graph.validate()
        if not np.array_equal(stored, graph.rewired):
            raise ValueError("stored rewired flags must mark exactly the cross-community edges")
    except (IndexError, KeyError, TypeError, ValueError) as exc:  # KeyError: a missing member
        raise ValueError(f"{path}: {exc}") from exc
    return graph
