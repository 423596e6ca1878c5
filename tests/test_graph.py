"""Generator contracts: edge law, degrees, rewiring structure, round trips."""

import hashlib
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import (
    cycle_edges,
    digraph_from_edges,
    k_regular_digraph,
    leaving_out_degree,
    params_from_edge_probability,
    pre_rewiring_in_degree,
    strongly_connected_oracle,
    validate,
)
from dbmwalk import graph as graph_module
from dbmwalk.graph import (
    DbmParams,
    Digraph,
    generate,
    load_binary,
    pre_rewiring_subgraph,
    save_binary,
)


def test_params_validation():
    with pytest.raises(ValueError):
        DbmParams(n=1, m=2, lam=2.0, alpha=0.1, seed=0)
    with pytest.raises(ValueError):
        DbmParams(n=100, m=1, lam=2.0, alpha=0.1, seed=0)
    with pytest.raises(ValueError):
        DbmParams(n=100, m=2, lam=0.0, alpha=0.1, seed=0)
    with pytest.raises(ValueError):
        DbmParams(n=100, m=2, lam=2.0, alpha=1.5, seed=0)
    with pytest.raises(ValueError):
        # p = lam log(n)/n > 1
        DbmParams(n=10, m=2, lam=10.0, alpha=0.1, seed=0)
    prm = params_from_edge_probability(n=100, m=2, p=0.05, alpha=0.1, seed=0)
    assert abs(prm.p - 0.05) < 1e-15
    assert DbmParams(n=100, m=2, lam=2.0, alpha=0.1, seed=2**63 - 1).seed == 2**63 - 1


@pytest.mark.parametrize(
    "seed, message",
    [
        (-1, "^seed must be non-negative, got -1$"),
        (2**63, r"^seed must be below 2\*\*63, got 9223372036854775808$"),
        ("x", "^seed must be an integer, got 'x'$"),
        (True, "^seed must be an integer, got True$"),
        (1.0, "^seed must be an integer, got 1.0$"),
    ],
    ids=["negative", "past_int64", "text", "bool", "float"],
)
def test_params_refuse_a_seed_a_graph_file_cannot_store(seed, message):
    with pytest.raises(ValueError, match=message):
        DbmParams(n=100, m=2, lam=2.0, alpha=0.1, seed=seed)
    prm = DbmParams(n=100, m=2, lam=2.0, alpha=0.1, seed=0)
    with pytest.raises(ValueError, match=message):  # an override meets the same rule
        generate(prm, seed=seed)


def test_alpha_zero_no_rewiring():
    prm = DbmParams(n=300, m=3, lam=2.0, alpha=0.0, seed=1)
    graph, _ = generate(prm)
    validate(graph)
    assert not graph.rewired.any()
    src_comm = np.repeat(np.arange(graph.vertex_count) // prm.n, graph.out_degree)
    tgt_comm = graph.targets // prm.n
    assert (src_comm == tgt_comm).all()
    assert not graph.is_strongly_connected()  # m disjoint blocks
    assert not graph.rewired_out_degree.any()


def test_alpha_one_everything_rewired():
    prm = DbmParams(n=300, m=3, lam=2.0, alpha=1.0, seed=2)
    graph, _ = generate(prm)
    validate(graph)
    assert graph.rewired.all()
    src_comm = np.repeat(np.arange(graph.vertex_count) // prm.n, graph.out_degree)
    assert (src_comm != graph.targets // prm.n).all()
    assert np.array_equal(graph.rewired_out_degree, graph.out_degree)


def test_edge_count_within_four_sigma():
    prm = DbmParams(n=2000, m=2, lam=2.0, alpha=0.1, seed=3)
    graph, _ = generate(prm)
    trials = prm.m * prm.n * (prm.n - 1)
    mean = trials * prm.p
    sigma = math.sqrt(trials * prm.p * (1 - prm.p))
    assert abs(graph.edge_count - mean) < 4 * sigma


def test_gate_count_within_four_sigma():
    prm = DbmParams(n=2000, m=2, lam=2.0, alpha=0.01, seed=4)
    graph, _ = generate(prm)
    # a vertex is a gate unless all n-1 pair trials fail to rewire
    q = 1.0 - (1.0 - prm.alpha * prm.p) ** (prm.n - 1)
    sigma = math.sqrt(prm.n * q * (1 - q))
    for i in range(prm.m):
        count = np.count_nonzero(graph.rewired_out_degree[i * prm.n : (i + 1) * prm.n])
        assert abs(count - prm.n * q) < 4 * sigma


def test_out_degree_chisquare():
    # pool out-degrees over seeds and compare to Binomial(n-1, p)
    prm = DbmParams(n=300, m=2, lam=1.5, alpha=0.3, seed=0)
    pooled = np.concatenate(
        [generate(prm, seed=s)[0].out_degree for s in range(1, 11)]
    )
    ks = np.arange(prm.n)
    pmf = stats.binom.pmf(ks, prm.n - 1, prm.p)
    # bin the tails so every expected count is >= 5
    lo = int(np.searchsorted(np.cumsum(pmf), 0.005))
    hi = int(np.searchsorted(np.cumsum(pmf), 0.995))
    edges = [-0.5] + [k + 0.5 for k in range(lo, hi)] + [prm.n + 0.5]
    observed, _ = np.histogram(pooled, bins=edges)
    expected = np.diff([0.0] + list(np.cumsum(pmf)[lo:hi]) + [1.0]) * pooled.size
    stat, pvalue = stats.chisquare(observed, expected)
    assert pvalue > 0.01


def test_degree_table_identities():
    prm = DbmParams(n=400, m=3, lam=2.0, alpha=0.25, seed=6)
    graph, rewired_out_degree = generate(prm)
    # generate's second value, kept for the benchmark's hook, is the graph's count
    assert np.array_equal(rewired_out_degree, graph.rewired_out_degree)
    assert np.array_equal(graph.rewired_out_degree, leaving_out_degree(graph))
    assert graph.out_degree.sum() == graph.edge_count
    assert graph.rewired_out_degree.sum() == graph.rewired.sum()
    assert np.all(graph.rewired_out_degree <= graph.out_degree)
    for i in range(prm.m):
        sl = slice(i * prm.n, (i + 1) * prm.n)
        assert graph.out_degree[sl].sum() == pre_rewiring_in_degree(graph)[sl].sum()


def test_pre_rewiring_subgraph_structure():
    prm = DbmParams(n=400, m=3, lam=2.0, alpha=0.25, seed=7)
    graph, _ = generate(prm)
    for i in range(prm.m):
        sub = pre_rewiring_subgraph(graph, i)
        validate(sub)
        sl = slice(i * prm.n, (i + 1) * prm.n)
        assert np.array_equal(sub.out_degree, graph.out_degree[sl])
        in_deg = np.bincount(sub.targets, minlength=prm.n)
        assert np.array_equal(in_deg, pre_rewiring_in_degree(graph)[sl])


def test_pre_rewiring_is_alpha_zero_identity():
    prm = DbmParams(n=300, m=2, lam=2.0, alpha=0.0, seed=8)
    graph, _ = generate(prm)
    sub = pre_rewiring_subgraph(graph, 1)
    src = np.repeat(np.arange(graph.vertex_count), graph.out_degree)
    keep = src // prm.n == 1
    assert np.array_equal(
        sub.targets, graph.targets[keep] - prm.n
    )


def test_rewiring_reconstruction_involution():
    # mapping every edge to its pre-rewiring target and back via the
    # stored flags reproduces the original edge set exactly
    prm = DbmParams(n=300, m=3, lam=2.0, alpha=0.4, seed=9)
    graph, _ = generate(prm)
    src = np.repeat(np.arange(graph.vertex_count), graph.out_degree)
    original = list(zip(src.tolist(), graph.targets.tolist(), graph.rewired.tolist()))
    for i in range(prm.m):
        sub = pre_rewiring_subgraph(graph, i)
        sub_src = np.repeat(np.arange(prm.n), sub.out_degree)
        pre_edges = set(zip(sub_src.tolist(), sub.targets.tolist()))
        # forward: every original community-i edge restores into the sub
        mapped = {(s % prm.n, t % prm.n) for s, t, _ in original if s // prm.n == i}
        assert mapped == pre_edges
        # backward: re-applying the stored targets lands on the original
        back = set()
        for s, t, r in original:
            if s // prm.n != i:
                continue
            assert r == (t // prm.n != i)  # flags identify the moved edges
            back.add((s, t))
        assert len(back) == len(pre_edges)


def test_generation_determinism():
    prm = DbmParams(n=500, m=2, lam=2.0, alpha=0.3, seed=10)
    g1, _ = generate(prm)
    g2, _ = generate(prm)
    assert np.array_equal(g1.targets, g2.targets)
    assert np.array_equal(g1.indptr, g2.indptr)
    assert np.array_equal(g1.rewired, g2.rewired)
    g3, _ = generate(prm, seed=11)
    assert not np.array_equal(g1.targets, g3.targets)


# sha256 of generate's int64 indptr and targets bytes for three fixed params;
# any change to the edge draw, the rewiring draw or the edge order moves them
GOLDEN_EDGE_LAYOUT = [
    (
        DbmParams(n=300, m=2, lam=2.0, alpha=0.3, seed=21),
        "b6da4c65689b7923f2090ecbfe026a6bcdcb97e854266211040a9936e24318be",
        "6dbe3a158e5c980246c7877355549baf35d3b4e7d6ca98bb0066fa5e02a4e6e8",
    ),
    (
        DbmParams(n=200, m=3, lam=2.5, alpha=0.05, seed=22),
        "a28d38f3373dfdcd03cf3fb0d59cb1bc4829fcedd46d819f2b9ab8adfc1879e1",
        "bb8f692e84a50a8921420f92a2d553922bd7effe69b89be8a385f7c3962e52b1",
    ),
    (
        DbmParams(n=150, m=4, lam=3.0, alpha=1.0, seed=23),
        "51ef53944296b704ab6cb3bbd1edf94346d955ebf09c54136f4693ebdad70c53",
        "9b57002af97fccb43fe9cdaef58cfa669c3589150086233f4c9de214fc8d5486",
    ),
]


@pytest.mark.parametrize("prm, indptr_sha, targets_sha", GOLDEN_EDGE_LAYOUT, ids=["m2", "m3", "m4"])
def test_generated_edge_layout_is_pinned(prm, indptr_sha, targets_sha):
    graph, _ = generate(prm)
    for array, want in ((graph.indptr, indptr_sha), (graph.targets, targets_sha)):
        assert array.dtype == np.int64
        assert hashlib.sha256(array.tobytes()).hexdigest() == want


def check_edge_flags_against_explicit_sources(graph: Digraph) -> None:
    """Check ``rewired`` per segment, ``rewired_out_degree`` and each pre-rewiring subgraph.

    The reference for all three is an explicit ``np.repeat`` source array.
    """
    n, m = graph.n, graph.m
    src = np.repeat(np.arange(graph.vertex_count), np.diff(graph.indptr))
    leaves = graph.targets // n != src // n
    for c in range(m):
        lo, hi = graph.indptr[c * n], graph.indptr[(c + 1) * n]
        assert np.array_equal(graph.rewired[lo:hi], leaves[lo:hi])
    assert graph.rewired.shape == graph.targets.shape
    want = np.bincount(src[leaves], minlength=graph.vertex_count)
    assert np.array_equal(graph.rewired_out_degree, want)
    for c in range(m):
        keep = src // n == c
        labels, restored = src[keep] - c * n, graph.targets[keep] % n
        order = np.lexsort((restored, labels))
        sub = pre_rewiring_subgraph(graph, c)
        assert np.array_equal(sub.indptr, np.append(0, np.cumsum(np.bincount(labels, minlength=n))))
        assert np.array_equal(sub.targets, restored[order])


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(
    n=st.integers(2, 60),
    m=st.sampled_from([2, 3, 4, 5]),
    lam=st.floats(0.2, 2.5),
    alpha=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_edge_layout_matches_independent_rederivations(n, m, lam, alpha, seed):
    # at lambda below 1 many vertices draw no out-edge, which the source
    # lookup of rewired_out_degree must skip
    graph, rewired_out_degree = generate(DbmParams(n=n, m=m, lam=lam, alpha=alpha, seed=seed))
    assert rewired_out_degree is graph.rewired_out_degree
    validate(graph)
    check_edge_flags_against_explicit_sources(graph)
    for i in range(m):
        sub = pre_rewiring_subgraph(graph, i)
        assert not sub.rewired.any()
        validate(sub)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "g.npz")
        save_binary(graph, path)
        loaded = load_binary(path)
        with np.load(path) as stored:
            assert np.array_equal(stored["rewired"], graph.rewired)
    redrawn, _ = generate(loaded.params)
    for name in ("indptr", "targets", "rewired"):
        assert np.array_equal(getattr(loaded, name), getattr(graph, name))
        assert np.array_equal(getattr(loaded, name), getattr(redrawn, name))
    assert loaded.params == graph.params


def test_edge_flags_skip_vertices_without_out_edges():
    # a draw where a fifth of the vertices have no out-edge, and a hand-built
    # graph whose empty vertices sit at both ends of the community segments
    graph, _ = generate(DbmParams(n=200, m=3, lam=0.3, alpha=0.3, seed=4))
    assert np.count_nonzero(graph.out_degree == 0) > 100
    assert graph.rewired.any()
    check_edge_flags_against_explicit_sources(graph)
    edges = [(1, 2), (1, 3), (4, 5), (4, 0), (5, 7), (6, 8), (6, 4), (7, 6)]
    built = digraph_from_edges(9, edges, m=3)
    assert np.flatnonzero(built.out_degree == 0).tolist() == [0, 2, 3, 8]
    assert built.rewired_out_degree.tolist() == [0, 1, 0, 0, 1, 1, 1, 0, 0]
    check_edge_flags_against_explicit_sources(built)


def test_roundtrip_binary(tmp_path):
    for alpha, seed in ((0.0, 12), (1.0, 13), (0.3, 14)):
        prm = DbmParams(n=120, m=2, lam=1.5, alpha=alpha, seed=seed)
        graph, _ = generate(prm)
        path = tmp_path / f"g{seed}.npz"
        save_binary(graph, str(path))
        loaded = load_binary(str(path))
        assert np.array_equal(loaded.indptr, graph.indptr)
        assert np.array_equal(loaded.targets, graph.targets)
        assert np.array_equal(loaded.rewired, graph.rewired)
        assert loaded.params == graph.params


def test_load_rejects_format_mismatch(tmp_path):
    graph, _ = generate(DbmParams(n=50, m=2, lam=2.0, alpha=0.1, seed=7))
    good = tmp_path / "good.npz"
    save_binary(graph, str(good))
    arrays = dict(np.load(good))
    arrays["format_version"] = np.array([99])
    np.savez(tmp_path / "future.npz", **arrays)
    (tmp_path / "plain.npz").write_text("DBM 1 10 2 2.0 0.1 7\n")
    for name in ("future.npz", "plain.npz"):
        with pytest.raises(ValueError, match="DBM binary graph|format version"):
            load_binary(str(tmp_path / name))


def break_self_loop(a):
    v = int(np.flatnonzero(np.diff(a["indptr"]) > 0)[0])
    a["targets"][a["indptr"][v]] = v


def break_sorting(a):
    v = int(np.flatnonzero(np.diff(a["indptr"]) >= 2)[0])
    lo = a["indptr"][v]
    a["targets"][[lo, lo + 1]] = a["targets"][[lo + 1, lo]]
    a["rewired"][[lo, lo + 1]] = a["rewired"][[lo + 1, lo]]


def edge_source(a, k):
    return int(np.searchsorted(a["indptr"], k, side="right")) - 1


def retarget(a, k, target):
    """Point edge k at ``target``; its row stays sorted and its flags derived."""
    n, v = int(a["shape"][0]), edge_source(a, k)
    row = slice(a["indptr"][v], a["indptr"][v + 1])
    a["targets"][k] = target
    a["targets"][row] = np.sort(a["targets"][row])
    a["rewired"][row] = a["targets"][row] // n != v // n


# each of these leaves a valid graph on 2n vertices that no DBM draw makes:
# restoring labels gives a self loop or a repeated edge
def break_own_label(a):
    n, k = int(a["shape"][0]), int(np.flatnonzero(a["rewired"])[0])
    v = edge_source(a, k)
    retarget(a, k, (1 - v // n) * n + v % n)  # v's label in the other community


def break_shared_label(a):
    n, v = int(a["shape"][0]), int(np.flatnonzero(np.diff(a["indptr"]) >= 2)[0])
    first = int(a["targets"][a["indptr"][v]])
    retarget(a, a["indptr"][v] + 1, (1 - first // n) * n + first % n)


# every rule above holds for this edit, but it is not the draw of the parameters
def move_edge(a):
    n, row = int(a["shape"][0]), slice(a["indptr"][0], a["indptr"][1])
    k = a["indptr"][0] + int(np.flatnonzero(~a["rewired"][row])[0])  # vertex 0's first kept edge
    unused = np.setdiff1d(np.arange(1, n), a["targets"][row] % n)[0]
    retarget(a, k, unused)  # a label of community 0 that vertex 0 does not point at


def negative_seed(a):
    a["shape"][2] = -7


def break_range(a):
    a["targets"][-1] = a["indptr"].size - 1  # one past the last vertex


def break_flags(a):
    a["rewired"][0] = ~a["rewired"][0]


# alpha = 0 rewires no edge and alpha = 1 every edge, so a file whose
# alpha contradicts its edges cannot come from a DBM draw
def unrewired_alpha(a):
    a["reals"][1] = 0.0


def all_rewired_alpha(a):
    a["reals"][1] = 1.0


def break_indptr(a):
    a["indptr"][-1] -= 1  # the last edge falls outside every vertex


def drop_targets(a):
    del a["targets"]


def short_shape(a):
    a["shape"] = a["shape"][:2]


def empty_version(a):
    a["format_version"] = a["format_version"][:0]


# a cast to int64 or bool turns each of these back into the archive's own
# values, so only the dtype shows the tampering
def fractional_indptr(a):
    a["indptr"] = a["indptr"].astype(np.float64)
    a["indptr"][1] += 0.7


def fractional_targets(a):
    a["targets"] = a["targets"] + 0.5


def fractional_n(a):
    a["shape"] = a["shape"] + np.array([0.9, 0.0, 0.0])


def float_version(a):
    a["format_version"] = a["format_version"].astype(np.float64)


def integer_flags(a):
    a["rewired"] = a["rewired"].astype(np.int64)


def bool_reals(a):
    a["reals"] = a["reals"].astype(np.bool_)


def string_reals(a):
    a["reals"] = a["reals"].astype("<U3")


NOT_DRAWN = "its edges are not the draw of its parameters$"


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (break_self_loop, NOT_DRAWN),
        (break_sorting, NOT_DRAWN),
        (break_own_label, NOT_DRAWN),
        (break_shared_label, NOT_DRAWN),
        (move_edge, NOT_DRAWN),
        (negative_seed, "seed must be non-negative, got -7"),
        (break_range, NOT_DRAWN),
        (break_flags, NOT_DRAWN),
        (unrewired_alpha, NOT_DRAWN),
        (all_rewired_alpha, NOT_DRAWN),
        (break_indptr, NOT_DRAWN),
        (drop_targets, "targets is not a file in the archive"),
        (short_shape, "unpack"),
        (empty_version, "out of bounds"),
        (fractional_indptr, "indptr has dtype float64, not integer"),
        (fractional_targets, "targets has dtype float64, not integer"),
        (fractional_n, "shape has dtype float64, not integer"),
        (float_version, "format_version has dtype float64, not integer"),
        (integer_flags, "rewired has dtype int64, not bool"),
        (bool_reals, "reals has dtype bool, not floating"),
        (string_reals, "reals has dtype <U3, not floating"),
    ],
    ids=[
        "self_loop", "unsorted_targets", "own_label", "shared_label", "moved_edge",
        "negative_seed", "target_out_of_range", "flag_mismatch", "alpha_zero_rewired",
        "alpha_one_unrewired", "short_indptr", "missing_member", "short_shape", "empty_version",
        "fractional_indptr", "fractional_targets", "fractional_n", "float_version",
        "integer_flags", "bool_reals", "string_reals",
    ],
)
def test_load_binary_rejects_broken_graphs(tmp_path, corrupt, message):
    graph, _ = generate(DbmParams(n=100, m=2, lam=2.0, alpha=0.2, seed=15))
    path = tmp_path / "g.npz"
    save_binary(graph, str(path))
    arrays = dict(np.load(path))
    corrupt(arrays)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=message) as info:
        load_binary(str(path))
    assert str(info.value).startswith(f"{path}: ")


# a few stored bytes that name a huge draw
def oversized_n(a):
    a["shape"][0] = 10**9


def dense_lambda(a):
    a["reals"][0] = 20.0  # p = 0.92 at n = 100: ten times the stored edges


@pytest.mark.parametrize("corrupt", [oversized_n, dense_lambda], ids=["oversized_n", "dense_lambda"])
def test_load_binary_refuses_a_draw_the_file_cannot_hold(tmp_path, monkeypatch, corrupt):
    graph, _ = generate(DbmParams(n=100, m=2, lam=2.0, alpha=0.2, seed=15))
    path = tmp_path / "g.npz"
    save_binary(graph, str(path))
    arrays = dict(np.load(path))
    corrupt(arrays)
    np.savez(path, **arrays)

    def no_draw(params, seed=None):
        raise AssertionError("the loader drew a graph its file cannot hold")

    monkeypatch.setattr(graph_module, "generate", no_draw)
    with pytest.raises(ValueError, match=NOT_DRAWN) as info:
        load_binary(str(path))
    assert str(info.value).startswith(f"{path}: ")


def test_validate_catches_corruption(tmp_path):
    # the invariant oracle the generator tests call names each structural
    # break the loader refuses, and passes the moved edge only the loader sees
    graph, _ = generate(DbmParams(n=100, m=2, lam=2.0, alpha=0.2, seed=15))
    path = tmp_path / "g.npz"
    save_binary(graph, str(path))
    for corrupt, message in [
        (break_self_loop, "self loop"),
        (break_sorting, "sorted"),
        (break_own_label, "an edge targets its source's own label"),
        (break_shared_label, "two out-edges of a vertex share a target label"),
        (break_range, "out of range"),
        (unrewired_alpha, "alpha = 0 but 362 edges leave their community"),
        (all_rewired_alpha, "alpha = 1 but 1473 edges stay in their community"),
        (break_indptr, "indptr"),
        (move_edge, None),
    ]:
        arrays = dict(np.load(path))
        corrupt(arrays)
        params = replace(graph.params, alpha=float(arrays["reals"][1]))
        broken = Digraph(params.n, params.m, arrays["indptr"], arrays["targets"], params)
        if message is None:
            validate(broken)
        else:
            with pytest.raises(ValueError, match=message):
                validate(broken)


def test_local_graphs_strongly_connected_whp():
    hits = 0
    for seed in range(1, 21):
        prm = DbmParams(n=2000, m=2, lam=2.0, alpha=0.01, seed=seed)
        graph, _ = generate(prm)
        if pre_rewiring_subgraph(graph, 0).is_strongly_connected():
            hits += 1
    assert hits >= 19


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    n=st.integers(2, 60),
    m=st.sampled_from([2, 3, 4]),
    lam=st.floats(1.2, 2.8),
    alpha=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_strong_connectivity_matches_csgraph(n, m, lam, alpha, seed):
    # at these densities about half the graphs and subgraphs are not strongly connected
    graph, _ = generate(DbmParams(n=n, m=m, lam=lam, alpha=alpha, seed=seed))
    for g in [graph] + [pre_rewiring_subgraph(graph, i) for i in range(m)]:
        assert g.is_strongly_connected() == strongly_connected_oracle(g)


# a cycle's vertex 0 has eccentricity k - 1, the most sweeps a check can take;
# dropping the edge into vertex 0 leaves a path that 0 reaches but nothing
# reaches back, and dropping one further on leaves a path 0 does not reach
# through; a sink is reached by all and reaches none, a source the reverse
STRONG_CONNECTIVITY_CASES = {
    **{f"cycle{k}": (k, cycle_edges(k), True) for k in (2, 3, 1000)},
    **{f"cycle{k}_without_its_edge_into_0": (k, cycle_edges(k)[:-1], False) for k in (2, 3, 1000)},
    "cycle1000_without_one_middle_edge": (1000, cycle_edges(1000)[:500] + cycle_edges(1000)[501:], False),
    "complete4_with_a_sink": (5, [(u, v) for u in range(4) for v in range(5) if u != v], False),
    "complete4_with_a_source": (5, [(u, v) for u in range(5) for v in range(4) if u != v], False),
    "sink_at_vertex_0": (3, [(1, 2), (2, 1), (1, 0)], False),
}


@pytest.mark.parametrize("size, edges, expected", STRONG_CONNECTIVITY_CASES.values(),
                         ids=STRONG_CONNECTIVITY_CASES.keys())
def test_strong_connectivity_on_fixed_graphs(size, edges, expected):
    graph = digraph_from_edges(size, edges)
    assert strongly_connected_oracle(graph) == expected
    assert graph.is_strongly_connected() == expected


def test_degree_extremes_interval_from_pmf():
    # fix the acceptance interval from exact binomial quantiles: bounds
    # such that all 3 degree families stay inside on ~99% of graphs
    prm = DbmParams(n=4000, m=2, lam=2.0, alpha=0.01, seed=0)
    n, p = prm.n, prm.p
    ks = np.arange(n)
    cdf = np.cumsum(stats.binom.pmf(ks, n - 1, p))
    n_draws = 3 * prm.m * n  # three degree families per vertex
    lo = int(np.searchsorted(cdf, 0.005 / n_draws))
    hi = int(np.searchsorted(cdf, 1.0 - 0.005 / n_draws))
    ok = 0
    for seed in range(1, 21):
        graph, _ = generate(prm, seed=seed)
        d_in = np.bincount(graph.targets, minlength=graph.vertex_count)
        families = (graph.out_degree, d_in, pre_rewiring_in_degree(graph))
        if all(lo <= d.min() and d.max() <= hi for d in families):
            ok += 1
    assert ok >= 19


def test_degree_extremes_regular_and_empty():
    regular = k_regular_digraph(30, 4)
    for d in (regular.out_degree, pre_rewiring_in_degree(regular)):
        assert d.min() == d.max() == 4  # constant degrees
    empty = digraph_from_edges(10, [])
    assert empty.out_degree.max() == pre_rewiring_in_degree(empty).max() == 0
