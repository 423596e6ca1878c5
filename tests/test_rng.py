"""Derived-stream determinism and disjointness."""

from __future__ import annotations

import numpy as np

from dbmwalk.rng import NS_GRAPH, NS_RESTART, derived_rng


def test_same_key_same_stream():
    a = derived_rng(42, NS_GRAPH, 7).integers(0, 2**63, size=16)
    b = derived_rng(42, NS_GRAPH, 7).integers(0, 2**63, size=16)
    assert np.array_equal(a, b)


def test_distinct_keys_give_distinct_streams():
    keys = [(NS_GRAPH, 0), (NS_GRAPH, 1), (NS_RESTART, 0), (NS_GRAPH, 0, 1)]
    draws = [derived_rng(42, *k).integers(0, 2**63, size=8) for k in keys]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[j])


def test_distinct_seeds_give_distinct_streams():
    a = derived_rng(1, NS_GRAPH, 0).integers(0, 2**63, size=8)
    b = derived_rng(2, NS_GRAPH, 0).integers(0, 2**63, size=8)
    assert not np.array_equal(a, b)


def test_child_streams_do_not_depend_on_draw_order():
    first_then_second = [
        derived_rng(9, NS_RESTART, 0).random(4),
        derived_rng(9, NS_RESTART, 1).random(4),
    ]
    second_then_first = [
        derived_rng(9, NS_RESTART, 1).random(4),
        derived_rng(9, NS_RESTART, 0).random(4),
    ]
    assert np.array_equal(first_then_second[0], second_then_first[1])
    assert np.array_equal(first_then_second[1], second_then_first[0])

