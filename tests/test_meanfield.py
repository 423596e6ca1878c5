"""Closed-form community-chain results checked against matrix algebra."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import meanfield_tv
from dbmwalk.meanfield import (
    REGIMES,
    limiting_profile,
    q_matrix,
    q_power_matrix,
    subdominant_eigenvalue,
)


def test_q_matrix_examples():
    assert np.array_equal(q_matrix(3, 0.0), np.eye(3))
    want = np.array([[0.75, 0.25], [0.25, 0.75]])
    assert np.allclose(q_matrix(2, 0.25), want, atol=1e-15)
    assert np.allclose(q_matrix(2, 1.0), np.array([[0.0, 1.0], [1.0, 0.0]]))
    for m in (2, 3, 5):
        assert np.allclose(q_matrix(m, 0.37).sum(axis=1), 1.0)
    with pytest.raises(ValueError):
        q_matrix(1, 0.5)
    with pytest.raises(ValueError):
        q_matrix(3, 1.2)


def test_closed_power_matches_repeated_multiplication():
    for m in range(2, 7):
        for alpha in (0.0, 0.01, 0.1, 0.5, 0.9, 1.0):
            q = q_matrix(m, alpha)
            for t in (0, 1, 2, 3, 7, 20, 200):
                want = np.linalg.matrix_power(q, t)
                got = q_power_matrix(m, alpha, t)
                assert np.abs(got - want).max() < 1e-12


def test_subdominant_eigenvalue_is_the_kernels_second():
    for m in (2, 3, 5):
        for alpha in (0.002, 0.3, 1.0):
            eigs = sorted(np.linalg.eigvals(q_matrix(m, alpha)).real, reverse=True)
            assert eigs[0] == pytest.approx(1.0, abs=1e-14)
            assert np.allclose(eigs[1:], subdominant_eigenvalue(m, alpha), atol=1e-14)


def test_q_power_edge_cases():
    assert np.array_equal(q_power_matrix(4, 0.3, 0), np.eye(4))
    assert np.array_equal(q_power_matrix(4, 0.0, 17), np.eye(4))
    # two steps at alpha = 1/4: stay twice or swap twice
    assert q_power_matrix(2, 0.25, 2)[0, 0] == pytest.approx(0.625)
    assert q_power_matrix(2, 0.25, 2)[0, 1] == pytest.approx(0.375)
    with pytest.raises(ValueError):
        q_power_matrix(2, 0.25, -1)


def test_chapman_kolmogorov():
    for m, alpha in ((2, 0.2), (3, 0.7), (5, 1.0)):
        for s, t in ((1, 1), (2, 5), (10, 13)):
            lhs = q_power_matrix(m, alpha, s + t)
            rhs = q_power_matrix(m, alpha, s) @ q_power_matrix(m, alpha, t)
            assert np.abs(lhs - rhs).max() < 1e-13


def test_meanfield_tv_examples():
    for m in (2, 3, 6):
        assert meanfield_tv(m, 0.42, 0) == pytest.approx((m - 1) / m)
    assert meanfield_tv(2, 0.25, 1) == pytest.approx(0.25)
    # alpha = (m-1)/m kills the contraction factor outright
    for m in (2, 3, 4):
        assert meanfield_tv(m, (m - 1) / m, 1) == 0.0
    with pytest.raises(ValueError):
        meanfield_tv(2, 0.25, -3)


def test_meanfield_tv_equals_row_distance():
    # includes alpha > (m-1)/m where the factor is negative and oscillates
    for m in (2, 3, 5):
        for alpha in (0.05, 0.5, 0.8, 1.0):
            for t in (0, 1, 2, 3, 9, 40):
                row = q_power_matrix(m, alpha, t)[0]
                want = 0.5 * np.abs(row - 1.0 / m).sum()
                assert meanfield_tv(m, alpha, t) == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_closed_forms_where_the_contraction_factor_vanishes_or_turns_negative(m):
    # alpha = (m-1)/m makes b = 0 (one step mixes), alpha = 1 makes
    # b = -1/(m-1) (the powers oscillate; m = 2 swaps forever); just below
    # each, b is a tiny positive or a negative number close to its limit
    edges = [(m - 1) / m, 1.0]
    alphas = edges + [np.nextafter(a, 0.0) for a in edges] + [a - 1e-6 for a in edges]
    for alpha in alphas:
        q = q_matrix(m, alpha)
        for t in (0, 1, 2, 3, 4, 7, 20, 201):
            want = np.linalg.matrix_power(q, t)
            got = q_power_matrix(m, alpha, t)
            assert np.abs(got - want).max() < 1e-12, (alpha, t)
            for row in want:
                tv = 0.5 * np.abs(row - 1.0 / m).sum()
                assert meanfield_tv(m, alpha, t) == pytest.approx(tv, abs=1e-12)
    # m = 2 at alpha = 1 alternates between the identity and the swap
    if m == 2:
        assert np.array_equal(q_power_matrix(2, 1.0, 201), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert meanfield_tv(2, 1.0, 201) == meanfield_tv(2, 1.0, 200) == 0.5


def test_limiting_profile_exponential_regime():
    for m in (2, 3):
        plateau = (m - 1) / m
        assert limiting_profile("supercritical_alpha", 1e-12, m) == pytest.approx(
            plateau
        )
        for beta in (0.3, 1.0, 2.5):
            want = plateau * math.exp(-beta * m / (m - 1))
            assert limiting_profile("supercritical_alpha", beta, m) == pytest.approx(
                want, rel=1e-12
            )


def test_limiting_profile_step_regimes():
    assert limiting_profile("subcritical", 0.5, 2) == 1.0
    assert limiting_profile("subcritical", 1.5, 2) == 0.0
    assert limiting_profile("supercritical_ent", 0.97, 3) == 1.0
    assert limiting_profile("supercritical_ent", 1.03, 3) == pytest.approx(2 / 3)
    for regime in ("subcritical", "critical", "supercritical_ent"):
        with pytest.raises(ValueError, match="discontinuous"):
            limiting_profile(regime, 1.0, 2, c=2.0)
    with pytest.raises(ValueError, match="positive"):
        limiting_profile("subcritical", 0.0, 2)
    with pytest.raises(ValueError, match="unknown"):
        limiting_profile("diagonal", 0.5, 2)
    assert set(REGIMES) == {"subcritical", "critical", "supercritical_ent", "supercritical_alpha"}


def test_limiting_profile_critical():
    assert limiting_profile("critical", 0.4, 2, c=2.0) == 1.0
    want = 0.5 * math.exp(-2.0)
    assert limiting_profile("critical", 2.0, 2, c=2.0) == pytest.approx(want)
    with pytest.raises(ValueError, match="C"):
        limiting_profile("critical", 2.0, 2)
    with pytest.raises(ValueError, match="C"):
        limiting_profile("critical", 2.0, 2, c=-1.0)
    # large C approaches the plateau regime, small C the fast-decay one
    assert limiting_profile("critical", 1.5, 2, c=1e3) == pytest.approx(0.5, abs=1e-2)
    assert limiting_profile("critical", 1.5, 2, c=1e-3) == pytest.approx(0.0, abs=1e-3)

