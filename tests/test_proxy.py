"""Two-scale surrogate tests: exact identities plus regime sanity."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import dense_kernel
from dbmwalk.graph import DbmParams, generate
from dbmwalk.meanfield import meanfield_tv
from dbmwalk.proxy import (
    SurrogateMeasures,
    TwoScaleSchedule,
    mixture_identity_gap,
    surrogate_measures,
)
from dbmwalk.walk import tv_distance


@pytest.fixture(scope="module")
def fast_forgetting():
    """Rewiring strong enough that the community chain equilibrates."""
    params = DbmParams(n=1000, m=2, lam=3.0, alpha=0.3, seed=29)
    graph, _ = generate(params, 29)
    ent_guess = 2.3  # log(n)/H at this density; exact value not needed here
    return graph, TwoScaleSchedule.from_entropic_time(ent_guess)


def test_schedule_arithmetic():
    sched = TwoScaleSchedule.from_entropic_time(10.0, eps=0.2)
    assert sched.burn_in == 4
    assert sched.long_leg == 8
    assert sched.horizon == 13
    assert sched.eps == 0.2 and sched.t_ent == 10.0
    for eps in (0.0, 0.5, -0.1, 1.0):
        with pytest.raises(ValueError, match="eps"):
            TwoScaleSchedule.from_entropic_time(10.0, eps=eps)
    with pytest.raises(ValueError, match="t_ent"):
        TwoScaleSchedule.from_entropic_time(0.0)


def test_average_is_global_uniform_burned_in(fast_forgetting):
    graph, sched = fast_forgetting
    meas = surrogate_measures(graph, sched)
    want = np.full(graph.vertex_count, 1.0 / graph.vertex_count)
    kernel = dense_kernel(graph)
    for _ in range(sched.burn_in):
        want = want @ kernel
    assert np.abs(meas.average.values - want).max() < 1e-14


def test_zero_burn_in_average_is_exactly_uniform(fast_forgetting):
    graph, _ = fast_forgetting
    sched = TwoScaleSchedule(eps=0.2, t_ent=5.0, burn_in=0, long_leg=4)
    meas = surrogate_measures(graph, sched)
    assert np.abs(meas.average.values - 1.0 / graph.vertex_count).max() < 1e-15


def test_mixture_identity_is_exact(fast_forgetting):
    graph, sched = fast_forgetting
    meas = surrogate_measures(graph, sched)
    assert mixture_identity_gap(meas) < 1e-15


def test_two_community_surrogates_are_symmetric_about_average(fast_forgetting):
    # at m = 2 the average is the midpoint, so both TVs agree exactly
    graph, sched = fast_forgetting
    meas = surrogate_measures(graph, sched)
    assert meas.tv_to_average[0] == pytest.approx(meas.tv_to_average[1], abs=1e-15)


def test_spread_bounded_by_community_chain_tv(fast_forgetting):
    # mixing the shared burn-in columns can only shrink the row distance
    graph, sched = fast_forgetting
    meas = surrogate_measures(graph, sched)
    cap = meanfield_tv(graph.params.m, graph.params.alpha, sched.long_leg + 1)
    assert meas.tv_to_average.max() <= cap + 1e-12
    assert meas.tv_to_average.max() < 0.1  # chain has equilibrated in this regime


def test_spread_is_exact_plateau_without_rewiring():
    params = DbmParams(n=300, m=3, lam=3.0, alpha=0.0, seed=31)
    graph, _ = generate(params, 31)
    sched = TwoScaleSchedule.from_entropic_time(2.0)
    meas = surrogate_measures(graph, sched)
    # surrogates stay on disjoint communities: TV to the average is
    # (m-1)/m exactly, for every community
    assert np.abs(meas.tv_to_average - 2.0 / 3.0).max() < 1e-12
    assert meas.tv_to_average.max() == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_spread_stays_near_plateau_with_rare_rewiring():
    params = DbmParams(n=500, m=2, lam=3.0, alpha=0.001, seed=37)
    graph, _ = generate(params, 37)
    sched = TwoScaleSchedule.from_entropic_time(2.3)
    meas = surrogate_measures(graph, sched)
    assert meas.tv_to_average.max() > 0.4
    assert isinstance(meas, SurrogateMeasures)


def test_surrogates_are_probability_vectors(fast_forgetting):
    graph, sched = fast_forgetting
    meas = surrogate_measures(graph, sched)
    for nu in meas.per_community:
        nu.check()
    meas.average.check()
    # reported TVs are the actual distances
    for nu, tv in zip(meas.per_community, meas.tv_to_average):
        assert tv == pytest.approx(tv_distance(nu, meas.average), abs=1e-15)
