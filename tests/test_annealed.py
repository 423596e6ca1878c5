"""Revealed-walk tests, anchored by exhaustive enumeration of the path law."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy import stats

from dbmwalk.annealed import (
    annealed_community_law,
    annealed_jump_survival,
    annealed_walk,
    annealed_walks,
)
from dbmwalk.graph import DbmParams
from dbmwalk.meanfield import q_power_matrix
from dbmwalk.rng import NS_ANNEALED, derived_rng

SMALL = DbmParams.from_edge_probability(n=5, m=2, p=0.6, alpha=0.3, seed=0)


def exact_two_step_law(params: DbmParams, start: int = 0) -> dict:
    """Exhaustive law of the first two revealed steps.

    Each of the n-1 other labels is independently absent, an intra edge,
    or a rewired edge, with weights (1-p, p(1-alpha), p*alpha); at m = 2
    the rewired community is forced.  Distinct vertices reveal
    independently and the two-step path never reuses a neighborhood, so
    the path law is a product over the two visited configurations.
    """
    assert params.m == 2
    n, p, alpha = params.n, params.p, params.alpha
    cases = ((1.0 - p, None), (p * (1.0 - alpha), "intra"), (p * alpha, "cross"))

    def configs(v: int):
        comm, label = divmod(v, n)
        others = [lab for lab in range(n) if lab != label]
        for assign in itertools.product(range(3), repeat=n - 1):
            prob = 1.0
            targets = []
            for lab, a in zip(others, assign):
                weight, kind = cases[a]
                prob *= weight
                if kind == "intra":
                    targets.append(comm * n + lab)
                elif kind == "cross":
                    targets.append((1 - comm) * n + lab)
            yield prob, targets

    law: dict = {}
    for p0, t0 in configs(start):
        if not t0:
            law[("stuck",)] = law.get(("stuck",), 0.0) + p0
            continue
        for u in t0:
            pu = p0 / len(t0)
            for p1, t1 in configs(u):
                if not t1:
                    key = (u, "stuck")
                    law[key] = law.get(key, 0.0) + pu * p1
                else:
                    for w in t1:
                        key = (u, w)
                        law[key] = law.get(key, 0.0) + pu * p1 / len(t1)
    return law


def exact_path_law(params: DbmParams, start: int, t: int) -> dict:
    """Exhaustive law of the revealed walk's first t steps.

    A vertex left for the first time gets one of its (m+1)^(n-1)
    out-neighbourhoods: each other label is absent, an intra edge, or an
    edge rewired to one of the m-1 other communities, with weights 1-p,
    p(1-alpha) and p*alpha/(m-1).  Leaving a vertex again reuses the
    neighbourhood it got, so revisits are enumerated exactly.  Keys are
    the vertices after the start, ending in "stuck" for a walk stopped by
    an empty neighbourhood.
    """
    n, m, p, alpha = params.n, params.m, params.p, params.alpha

    def configs(v: int):
        comm, label = divmod(v, n)
        others = [lab for lab in range(n) if lab != label]
        cases = [(1.0 - p, None), (p * (1.0 - alpha), comm)] + [
            (p * alpha / (m - 1), c) for c in range(m) if c != comm
        ]
        for assign in itertools.product(cases, repeat=n - 1):
            prob = float(np.prod([weight for weight, _ in assign]))
            kept = [(lab, c) for lab, (_, c) in zip(others, assign) if c is not None]
            targets = [c * n + lab for lab, c in kept]
            yield prob, targets

    law: dict = {}

    def walk(v: int, left: int, revealed: dict, prob: float, key: tuple) -> None:
        if left == 0:
            law[key] = law.get(key, 0.0) + prob
            return
        hoods = [(1.0, revealed[v])] if v in revealed else configs(v)
        for q, targets in hoods:
            if not targets:
                law[key + ("stuck",)] = law.get(key + ("stuck",), 0.0) + prob * q
                continue
            known = {**revealed, v: targets}
            for u in targets:
                walk(u, left - 1, known, prob * q / len(targets), key + (u,))

    walk(start, t, {}, 1.0, ())
    return law


def outcome_key(row: np.ndarray) -> tuple:
    """Key of one batch path row in the enumerations' format."""
    after = [int(v) for v in row[1:] if v >= 0]
    return tuple(after) + (("stuck",) if row[-1] < 0 else ())


def outcome_counts(walks) -> dict:
    """Count a batch's outcomes by key (rows coded as one integer each)."""
    path = walks.path + 1  # stuck padding -1 becomes digit 0
    codes = np.ravel_multi_index(path.T, (int(path.max()) + 1,) * path.shape[1])
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    return {outcome_key(walks.path[i]): int(c) for i, c in zip(first, counts)}


def first_order_revisit_rate(n: int, m: int, alpha: float, t: int) -> float:
    """First-order probability that a t-step revealed walk revisits a vertex.

    While the path is cycle-free every step leaves a fresh vertex, so X_s
    carries a uniform label among the n-1 others and its community moves
    by the mean-field chain.  It lands on X_{s-k} (k >= 2; k = 1 would be
    a self loop) with probability (1/(n-1)) * Q^k(same community), where
    Q^k(same) = 1/m + (1-1/m) b^k and b = 1 - alpha*m/(m-1).  Summed over
    the t(t-1)/2 pairs (s, k) this is about t^2/(2n); overlaps between
    pairs are second order.
    """
    b = 1.0 - alpha * m / (m - 1)
    same = sum(
        1.0 / m + (1.0 - 1.0 / m) * b**k
        for s in range(2, t + 1)
        for k in range(2, s + 1)
    )
    return same / (n - 1)


def test_two_step_law_matches_enumeration():
    law = exact_two_step_law(SMALL)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    reps = 60_000
    rng = derived_rng(0, NS_ANNEALED, 0)
    counts = outcome_counts(annealed_walks(SMALL, 0, 2, reps, rng))
    assert set(counts) <= set(law)
    tv = 0.5 * sum(
        abs(counts.get(k, 0) / reps - prob) for k, prob in law.items()
    )
    assert tv < 0.03


def test_path_law_enumerations_agree():
    two = exact_two_step_law(SMALL)
    paths = exact_path_law(SMALL, 0, 2)
    assert set(paths) == set(two)
    assert max(abs(paths[k] - two[k]) for k in two) < 1e-12


@pytest.mark.parametrize("m, t, reps", [(2, 4, 300_000), (3, 3, 200_000)])
def test_revisit_law_matches_exact_enumeration(m, t, reps):
    # at n=3 every vertex has at most two out-edges, so walks revisit often
    # and both slot reuse and rejection of revealed labels are exercised
    prm = DbmParams.from_edge_probability(n=3, m=m, p=0.6, alpha=0.3, seed=0)
    law = exact_path_law(prm, 0, t)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    walks = annealed_walks(prm, 0, t, reps, derived_rng(13, NS_ANNEALED, m))
    assert 1.0 - walks.cycle_free.mean() > 0.2
    counts = outcome_counts(walks)
    assert set(counts) <= set(law)
    keys = sorted(law, key=law.get)
    expected = reps * np.array([law[k] for k in keys])
    observed = np.array([counts.get(k, 0) for k in keys], dtype=float)
    cut = int(np.sum(np.cumsum(expected) < 20.0))  # the rarest share one bin
    expected = np.r_[expected[: cut + 1].sum(), expected[cut + 1 :]]
    observed = np.r_[observed[: cut + 1].sum(), observed[cut + 1 :]]
    assert stats.chisquare(observed, expected).pvalue > 1e-4


def test_batch_revelations_are_consistent():
    prm = DbmParams.from_edge_probability(n=40, m=3, p=0.25, alpha=0.4, seed=0)
    t = 30
    walks = annealed_walks(prm, 7, t, 2000, derived_rng(2, NS_ANNEALED, 0))
    src, dst = walks.path[:, :-1], walks.path[:, 1:]
    moved = dst >= 0
    assert np.array_equal(moved.sum(axis=1), walks.steps)
    assert np.all(walks.stuck == (walks.steps < t))
    # no step keeps its own label (no self loops, rewired or not)
    assert np.all(src[moved] % prm.n != dst[moved] % prm.n)
    # leaving one vertex twice for the same label reaches the same vertex
    walker = np.broadcast_to(np.arange(walks.path.shape[0])[:, None], src.shape)
    edges = np.stack([walker[moved], src[moved], dst[moved] % prm.n, dst[moved]])
    keys = np.unique(edges[:3], axis=1).shape[1]
    assert keys == np.unique(edges, axis=1).shape[1]
    assert keys < moved.sum()  # some edges were taken twice
    assert 0.0 < walks.cycle_free.mean() < 1.0


def test_one_walk_is_a_batch_row():
    prm = DbmParams.from_edge_probability(n=40, m=3, p=0.25, alpha=0.4, seed=0)
    one = annealed_walk(prm, 7, 12, derived_rng(3, NS_ANNEALED, 0))
    row = annealed_walks(prm, 7, 12, 1, derived_rng(3, NS_ANNEALED, 0))
    assert np.array_equal(one.vertices, row.path[0, : row.steps[0] + 1])
    assert one.stuck == row.stuck[0] and one.cycle_free == row.cycle_free[0]
    assert (one.jump_time or 13) == row.jump_time[0]


def test_alpha_zero_walk_stays_home():
    prm = DbmParams.from_edge_probability(n=50, m=2, p=0.3, alpha=0.0, seed=0)
    rng = derived_rng(4, NS_ANNEALED, 0)
    for start in (0, 60):
        walks = annealed_walks(prm, start, 12, 1, rng)
        assert not walks.stuck.any()
        assert np.all(walks.jump_time == 13)
        assert np.all(walks.path // prm.n == start // prm.n)


def test_full_density_first_step_is_uniform():
    prm = DbmParams.from_edge_probability(n=6, m=2, p=1.0, alpha=0.0, seed=0)
    rng = derived_rng(5, NS_ANNEALED, 0)
    reps = 5000
    first = annealed_walks(prm, 0, 1, reps, rng).path[:, 1]
    counts = np.bincount(first, minlength=6)[1:6]
    assert counts.sum() == reps
    assert stats.chisquare(counts).pvalue > 1e-4


def test_exchangeable_starts_in_one_community():
    a = annealed_community_law(SMALL, start=0, t=2, reps=12_000, seed=31)
    b = annealed_community_law(SMALL, start=2, t=2, reps=12_000, seed=32)
    se = np.sqrt(a.conditional_se**2 + b.conditional_se**2)
    assert np.all(np.abs(a.conditional - b.conditional) < 4 * se + 1e-9)


def test_community_law_matches_mean_field_row():
    prm = DbmParams.from_edge_probability(n=400, m=3, p=0.02, alpha=1.0, seed=0)
    law = annealed_community_law(prm, start=0, t=4, reps=10_000, seed=6)
    want = q_power_matrix(3, 1.0, 4)[0]
    assert np.abs(law.q_row - want).max() < 1e-14
    dev = np.abs(law.conditional - law.q_row) / np.maximum(law.conditional_se, 1e-12)
    assert dev.max() < 5.0
    # the joint law factors exactly through the no-revisit rate
    assert np.abs(law.joint - law.conditional * law.cycle_free_rate).max() < 1e-12
    assert 0.0 < law.cycle_free_rate <= 1.0
    assert law.conditional.sum() == pytest.approx(1.0)


def test_revisit_rate_matches_first_order_prediction():
    # the revisit (or stuck) share is what the joint community law misses;
    # the prediction is 5.85% here, and pred^2/2 allows for the second-order
    # term the formula leaves out
    prm = DbmParams(n=400, m=2, lam=2.0, alpha=0.05, seed=0)
    reps = 20_000
    law = annealed_community_law(prm, start=0, t=8, reps=reps, seed=12)
    rate = 1.0 - law.cycle_free_rate
    pred = first_order_revisit_rate(prm.n, prm.m, prm.alpha, 8)
    se = np.sqrt(pred * (1.0 - pred) / reps)
    assert abs(rate - pred) < 4 * se + pred**2 / 2


def test_horizon_guard():
    prm = DbmParams.from_edge_probability(n=100, m=2, p=0.2, alpha=0.2, seed=0)
    with pytest.raises(ValueError, match="short-time"):
        annealed_community_law(prm, start=0, t=101, reps=10, seed=0)
    with pytest.raises(ValueError, match="short-time"):
        annealed_jump_survival(prm, t_max=101, reps=10, seed=0)


def test_jump_survival_extremes():
    sure = DbmParams.from_edge_probability(n=30, m=2, p=0.5, alpha=1.0, seed=0)
    surv = annealed_jump_survival(sure, t_max=3, reps=2000, seed=7)
    assert surv.survival[0] == 1.0
    assert surv.survival[1] == 0.0
    never = DbmParams.from_edge_probability(n=30, m=2, p=0.5, alpha=0.0, seed=0)
    flat = annealed_jump_survival(never, t_max=5, reps=500, seed=8)
    assert np.all(flat.survival == 1.0)
    assert np.all(flat.theory == 1.0)


def test_jump_survival_tracks_fresh_step_theory():
    prm = DbmParams(n=2000, m=2, lam=2.0, alpha=0.05, seed=0)
    surv = annealed_jump_survival(prm, t_max=10, reps=3000, seed=9)
    assert np.abs(surv.theory - (1 - 0.05) ** surv.times).max() < 1e-15
    # revisits are rare at this n, so fresh-edge theory holds pointwise
    gap = np.abs(surv.survival - surv.theory)
    assert np.all(gap <= 4 * surv.stderr + 0.015)
