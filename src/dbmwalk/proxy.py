"""Two-scale surrogate measures for the walk's long-run behavior.

The walk forgets its within-community position an order of magnitude
faster than it equilibrates across communities.  That suggests a
surrogate for the time-t law built from two ingredients: the community
mean-field chain run for the long leg, and a short quenched burn-in of
the uniform measure for the within-community shape.  The surrogates for
different starting communities share the burn-in columns and differ
only in mixture weights.  The loop that burns the columns in also steps
them on to the schedule horizon, which gives the exact law each
surrogate stands for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Digraph
from .meanfield import q_power_matrix
from .walk import ProbVector, propagate, transition_operator, tv_distance

BURN_IN_EPS = 0.2  # share eps of the entropic time given to the burn-in


@dataclass(frozen=True)
class TwoScaleSchedule:
    """Split of the entropic time into a long leg and a short burn-in.

    burn_in = ceil(2 * eps * t_ent) steps of the quenched kernel,
    long_leg = floor((1 - eps) * t_ent) steps of the community chain;
    the surrogate targets time long_leg + 1 + burn_in.
    """

    eps: float
    burn_in: int
    long_leg: int

    @staticmethod
    def from_entropic_time(t_ent: float) -> "TwoScaleSchedule":
        if t_ent <= 0.0:
            raise ValueError("t_ent must be positive")
        return TwoScaleSchedule(
            eps=BURN_IN_EPS,
            burn_in=math.ceil(2.0 * BURN_IN_EPS * t_ent),
            long_leg=math.floor((1.0 - BURN_IN_EPS) * t_ent),
        )


@dataclass(frozen=True)
class SurrogateMeasures:
    """Per-start-community surrogates, their common average, and two distances.

    ``per_community[i]`` approximates the law of the walk started
    uniformly in community i at the schedule horizon; ``average`` is
    their mean, the global uniform measure burned in for the schedule's
    ``burn_in`` steps.  ``tv_to_average[i]`` is the TV distance from
    surrogate i to the average: near zero once the community chain has
    equilibrated over the long leg, near its starting value when it has
    not.  ``tv_to_true[i]`` is the TV distance from surrogate i to the
    law it approximates, the uniform measure on community i stepped
    long_leg + 1 + burn_in times by the quenched kernel.
    """

    per_community: tuple[ProbVector, ...]
    average: ProbVector
    tv_to_average: np.ndarray
    tv_to_true: np.ndarray


def surrogate_measures(
    graph: Digraph, schedule: TwoScaleSchedule
) -> SurrogateMeasures:
    """Build the two-scale surrogates on a generated graph."""
    n, m = graph.params.n, graph.params.m
    big_n = graph.vertex_count
    # step a uniform column per community, all in one batch, to the end
    # of the burn-in and on to the horizon
    cols = np.zeros((big_n, m))
    for k in range(m):
        cols[k * n : (k + 1) * n, k] = 1.0 / n
    horizon = schedule.long_leg + 1 + schedule.burn_in
    burned, exact = propagate(transition_operator(graph), cols, [schedule.burn_in, horizon])
    weights = q_power_matrix(m, graph.params.alpha, schedule.long_leg + 1)
    mixed = burned @ weights.T  # column i: sum_k weights[i,k] * burned[:,k]
    average = ProbVector(burned.mean(axis=1))
    parts = tuple(ProbVector(mixed[:, i]) for i in range(m))
    tvs = [tv_distance(nu_i, average) for nu_i in parts]
    to_true = [tv_distance(nu_i, ProbVector(exact[:, i])) for i, nu_i in enumerate(parts)]
    return SurrogateMeasures(parts, average, np.array(tvs), np.array(to_true))
