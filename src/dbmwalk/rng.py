"""Seed derivation for reproducible, order-independent random streams.

Every stochastic routine in this package takes either a root seed or a
``numpy.random.Generator``.  When a routine fans out into subtasks
(per-community generation, per-start trajectories, per-seed experiment
repetitions) it derives one child stream per subtask from the root seed
and the subtask's index.  Results are then independent of execution
order and thread count.
"""

from __future__ import annotations

import numpy as np

# Fixed namespace codes keep streams for different kinds of work disjoint
# even when their task indices coincide.
NS_GRAPH = 1
NS_TRAJECTORY = 2
NS_ANNEALED = 3
NS_RESTART = 4
NS_EXPERIMENT = 5


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Return a generator for subtask ``key`` under root ``seed``.

    ``key`` is a tuple of non-negative integers (namespace code first by
    convention).  The same (seed, key) pair always yields the same stream.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)

