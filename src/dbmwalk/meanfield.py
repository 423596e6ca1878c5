"""Community-level mean field of the rewired walk.

Tracking only the community of the walker gives an m-state chain that
stays put with probability 1 - alpha and moves to each other community
with probability alpha/(m-1).  Its powers have a closed form, and its
distance to uniform gives the limiting shapes of the mixing profiles in
the three parameter regimes.
"""

from __future__ import annotations

import math

import numpy as np

REGIMES = ("subcritical", "critical", "supercritical_ent", "supercritical_alpha")


def q_matrix(m: int, alpha: float) -> np.ndarray:
    """One-step community kernel."""
    if m < 2:
        raise ValueError("need at least two communities")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    q = np.full((m, m), alpha / (m - 1))
    np.fill_diagonal(q, 1.0 - alpha)
    return q


def subdominant_eigenvalue(m: int, alpha: float) -> float:
    """b = 1 - m*alpha/(m-1), the community kernel's eigenvalue off uniform.

    The rate at which the community chain forgets its start.
    """
    return 1.0 - m * alpha / (m - 1)


def q_power_matrix(m: int, alpha: float, t: int) -> np.ndarray:
    """Exact t-th power of the community kernel.

    The kernel has eigenvalue 1 on the uniform direction and
    b = subdominant_eigenvalue(m, alpha) on its complement, so
    Q^t(i,j) = (1 + (m*[i==j] - 1) * b^t) / m.  Valid for all alpha in
    [0, 1], including b < 0 where entries oscillate.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    b = subdominant_eigenvalue(m, alpha)
    return (1.0 + (m * np.eye(m) - 1) * b**t) / m


def limiting_profile(
    regime: str, beta: float, m: int, c: float | None = None
) -> float:
    """Limiting mixing-profile value at scaled time beta.

    Regimes: "subcritical" and "critical" and "supercritical_ent" read
    beta as t / t_ent; "supercritical_alpha" reads beta as alpha * t.
    The step regimes are undefined exactly at beta = 1.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}, expected one of {REGIMES}")
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    plateau = (m - 1) / m
    if regime == "supercritical_alpha":
        return plateau * math.exp(-beta * m / (m - 1))
    if beta == 1.0:
        raise ValueError(f"profile for {regime!r} is discontinuous at beta = 1")
    if beta < 1.0:
        return 1.0
    if regime == "subcritical":
        return 0.0
    if regime == "supercritical_ent":
        return plateau
    if c is None or c <= 0.0:
        raise ValueError("critical profile needs the constant C > 0")
    return plateau * math.exp(-(beta / c) * m / (m - 1))
