"""Random walks on the directed block model: generation, mixing, escape.

The package splits into graph generation (``graph``), quenched walk
analysis (``walk``), the community mean-field chain and its limiting
mixing profiles (``meanfield``), gate/escape structure (``qsd``), the
revealed-graph walk (``annealed``), two-scale surrogate measures
(``proxy``), and an experiment harness with a CLI (``experiments``,
``cli``).
"""

__version__ = "0.1.0"

from .graph import DbmParams, Digraph, generate
from .meanfield import limiting_profile
from .walk import entropy_and_entropic_time, mixing_profile, stationary, tv_distance

__all__ = [
    "__version__",
    "DbmParams",
    "Digraph",
    "generate",
    "limiting_profile",
    "entropy_and_entropic_time",
    "mixing_profile",
    "stationary",
    "tv_distance",
]
