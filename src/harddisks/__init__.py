"""Lower bounds on the hard-disk critical density via an optimized coupling metric."""

from .contraction import (
    BoundResult,
    ConstraintSystem,
    assemble,
    feasible,
    lp_feasible,
    max_density,
    minimal_metric,
    repaired_metric,
)
from .coupling import ContractionEstimate, CoupledPair, coupled_step, estimate_contraction, make_pair
from .dynamics import ChainStats, Configuration, random_config, run, step
from .geometry import TorusPoint, crescent_angle, crescent_area, torus_dist
from .metric import PiecewiseMetric, analytic_small_ell, check_axioms, pair_distance

__version__ = "0.1.0"

__all__ = [
    "BoundResult", "ConstraintSystem", "assemble", "feasible", "lp_feasible",
    "max_density", "minimal_metric", "repaired_metric",
    "ContractionEstimate", "CoupledPair",
    "coupled_step", "estimate_contraction", "make_pair", "ChainStats",
    "Configuration", "random_config", "run", "step",
    "TorusPoint", "crescent_angle", "crescent_area", "torus_dist",
    "PiecewiseMetric", "analytic_small_ell", "check_axioms", "pair_distance",
    "__version__",
]
