"""Lower bounds on the hard-disk critical density via an optimized coupling metric."""

from .contraction import (
    BoundResult,
    ConstraintSystem,
    assemble,
    max_density,
    repaired_metric,
)
from .coupling import ContractionEstimate, estimate_contraction
from .dynamics import ChainStats, Configuration, random_config, run
from .geometry import crescent_area
from .metric import PiecewiseMetric, analytic_small_ell, check_axioms

__version__ = "0.1.0"

__all__ = [
    "BoundResult", "ConstraintSystem", "assemble",
    "max_density", "repaired_metric",
    "ContractionEstimate", "estimate_contraction", "ChainStats",
    "Configuration", "random_config", "run",
    "crescent_area",
    "PiecewiseMetric", "analytic_small_ell", "check_axioms",
    "__version__",
]
