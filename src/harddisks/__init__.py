"""Lower bounds on the hard-disk critical density via an optimized coupling metric.

Submodules and the public names load on first access (PEP 562), so that
importing the package, or its command line, starts no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = ("cli", "contraction", "coupling", "dynamics", "geometry", "metric")
_HOME = {  # each public name -> the submodule that defines it
    **dict.fromkeys(["BoundResult", "ConstraintSystem", "assemble", "max_density",
                     "repaired_metric"], "contraction"),
    **dict.fromkeys(["ContractionEstimate", "estimate_contraction"], "coupling"),
    **dict.fromkeys(["ChainStats", "Configuration", "random_config", "run"], "dynamics"),
    "crescent_area": "geometry",
    **dict.fromkeys(["PiecewiseMetric", "analytic_small_ell", "check_axioms"], "metric"),
}
__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
