"""Entanglement distribution rate models for adjacent quantum repeater nodes.

Closed-form rates, a reproducible Monte Carlo simulator and a swapping
degradation model for five arrangements: MM, SR, MS, AFC-MM and AFC-MS.
Each module's __all__ lists the names this package binds. montecarlo's
are bound on first use (PEP 562): importing entdist and building a
scenario do not import it, and it loads numpy only where it samples.
"""

from .analytic import *
from .harness import *
from .params import *
from .swapping import *

__version__ = "0.1.0"
_MODULES = ("analytic", "harness", "montecarlo", "params", "swapping")
# The names that load montecarlo: the module, its __all__ (a test keeps the two in step), __all__.
_LAZY = frozenset({"montecarlo", "rng_for_seed", "subseeds", "EstimateColumns", "estimate_series", "__all__"})


def __getattr__(name: str) -> object:
    """A name of _LAZY; __all__ is the union of every module's. Any other name, such as cli, loads nothing."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module  # `from . import montecarlo` would recurse through this hook

    montecarlo = import_module(".montecarlo", __name__)
    namespace = globals()
    namespace.update({key: getattr(montecarlo, key) for key in montecarlo.__all__})
    namespace["__all__"] = [key for module in _MODULES for key in namespace[module].__all__]
    return namespace[name]


def __dir__() -> list[str]:
    __getattr__("__all__")  # binds montecarlo's names
    return sorted(globals())
