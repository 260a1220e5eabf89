"""Entanglement distribution rate models for adjacent quantum repeater nodes.

Closed-form rates, a reproducible Monte Carlo simulator and a swapping
degradation model for five arrangements: MM, SR, MS, AFC-MM and AFC-MS.
The package binds the __all__ names of analytic, harness, params and
swapping; montecarlo's are imported from entdist.montecarlo.
"""

from . import analytic, harness, params, swapping
from .analytic import *
from .harness import *
from .params import *
from .swapping import *

__version__ = "0.1.0"
__all__ = [*analytic.__all__, *harness.__all__, *params.__all__, *swapping.__all__]
