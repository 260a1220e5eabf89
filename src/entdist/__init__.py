"""Entanglement distribution rate models for adjacent quantum repeater nodes.

Closed-form rates, a reproducible Monte Carlo simulator and a swapping
degradation model for five arrangements: MM, SR, MS, AFC-MM and AFC-MS.
Each module's __all__ lists the names this package binds.
"""

from .analytic import *
from .harness import *
from .montecarlo import *
from .params import *
from .swapping import *

__version__ = "0.1.0"
