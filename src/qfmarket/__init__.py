"""Clearing prices for divisible-good markets with budget-capped buyers.

Buyers have linear valuations and quasi-linear utility up to a hard budget;
money is good 0 with unit price. The package finds the (unique) minimal
feasible price vector, certifies it as clearing, extracts the allocation,
and ships oracles plus randomized property suites that cross-check every
structural claim the solver relies on.
"""

from . import feasibility, gridoracle, market, marketio, metrics, monopoly, numeric, proptest, solver
from .feasibility import *
from .gridoracle import *
from .market import *
from .marketio import *
from .metrics import *
from .monopoly import *
from .numeric import *
from .proptest import *
from .solver import *

__version__ = "0.1.0"

__all__ = sorted(
    feasibility.__all__ + gridoracle.__all__ + market.__all__ + marketio.__all__
    + metrics.__all__ + monopoly.__all__ + numeric.__all__ + proptest.__all__ + solver.__all__
)
