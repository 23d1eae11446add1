"""Cohomogeneity-one special-holonomy and Einstein metrics over
Aloff-Wallach orbits: exact series solutions of the singular initial value
problems, smoothness checks, and numerical continuation with residual
monitoring."""

from .cases import CASES, ConstraintError, MissingSlotValue, OrbitCase, get_case
from .exact import TruncSeries, rat, rat_str
from .reptheory import (AloffWallach, circle_normalization, dim_W, dim_W_s5,
                        first_return_time)
from .solver import (InconsistentSystem, SeriesSolution, SmoothnessReport,
                     check_smoothness, einstein_series, free_slots,
                     solve_series)
from .systems import (State, SymmetryMap, SystemId, ZeroDenominator,
                      residual_einstein, rhs_first_order, symmetry_maps)

__all__ = [
    "AloffWallach", "CASES", "ConstraintError", "InconsistentSystem",
    "MissingSlotValue", "OrbitCase", "SeriesSolution", "SmoothnessReport",
    "State", "SymmetryMap", "SystemId", "TruncSeries", "ZeroDenominator",
    "check_smoothness", "circle_normalization", "dim_W", "dim_W_s5",
    "einstein_series", "first_return_time", "free_slots", "get_case", "rat",
    "rat_str", "residual_einstein", "rhs_first_order", "solve_series",
    "symmetry_maps",
]

__version__ = "0.1.0"
