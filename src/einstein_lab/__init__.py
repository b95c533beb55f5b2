"""Potential-theoretic measurements on finite weighted graphs."""

__version__ = "0.1.0"

from .errors import (ConvergenceError, GraphFormatError, MarginError,
                     UnreachableError)
from .graph import (WeightedGraph, annulus_volume, ball, boundary, closure,
                    load, save, volume)
from .generators import (binary_tree, lattice_box, sierpinski_gasket,
                         vicsek_tree)
from .potential import (EigenResult, GreenOperator, exit_law, exit_times,
                        g_condition, harnack_constant, hg_constant, lambda_min,
                        layered_lower_bound, max_exit_time, mean_exit_time,
                        resistance, resistance_annulus, shrunk_exit_time)
from .walker import McEstimate, WalkConfig, mc_exit_sample, mc_exit_time
from .conditions import (ConditionReport, EinsteinRecord, ExponentFit,
                         SweepGrid, auto_centers, default_grid,
                         einstein_report, fit_exponents, measure_condition,
                         verify_inequalities)

__all__ = [name for name in dir() if not name.startswith("_")]
