"""Constrained optimization with funnel and filter globalization.

Double-loop restoration SQP: an outer loop commits iterates while an inner
loop (trust region or backtracking line search) proposes trial steps whose
acceptance is decided by an interchangeable funnel or filter strategy.
"""

from .config import (FilterParams, FunnelParams, LineSearchParams,
                     SolverConfig, SubproblemParams, TrustRegionParams,
                     apply_overrides)
from .driver import SolveResult, format_trace, solve
from .dsl import (format_model, load_file, load_source, model_to_general,
                  parse_model)
from .errors import (DimensionMismatch, DuplicateDeclaration, FunnelSqpError,
                     MaxPivots, NonFiniteValue, NotSymmetric, ParseError,
                     RegularizationFailed, RestorationStall,
                     SmallStepInfeasible, UndeclaredVariable, UnknownProblem)
from .problems import (EvalCounters, GeneralProblem, NcoProblem, get_problem,
                       infeasibility, problem_names, to_standard_form)
from .qp import QpData, QpSolution, kkt_residual, solve_qp
from .strategies import FilterStrategy, FunnelStrategy

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatch", "DuplicateDeclaration", "EvalCounters",
    "FilterParams", "FilterStrategy", "FunnelParams", "FunnelSqpError",
    "FunnelStrategy", "GeneralProblem", "LineSearchParams", "MaxPivots",
    "NcoProblem", "NonFiniteValue", "NotSymmetric", "ParseError", "QpData",
    "QpSolution", "RegularizationFailed", "RestorationStall",
    "SmallStepInfeasible", "SolveResult", "SolverConfig", "SubproblemParams",
    "TrustRegionParams", "UndeclaredVariable", "UnknownProblem",
    "apply_overrides", "format_model", "format_trace", "get_problem",
    "infeasibility", "kkt_residual", "load_file", "load_source",
    "model_to_general", "parse_model", "problem_names", "solve", "solve_qp",
    "to_standard_form",
]
