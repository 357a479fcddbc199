"""Exception types shared across the solver modules."""


class FunnelSqpError(Exception):
    """Base class for all solver diagnostics.

    ``kind`` is a short machine-readable tag surfaced in SolveResult.error_kind.
    """

    kind = "error"


class NonFiniteValue(FunnelSqpError):
    """A function or derivative evaluation produced NaN or infinity."""

    kind = "non_finite_value"


class DimensionMismatch(FunnelSqpError):
    kind = "dimension_mismatch"


class NotSymmetric(FunnelSqpError):
    kind = "not_symmetric"


class MaxPivots(FunnelSqpError):
    """Active-set QP iteration cap reached; signals cycling."""

    kind = "qp_max_pivots"


class RegularizationFailed(FunnelSqpError):
    """Convexification ladder exhausted without correct inertia."""

    kind = "regularization_failed"


class SmallStepInfeasible(FunnelSqpError):
    """Trust region collapsed at an infeasible point."""

    kind = "small_step_infeasible"


class RestorationStall(FunnelSqpError):
    """Two consecutive restoration entries without an accepted step."""

    kind = "restoration_stall"


class ParseError(FunnelSqpError):
    """Model-file syntax error with source position."""

    kind = "parse_error"

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class UndeclaredVariable(ParseError):
    kind = "undeclared_variable"


class DuplicateDeclaration(ParseError):
    kind = "duplicate_declaration"


class UnknownProblem(FunnelSqpError):
    kind = "unknown_problem"
