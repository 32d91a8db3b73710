"""Exception types shared across the package."""


class LightconeError(Exception):
    """Base class for all library errors."""


class ValidationError(LightconeError):
    """Structurally invalid input (non-Hermitian matrix, bad schema, ...)."""


class DomainError(LightconeError):
    """Input outside the mathematical domain of an operation."""


class DegenerateInputError(LightconeError):
    """Geometric degeneracy: dependent vectors, singular decomposition."""


class ParseError(LightconeError):
    """Expression syntax error, with byte offset and the expected token set."""

    def __init__(self, message: str, offset: int, expected: frozenset[str] = frozenset()):
        self.offset = offset
        self.expected = frozenset(expected)
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected: " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)


class EvalError(LightconeError):
    """Boundary data not finite at a sample (a pole, log of zero); carries the sample."""

    def __init__(self, message: str, w: complex):
        self.w = w
        super().__init__(f"{message} at w = {w}")


class DataInconsistencyError(LightconeError):
    """Bjorling data fails an internal cross-check; carries the worst sample."""

    def __init__(self, message: str, u: float, residual: float):
        self.u = u
        self.residual = residual
        super().__init__(f"{message} (worst sample u = {u:.6g}, residual = {residual:.3e})")


class IntegrationError(LightconeError):
    """Frame integration hit a pole or produced non-finite values; carries w."""

    def __init__(self, message: str, w: complex):
        self.w = w
        super().__init__(f"{message} at w = {w}")


class StiffnessError(IntegrationError):
    """Step control underflowed (h < 1e-12)."""


class DegenerateMetricError(LightconeError):
    """First fundamental form too close to singular for curvature extraction."""


class BranchCutWarning(UserWarning):
    """Evaluation point is within 1e-6 of the principal branch cut."""
