"""Exception types shared across the package."""


class SurvCbpsError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(SurvCbpsError):
    """Input file or mapping does not have the expected columns/fields."""


class RowParseError(SurvCbpsError):
    """A data row failed validation.

    Carries the 1-based data row index (header excluded) and the
    offending column name.
    """

    def __init__(self, row, column, message):
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column {column!r}: {message}")


class DegenerateArmError(SurvCbpsError):
    """A treatment arm is empty or has no uncensored outcomes."""


class InputError(SurvCbpsError):
    """Invalid argument values (shapes, ranges, non-finite entries)."""


class FitError(SurvCbpsError):
    """Optimization failed in a way that leaves no usable fit."""


class InfeasibleBalanceError(FitError):
    """No positive weights balance the moment rows exactly.

    The inner dual found a direction lam with lam' g_i > 0 for every row
    g_i, which separates 0 from the rows, so the dual is unbounded.
    certificate is the lam found at beta = 0, in the original covariate
    scale and scaled to unit length: it has certificate' g_i > 0 for every
    row of stack_g at beta = 0, and one entry per moment.
    """

    def __init__(self, certificate):
        self.certificate = certificate
        super().__init__(
            f"exact balance of {len(certificate)} moments is infeasible at "
            "this beta: at both starting points a dual direction lam has "
            "lam' g_i > 0 for every row"
        )


class SelectionError(FitError):
    """No candidate on the tuning grid could be fitted."""


class SingularMatrixError(SurvCbpsError):
    """A matrix that must be inverted for inference is singular."""


class ConfigError(SurvCbpsError):
    """Simulation or CLI configuration is invalid."""


class DumpFormatError(SurvCbpsError):
    """A stored simulation dump is malformed or has an unknown schema."""
