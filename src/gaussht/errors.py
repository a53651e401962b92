"""Exception types shared across the package."""


class GaussHTError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GaussHTError):
    """Invalid input data; carries the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class ParseError(GaussHTError):
    """Malformed configuration document."""


class NonHermitianCoefficients(GaussHTError):
    """Stored Fourier coefficients violate c(-j) = conj(c(j))."""


class NegativeSymbol(GaussHTError):
    """Symbol takes a negative value on the validation grid."""


class SizeOverflow(GaussHTError):
    """Requested object exceeds the configured size cap."""


class ConvergenceFailure(GaussHTError):
    """The eigensolver failed to converge."""


class DomainError(GaussHTError):
    """A scalar function was evaluated outside its domain."""


class StrictPositivityRequired(GaussHTError):
    """Operation requires both symbols to be bounded away from zero."""


class NegativeParameter(GaussHTError):
    """A rate parameter that must be nonnegative was negative."""


class ParameterOutOfRange(GaussHTError):
    """A parameter lies outside the interval where the operation is defined."""


class NonFiniteIntegrand(GaussHTError):
    """The integrand is NaN or infinite at a quadrature node."""


class SpectralRadiusError(GaussHTError):
    """Operator norm is >= 1 where strict contraction is required."""


class BasisMismatch(GaussHTError):
    """The two Fock states do not live on the same truncated basis."""


class UnitarityDefect(GaussHTError):
    """Truncated displacement operator fails its exponential-vector self-test."""


class IoError(GaussHTError):
    """Report file could not be written."""
