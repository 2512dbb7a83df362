"""Exception and warning types shared across the package."""


class BolabError(Exception):
    """Base class for all package errors."""


class GridMismatchError(BolabError):
    """Operands live on different grids."""


class InputShapeError(BolabError):
    """Sample array length does not match the grid."""


class MultiplierDomainError(BolabError):
    """A Fourier multiplier is non-finite at a grid frequency."""


class SolverInstabilityError(BolabError):
    """The time integrator detected blow-up between snapshots."""


class KernelDomainError(BolabError):
    """A kernel specification violates its variant's preconditions."""


class DegenerateSeriesError(BolabError):
    """A decay series is unfit for log-log fitting (too short, or non-positive)."""


class ConfigError(BolabError, ValueError):
    """Invalid or incomplete experiment configuration, or an argument out of
    its domain (CLI exit code 2)."""


class DegenerateShellError(ConfigError):
    """A dyadic spatial shell does not fit inside the periodic box or weighs no grid point."""


class AcceptanceFailure(BolabError):
    """A numerical acceptance threshold was violated (CLI exit code 3)."""


class BandEdgeWarning(UserWarning):
    """A frequency projection band touches or exceeds the grid Nyquist."""


class AliasingWarning(UserWarning):
    """Input spectrum extends beyond the dealiasing margin for a multilinear op."""


class QuadratureWarning(UserWarning):
    """Adaptive quadrature did not converge; the returned value is an estimate."""
