"""Exception types raised by the quantdistill package.

Errors are grouped under two bases: ``QuantDistillError`` for numerical and
contract violations, and its subclass ``LatentFileError`` for structural
problems in on-disk latent, label, or document files. The command-line driver
maps ``LatentFileError`` and argument problems to exit status 2 and keeps
exit status 1 for verification failures.
"""


class QuantDistillError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(QuantDistillError):
    """Operands live in spaces of different dimension."""


class InsufficientPoints(QuantDistillError):
    """Fewer distinct input points than requested centroids."""


class EmptyCluster(QuantDistillError):
    """A centroid received no mass where positive mass is required."""


class InvalidTime(QuantDistillError):
    """A diffusion time lies outside the valid open-closed horizon window."""


class InvalidSpec(QuantDistillError):
    """A process or model description violates its own constraints."""


class SolverFailure(QuantDistillError):
    """The exact transport solver did not return an optimal solution."""


class NonFiniteLoss(QuantDistillError):
    """Training produced a NaN or infinite loss or gradient."""


class NoStepAccepted(QuantDistillError):
    """Training's first epoch accepted no step at any backtracked step size."""


class LatentFileError(QuantDistillError):
    """Base class for structural problems in on-disk inputs."""


class BadMagic(LatentFileError):
    """A binary latent file does not begin with the expected tag, or a text
    header does not match the expected column pattern."""


class TruncatedFile(LatentFileError):
    """Declared element counts do not match the actual payload length."""


class NonFiniteValue(LatentFileError):
    """An input file contains NaN or infinite entries."""


class EmptyFile(LatentFileError):
    """An input file contains no rows."""
