"""Exception hierarchy for the repro library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so downstream users can catch a single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ShapeError(ReproError, ValueError):
    """An array or matrix had an incompatible shape."""


class DTypeError(ReproError, TypeError):
    """An array had an unsupported or mismatched dtype."""


class FormatError(ReproError, ValueError):
    """A sparse-matrix format invariant was violated.

    Examples: non-monotone CSR ``indptr``, column index out of range,
    overlapping RSCF segments.
    """


class LaunchConfigError(ReproError, ValueError):
    """A simulated-GPU kernel launch configuration was invalid.

    Raised for non-multiple-of-warp block sizes, zero grids, or block sizes
    exceeding the device limit, mirroring a CUDA launch failure.
    """


class DeviceError(ReproError, ValueError):
    """Unknown device name or inconsistent device specification."""


class PlanMismatchError(ReproError, ValueError):
    """A precompiled execution plan does not fit the requested call.

    Raised when a plan's kernel family, accumulation precision, or source
    matrix identity differs from what the kernel was invoked with.
    """


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to converge within its iteration budget."""


class GeometryError(ReproError, ValueError):
    """Invalid geometry in the dose-calculation substrate.

    Examples: a beam axis of zero length, a spot grid outside the dose grid,
    a phantom with non-positive voxel spacing.
    """


class SummationOrderError(ReproError, RuntimeError):
    """SciPy's CSR product does not multiply, then add, each row's
    elements in stored order, so compiled plans cannot be bit-exact."""
