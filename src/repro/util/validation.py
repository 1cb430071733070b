"""Lightweight argument validators shared across the library.

Each validator raises one of the exceptions from :mod:`repro.util.errors`
with a message naming the offending argument, so failures in deep call
stacks stay diagnosable.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.util.errors import DTypeError, ShapeError


def check_1d(arr: np.ndarray, name: str) -> np.ndarray:
    """Require ``arr`` to be a 1-D ndarray; return it unchanged."""
    arr = np.asarray(arr)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


def check_dtype(arr: np.ndarray, dtypes: Sequence[type], name: str) -> np.ndarray:
    """Require ``arr.dtype`` to be one of ``dtypes``; return ``arr``."""
    allowed = tuple(np.dtype(d) for d in dtypes)
    if np.asarray(arr).dtype not in allowed:
        raise DTypeError(
            f"{name} has dtype {np.asarray(arr).dtype}, expected one of "
            f"{[str(d) for d in allowed]}"
        )
    return arr


def check_shape_match(
    shape: Tuple[int, ...], expected: Tuple[int, ...], name: str
) -> None:
    """Require ``shape == expected``."""
    if tuple(shape) != tuple(expected):
        raise ShapeError(f"{name} has shape {tuple(shape)}, expected {tuple(expected)}")


def check_positive(value: float, name: str) -> float:
    """Require ``value > 0``; return it as float."""
    value = float(value)
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_nonnegative(value: float, name: str) -> float:
    """Require ``value >= 0``; return it as float."""
    value = float(value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def check_index_range(
    indices: np.ndarray, upper: int, name: str
) -> np.ndarray:
    """Require every index in ``indices`` to lie in ``[0, upper)``.

    The error names the first offending index (in flat order) and the
    bound.
    """
    indices = np.asarray(indices)
    if indices.size:
        lo = int(indices.min())
        hi = int(indices.max())
        if lo < 0 or hi >= upper:
            flat = indices.ravel()
            pos = int(np.flatnonzero((flat < 0) | (flat >= upper))[0])
            raise ShapeError(
                f"{name}[{pos}] = {int(flat[pos])} is outside [0, {upper}) "
                f"(min={lo}, max={hi})"
            )
    return indices


def first_non_finite(values: np.ndarray) -> Optional[int]:
    """Flat position of the first NaN or infinite entry, or ``None``."""
    values = np.asarray(values)
    if values.dtype.kind not in "fc" or np.isfinite(values).all():
        return None
    return int(np.flatnonzero(~np.isfinite(values.ravel()))[0])
