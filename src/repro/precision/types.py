"""Precision descriptors for storage and computation.

The paper's contribution hinges on a precision *combination* that libraries
did not support: matrix values stored in IEEE-754 half, vectors and
accumulation in double.  This module gives that combination (and the others
evaluated) a first-class description that kernels, the traffic model and the
roofline analysis all share.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


#: Precision value -> dtype, built once (kernels read it on every call).
_DTYPES = {
    "half": np.dtype(np.float16),
    "single": np.dtype(np.float32),
    "double": np.dtype(np.float64),
}


class Precision(enum.Enum):
    """Scalar precision of a stored value."""

    HALF = "half"
    SINGLE = "single"
    DOUBLE = "double"

    @property
    def dtype(self) -> np.dtype:
        """NumPy dtype corresponding to this precision."""
        return _DTYPES[self.value]

    @property
    def nbytes(self) -> int:
        """Bytes per value."""
        return _DTYPES[self.value].itemsize

    @staticmethod
    def from_dtype(dtype: np.dtype) -> "Precision":
        """Map a NumPy float dtype back to a :class:`Precision`."""
        dtype = np.dtype(dtype)
        for p in Precision:
            if p.dtype == dtype:
                return p
        raise ValueError(f"no Precision for dtype {dtype}")


@dataclass(frozen=True)
class MixedPrecision:
    """A full SpMV precision configuration.

    Attributes
    ----------
    matrix:
        storage precision of the matrix values.
    vector:
        storage precision of the input and output vectors.
    accumulate:
        precision partial sums are kept in (>= vector in practice).
    index_bytes:
        width of a stored column index (4 in the paper; 2 for the
        16-bit-index ablation it proposes).
    """

    matrix: Precision
    vector: Precision
    accumulate: Precision
    index_bytes: int = 4

    def __post_init__(self) -> None:
        if self.index_bytes not in (2, 4, 8):
            raise ValueError(f"unsupported index width {self.index_bytes} bytes")

    @property
    def name(self) -> str:
        """Short name used in bench output ('half/double', 'single', ...)."""
        if self.matrix == self.vector == self.accumulate:
            return self.matrix.value
        return f"{self.matrix.value}/{self.vector.value}"

    def bytes_per_nonzero(self) -> int:
        """Bytes of *unique* traffic one non-zero costs: value + column index.

        The input-vector gather is accounted separately by the traffic
        model because it is subject to cache reuse.
        """
        return self.matrix.nbytes + self.index_bytes

    @property
    def index_dtype(self) -> np.dtype:
        """NumPy dtype for stored column indices."""
        return {2: np.dtype(np.uint16), 4: np.dtype(np.int32), 8: np.dtype(np.int64)}[
            self.index_bytes
        ]


#: The paper's contributed configuration: half-stored matrix, double vectors.
HALF_DOUBLE = MixedPrecision(Precision.HALF, Precision.DOUBLE, Precision.DOUBLE)

#: Single precision everywhere — the library-comparison configuration.
SINGLE = MixedPrecision(Precision.SINGLE, Precision.SINGLE, Precision.SINGLE)

#: Full double precision (reference / upper bound on traffic).
DOUBLE = MixedPrecision(Precision.DOUBLE, Precision.DOUBLE, Precision.DOUBLE)

#: Half-stored matrix with 16-bit column indices — the paper's future-work
#: suggestion for the prostate-sized cases.
HALF_DOUBLE_SHORT_INDEX = MixedPrecision(
    Precision.HALF, Precision.DOUBLE, Precision.DOUBLE, index_bytes=2
)
