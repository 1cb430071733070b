"""Compressed Sparse Row (CSR) matrices.

This is the format the paper converts RayStation's custom compressed format
into, and the format all evaluated SpMV kernels operate on.  We implement it
from scratch (three arrays: ``data`` in row-major order, ``indices`` with the
column of each value, ``indptr`` with the start of each row) rather than using
``scipy.sparse`` so that:

* value storage can be IEEE-754 half precision (``float16``) while keeping
  full control over the accumulation dtype, matching the paper's mixed
  half/double requirement;
* the index width is explicit (``int32`` by default, ``uint16`` available for
  the column-index-width ablation the paper proposes as future work);
* the GPU simulator can inspect raw arrays to count memory transactions.

Pricing a matrix reads its :class:`CSRStructure`, which the matrix builds
from its frozen arrays the first time it is priced and then holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from repro.util.errors import DTypeError, FormatError, ShapeError
from repro.util.validation import check_1d, check_index_range

#: Value dtypes a dose deposition matrix may be stored in.
VALUE_DTYPES = (np.float16, np.float32, np.float64)

#: Index dtypes supported for ``indices`` (column indices).
INDEX_DTYPES = (np.int32, np.int64, np.uint16, np.uint32)


def _frozen_private(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only, copied first unless nothing else can write
    its memory.

    A writeable array is copied: its caller, or a view the caller took of
    it earlier, can still write it, and NumPy records no link from an
    array to its views.  So is a read-only view whose memory belongs to a
    writeable array or a foreign buffer.  A read-only array that owns its
    memory, or a read-only view of read-only arrays (a block sliced from
    a frozen matrix), is kept as it is.
    """
    owner = arr
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        owner = owner.base
    if owner is not None:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class CSRStructure:
    """The device-independent structure pricing a CSR matrix reads.

    Built in one pass over each of the matrix's index arrays; both of
    its arrays are read-only.  :mod:`repro.gpu` derives warp iterations,
    idle lanes, the workload profile and the gather footprint from it in
    exact integers, so pricing a matrix again passes over none of its
    stored elements (DESIGN.md §17).
    """

    #: ``row_length_counts[n]`` rows hold ``n`` stored elements.
    row_length_counts: np.ndarray
    #: rows holding at least one stored element.
    n_nonempty_rows: int
    #: mean and standard deviation of the non-empty rows' lengths
    #: (both 0.0 when every row is empty).
    mean_row_length: float
    std_row_length: float
    #: the distinct column ids the stored elements reference, ascending.
    touched_columns: np.ndarray

    @staticmethod
    def of(indices: np.ndarray, indptr: np.ndarray, n_cols: int) -> "CSRStructure":
        """Summarize CSR arrays whose indices lie in ``[0, n_cols)``."""
        lengths = np.diff(indptr).astype(np.intp, copy=False)
        counts = np.bincount(lengths)
        nonempty = lengths[lengths > 0].astype(np.float64)
        touched = np.flatnonzero(
            np.bincount(indices.astype(np.intp, copy=False), minlength=n_cols)
        )
        for arr in (counts, touched):
            arr.setflags(write=False)
        return CSRStructure(
            row_length_counts=counts,
            n_nonempty_rows=int(nonempty.size),
            mean_row_length=float(nonempty.mean()) if nonempty.size else 0.0,
            std_row_length=float(nonempty.std()) if nonempty.size else 0.0,
            touched_columns=touched,
        )


@dataclass(frozen=True)
class CSRMatrix:
    """An immutable CSR sparse matrix.

    Attributes
    ----------
    shape:
        ``(n_rows, n_cols)``.
    data:
        Non-zero values in row-major order, length ``nnz``.
    indices:
        Column index of each value, length ``nnz``.
    indptr:
        Row start offsets, length ``n_rows + 1``, monotonically
        non-decreasing, ``indptr[0] == 0`` and ``indptr[-1] == nnz``.
    """

    shape: Tuple[int, int]
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    def __post_init__(self) -> None:
        n_rows, n_cols = self.shape
        if n_rows < 0 or n_cols < 0:
            raise ShapeError(f"negative matrix shape {self.shape}")
        data = check_1d(self.data, "data")
        indices = check_1d(self.indices, "indices")
        indptr = check_1d(self.indptr, "indptr")
        if data.dtype not in [np.dtype(d) for d in VALUE_DTYPES]:
            raise DTypeError(f"unsupported value dtype {data.dtype}")
        if indices.dtype not in [np.dtype(d) for d in INDEX_DTYPES]:
            raise DTypeError(f"unsupported index dtype {indices.dtype}")
        if indptr.shape[0] != n_rows + 1:
            raise FormatError(
                f"indptr has length {indptr.shape[0]}, expected {n_rows + 1}"
            )
        if data.shape[0] != indices.shape[0]:
            raise FormatError(
                f"data ({data.shape[0]}) and indices ({indices.shape[0]}) "
                "length mismatch"
            )
        if indptr.shape[0] and (indptr[0] != 0 or indptr[-1] != data.shape[0]):
            raise FormatError(
                f"indptr endpoints ({indptr[0]}, {indptr[-1]}) do not match "
                f"nnz {data.shape[0]}"
            )
        if np.any(np.diff(indptr) < 0):
            raise FormatError("indptr must be monotonically non-decreasing")
        check_index_range(indices, n_cols, "indices")
        # Freeze the buffers so the dataclass, and the structure summary
        # derived from it, are genuinely immutable.
        object.__setattr__(self, "data", _frozen_private(data))
        object.__setattr__(self, "indices", _frozen_private(indices))
        object.__setattr__(self, "indptr", _frozen_private(indptr))

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _adopt(
        shape: Tuple[int, int],
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
    ) -> "CSRMatrix":
        """Build from arrays made for this matrix, without copying them.

        For code in :mod:`repro.sparse` that has just created the arrays
        and keeps no other reference: they are frozen first, so the
        constructor keeps each one that owns its memory.
        """
        for arr in (data, indices, indptr):
            arr.setflags(write=False)
        return CSRMatrix(shape, data, indices, indptr)

    @staticmethod
    def from_arrays(
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: Tuple[int, int],
    ) -> "CSRMatrix":
        """Build from raw arrays, normalizing dtypes (values kept as given)."""
        data = np.ascontiguousarray(data)
        indices = np.ascontiguousarray(indices)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        return CSRMatrix(tuple(shape), data, indices, indptr)

    @staticmethod
    def from_dense(
        dense: np.ndarray,
        value_dtype: np.dtype = np.float32,
        index_dtype: np.dtype = np.int32,
    ) -> "CSRMatrix":
        """Build from a dense 2-D array, dropping exact zeros."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ShapeError(f"dense must be 2-D, got {dense.shape}")
        rows, cols = np.nonzero(dense)
        data = dense[rows, cols].astype(value_dtype)
        indices = cols.astype(index_dtype)
        counts = np.bincount(rows, minlength=dense.shape[0])
        indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRMatrix._adopt(dense.shape, data, indices, indptr)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #

    @property
    def n_rows(self) -> int:
        """Number of rows (dose-grid voxels for a deposition matrix)."""
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        """Number of columns (spots for a deposition matrix)."""
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of stored non-zero values."""
        return int(self.data.shape[0])

    @property
    def density(self) -> float:
        """Fraction of entries stored (the paper's "non-zero ratio")."""
        total = self.n_rows * self.n_cols
        return self.nnz / total if total else 0.0

    @property
    def value_dtype(self) -> np.dtype:
        """Dtype the non-zero values are stored in."""
        return self.data.dtype

    @property
    def index_dtype(self) -> np.dtype:
        """Dtype the column indices are stored in."""
        return self.indices.dtype

    def row_lengths(self) -> np.ndarray:
        """Non-zeros per row, length ``n_rows`` (int64)."""
        return np.diff(self.indptr)

    @cached_property
    def structure(self) -> CSRStructure:
        """The summary pricing reads, built the first time it is asked for.

        It lives and dies with the matrix and derives from arrays frozen
        at construction, so it needs no key, no eviction and cannot go
        stale.
        """
        return CSRStructure.of(self.indices, self.indptr, self.n_cols)

    def nbytes(self) -> int:
        """Total bytes of the three storage arrays."""
        return int(self.data.nbytes + self.indices.nbytes + self.indptr.nbytes)

    def size_bytes_paper(self) -> int:
        """Bytes counted the way the paper's Table I does.

        Table I counts value + 4-byte column index per non-zero with the
        value width given by the storage precision; the indptr array is
        negligible and excluded.
        """
        return int(self.nnz * (self.data.dtype.itemsize + 4))

    # ------------------------------------------------------------------ #
    # Row access and arithmetic
    # ------------------------------------------------------------------ #

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(column_indices, values)`` views of row ``i``."""
        if not 0 <= i < self.n_rows:
            raise IndexError(f"row {i} out of range [0, {self.n_rows})")
        start, end = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.indices[start:end], self.data[start:end]

    def matvec(
        self, x: np.ndarray, accum_dtype: np.dtype = np.float64
    ) -> np.ndarray:
        """Reference SpMV ``y = A @ x`` with explicit accumulation dtype.

        This is the *numerical oracle* the simulated kernels are tested
        against.  Matrix values are widened to ``accum_dtype`` before the
        multiply, matching the paper's mixed-precision semantics where a
        half-stored value participates in a double-precision FMA.
        """
        x = np.asarray(x)
        if x.shape != (self.n_cols,):
            raise ShapeError(
                f"x has shape {x.shape}, expected ({self.n_cols},)"
            )
        vals = self.data.astype(accum_dtype, copy=False)
        contrib = vals * x.astype(accum_dtype, copy=False)[self.indices]
        y = np.zeros(self.n_rows, dtype=accum_dtype)
        # reduceat is deterministic left-to-right within each row segment.
        nz_rows = np.flatnonzero(np.diff(self.indptr) > 0)
        if nz_rows.size:
            starts = self.indptr[nz_rows].astype(np.int64)
            y[nz_rows] = np.add.reduceat(contrib, starts)
        return y

    def transpose_matvec(
        self, y: np.ndarray, accum_dtype: np.dtype = np.float64
    ) -> np.ndarray:
        """Compute ``A.T @ y`` (needed for optimization gradients)."""
        y = np.asarray(y)
        if y.shape != (self.n_rows,):
            raise ShapeError(f"y has shape {y.shape}, expected ({self.n_rows},)")
        vals = self.data.astype(accum_dtype, copy=False)
        per_row = np.repeat(
            y.astype(accum_dtype, copy=False), self.row_lengths()
        )
        out = np.zeros(self.n_cols, dtype=accum_dtype)
        np.add.at(out, self.indices.astype(np.int64), vals * per_row)
        return out

    def transposed(self) -> "CSRMatrix":
        """The explicit transpose as a CSR matrix (``A^T`` in CSR == A in CSC).

        The optimizer's gradient needs ``A^T g`` every iteration; running
        it through the same GPU kernels requires the transpose in CSR
        layout.  Built vectorized (counting sort over column indices);
        column indices of the result are sorted within rows.
        """
        n_rows, n_cols = self.shape
        cols = self.indices.astype(np.int64)
        counts = np.bincount(cols, minlength=n_cols)
        t_indptr = np.zeros(n_cols + 1, dtype=np.int64)
        np.cumsum(counts, out=t_indptr[1:])
        # Stable order within each output row: sort entries by (col, row).
        src_rows = np.repeat(np.arange(n_rows, dtype=np.int64), self.row_lengths())
        order = np.lexsort((src_rows, cols))
        index_dtype = np.int32 if n_rows <= np.iinfo(np.int32).max else np.int64
        t_indices = src_rows[order].astype(index_dtype)
        return CSRMatrix._adopt(
            (n_cols, n_rows), self.data[order], t_indices, t_indptr
        )

    def to_dense(self, dtype: np.dtype = np.float64) -> np.ndarray:
        """Materialize as a dense 2-D array (small matrices / tests only)."""
        out = np.zeros(self.shape, dtype=dtype)
        rows = np.repeat(np.arange(self.n_rows), self.row_lengths())
        out[rows, self.indices.astype(np.int64)] = self.data.astype(dtype)
        return out

    def astype(self, value_dtype: np.dtype) -> "CSRMatrix":
        """Return a copy with values cast to ``value_dtype``."""
        return CSRMatrix._adopt(
            self.shape,
            self.data.astype(value_dtype),
            self.indices.copy(),
            self.indptr.copy(),
        )

    def with_index_dtype(self, index_dtype: np.dtype) -> "CSRMatrix":
        """Return a copy with column indices in ``index_dtype``.

        Raises :class:`FormatError` if a column index does not fit, which is
        exactly the check the paper performs before suggesting 16-bit column
        indices for the prostate cases.
        """
        index_dtype = np.dtype(index_dtype)
        info = np.iinfo(index_dtype)
        if self.indices.size and (
            int(self.indices.max()) > info.max or int(self.indices.min()) < info.min
        ):
            raise FormatError(
                f"column indices up to {int(self.indices.max())} do not fit "
                f"in {index_dtype}"
            )
        return CSRMatrix._adopt(
            self.shape,
            self.data.copy(),
            self.indices.astype(index_dtype),
            self.indptr.copy(),
        )

    def sorted_indices(self) -> "CSRMatrix":
        """Return a copy with column indices sorted within each row."""
        data = np.array(self.data)
        indices = np.array(self.indices)
        for i in range(self.n_rows):
            start, end = int(self.indptr[i]), int(self.indptr[i + 1])
            order = np.argsort(indices[start:end], kind="stable")
            indices[start:end] = indices[start:end][order]
            data[start:end] = data[start:end][order]
        return CSRMatrix._adopt(self.shape, data, indices, self.indptr.copy())

    def has_sorted_indices(self) -> bool:
        """True if column indices are non-decreasing within every row."""
        for i in range(self.n_rows):
            start, end = int(self.indptr[i]), int(self.indptr[i + 1])
            seg = self.indices[start:end]
            if seg.size > 1 and np.any(np.diff(seg.astype(np.int64)) < 0):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"values={self.value_dtype}, indices={self.index_dtype})"
        )
