"""Conversions between sparse formats.

The central conversion is :func:`rscf_to_csr`, the step the paper performs
when exporting dose deposition matrices from RayStation before running the
GPU kernels.  The others support the format-ablation benches (ELLPACK and
SELL-C-sigma are the paper's named future work) and the Monte Carlo engine
(COO scoring output → CSR).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.ellpack import ELLMatrix
from repro.sparse.rscf import RSCFMatrix, quantize_block
from repro.sparse.sellcs import SellCSigmaMatrix
from repro.util.errors import FormatError


def coo_to_csr(
    coo: COOMatrix,
    value_dtype: np.dtype = np.float32,
    index_dtype: np.dtype = np.int32,
) -> CSRMatrix:
    """Convert COO to CSR, summing duplicate entries.

    Values are accumulated in float64 during the duplicate sum and cast to
    ``value_dtype`` at the end, so half-precision storage does not lose the
    many small Monte Carlo deposits that sum to a significant dose.
    """
    dedup = coo.sum_duplicates()
    counts = np.bincount(dedup.rows.astype(np.int64), minlength=dedup.n_rows)
    indptr = np.zeros(dedup.n_rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRMatrix._adopt(
        dedup.shape,
        dedup.data.astype(value_dtype),
        dedup.cols.astype(index_dtype),
        indptr,
    )


def csr_to_coo(csr: CSRMatrix) -> COOMatrix:
    """Convert CSR to COO (row-major entry order is preserved)."""
    rows = np.repeat(
        np.arange(csr.n_rows, dtype=np.int64), csr.row_lengths()
    )
    return COOMatrix(csr.shape, rows, csr.indices.astype(np.int64), csr.data.copy())


def csr_to_ellpack(csr: CSRMatrix, max_width: Optional[int] = None) -> ELLMatrix:
    """Convert CSR to ELLPACK, padding every row to the longest row.

    ``max_width`` may cap the width for testing; rows longer than the cap
    raise :class:`FormatError` (ELLPACK cannot drop values).
    """
    lengths = csr.row_lengths()
    width = int(lengths.max(initial=0))
    if max_width is not None:
        if width > max_width:
            raise FormatError(
                f"row of length {width} exceeds ELLPACK width cap {max_width}"
            )
        width = max_width
    values = np.zeros((csr.n_rows, width), dtype=csr.value_dtype)
    cols = np.full((csr.n_rows, width), -1, dtype=np.int64)
    for i in range(csr.n_rows):
        start, end = int(csr.indptr[i]), int(csr.indptr[i + 1])
        k = end - start
        values[i, :k] = csr.data[start:end]
        cols[i, :k] = csr.indices[start:end]
    return ELLMatrix(csr.shape, values, cols, lengths.astype(np.int64))


def ellpack_to_csr(
    ell: ELLMatrix, index_dtype: np.dtype = np.int32
) -> CSRMatrix:
    """Convert ELLPACK back to CSR (padding slots are dropped)."""
    lengths = ell.row_lengths.astype(np.int64)
    indptr = np.zeros(ell.n_rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    nnz = int(indptr[-1])
    data = np.empty(nnz, dtype=ell.values.dtype)
    indices = np.empty(nnz, dtype=index_dtype)
    for i in range(ell.n_rows):
        k = int(lengths[i])
        data[indptr[i] : indptr[i] + k] = ell.values[i, :k]
        indices[indptr[i] : indptr[i] + k] = ell.col_indices[i, :k]
    return CSRMatrix._adopt(ell.shape, data, indices, indptr)


def csr_to_sellcs(
    csr: CSRMatrix, chunk_size: int = 32, sigma: int = 1024
) -> SellCSigmaMatrix:
    """Convert CSR to SELL-C-sigma.

    Rows are sorted by descending length within windows of ``sigma`` rows,
    then grouped into chunks of ``chunk_size`` rows, each padded to its own
    maximum length.
    """
    if chunk_size <= 0:
        raise FormatError(f"chunk_size must be positive, got {chunk_size}")
    if sigma <= 0:
        raise FormatError(f"sigma must be positive, got {sigma}")
    n_rows = csr.n_rows
    lengths = csr.row_lengths().astype(np.int64)
    perm = np.empty(n_rows, dtype=np.int64)
    for w_start in range(0, max(n_rows, 1), sigma):
        w_end = min(w_start + sigma, n_rows)
        window = np.arange(w_start, w_end)
        # Descending length; stable so equal-length rows keep original order.
        order = np.argsort(-lengths[window], kind="stable")
        perm[w_start:w_end] = window[order]
    chunk_values: List[np.ndarray] = []
    chunk_cols: List[np.ndarray] = []
    for c_start in range(0, n_rows, chunk_size):
        c_end = min(c_start + chunk_size, n_rows)
        rows = perm[c_start:c_end]
        width = int(lengths[rows].max(initial=0))
        vals = np.zeros((len(rows), width), dtype=csr.value_dtype)
        cols = np.full((len(rows), width), -1, dtype=np.int64)
        for local, r in enumerate(rows):
            start, end = int(csr.indptr[r]), int(csr.indptr[r + 1])
            k = end - start
            vals[local, :k] = csr.data[start:end]
            cols[local, :k] = csr.indices[start:end]
        chunk_values.append(vals)
        chunk_cols.append(cols)
    if n_rows == 0:
        chunk_values, chunk_cols = [], []
    return SellCSigmaMatrix(
        csr.shape,
        chunk_size,
        sigma,
        perm,
        chunk_values,
        chunk_cols,
        lengths[perm],
    )


def sellcs_to_csr(
    sell: SellCSigmaMatrix, index_dtype: np.dtype = np.int32
) -> CSRMatrix:
    """Convert SELL-C-sigma back to CSR in original row order."""
    n_rows = sell.n_rows
    lengths_by_row = np.zeros(n_rows, dtype=np.int64)
    lengths_by_row[sell.perm] = sell.row_lengths
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lengths_by_row, out=indptr[1:])
    nnz = int(indptr[-1])
    value_dtype = (
        sell.chunk_values[0].dtype if sell.chunk_values else np.dtype(np.float32)
    )
    data = np.empty(nnz, dtype=value_dtype)
    indices = np.empty(nnz, dtype=index_dtype)
    for j, (vals, cols) in enumerate(zip(sell.chunk_values, sell.chunk_cols)):
        for local in range(vals.shape[0]):
            slot = j * sell.chunk_size + local
            row = int(sell.perm[slot])
            k = int(sell.row_lengths[slot])
            data[indptr[row] : indptr[row] + k] = vals[local, :k]
            indices[indptr[row] : indptr[row] + k] = cols[local, :k]
    return CSRMatrix._adopt(sell.shape, data, indices, indptr)


def csr_to_rscf(csr: CSRMatrix) -> RSCFMatrix:
    """Compress a CSR matrix into the column-major RSCF format.

    This is the inverse of the paper's export conversion: entries are
    re-sorted column-major, consecutive *rows* within a column collapse
    into run-length segments, and each column's values are block-quantized
    to 16 bits against a per-column scale.
    """
    n_rows, n_cols = csr.shape
    entry_rows = np.repeat(np.arange(n_rows, dtype=np.int64), csr.row_lengths())
    entry_cols = csr.indices.astype(np.int64)
    entry_vals = csr.data.astype(np.float64)
    order = np.lexsort((entry_rows, entry_cols))
    entry_rows = entry_rows[order]
    entry_cols = entry_cols[order]
    entry_vals = entry_vals[order]

    col_counts = np.bincount(entry_cols, minlength=n_cols)
    val_ptr = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(col_counts, out=val_ptr[1:])

    values = np.empty(csr.nnz, dtype=np.uint16)
    col_scale = np.zeros(n_cols, dtype=np.float32)
    col_ptr = np.zeros(n_cols + 1, dtype=np.int64)
    seg_start_list: List[np.ndarray] = []
    seg_len_list: List[np.ndarray] = []
    n_segments = 0
    for j in range(n_cols):
        v0, v1 = int(val_ptr[j]), int(val_ptr[j + 1])
        rows = entry_rows[v0:v1]
        codes, scale = quantize_block(entry_vals[v0:v1])
        values[v0:v1] = codes
        col_scale[j] = scale
        if rows.size:
            breaks = np.flatnonzero(np.diff(rows) != 1) + 1
            starts = np.concatenate(([0], breaks))
            ends = np.concatenate((breaks, [rows.size]))
            seg_start_list.append(rows[starts])
            seg_len_list.append(ends - starts)
            n_segments += starts.size
        col_ptr[j + 1] = n_segments
    if seg_start_list:
        seg_start = np.concatenate(seg_start_list).astype(np.int32)
        seg_len = np.concatenate(seg_len_list).astype(np.int32)
    else:
        seg_start = np.empty(0, dtype=np.int32)
        seg_len = np.empty(0, dtype=np.int32)
    return RSCFMatrix(
        csr.shape, col_ptr, seg_start, seg_len, val_ptr, values, col_scale
    )


def _expand_segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Expand run-length segments into explicit indices, vectorized.

    ``starts=[3, 10], lengths=[2, 3]`` -> ``[3, 4, 10, 11, 12]``.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(lengths)
    offsets = np.concatenate(([0], ends[:-1]))
    out[offsets] = starts
    out[offsets[1:]] -= starts[:-1] + lengths[:-1] - 1
    return np.cumsum(out)


def rscf_to_csr(
    rscf: RSCFMatrix,
    value_dtype: np.dtype = np.float16,
    index_dtype: np.dtype = np.int32,
) -> CSRMatrix:
    """Decompress RSCF into CSR — the paper's export conversion.

    This is the change-of-major-axis step: column-compressed RSCF entries
    are expanded, re-sorted row-major, and stored with ``value_dtype``
    values (half precision by default, matching the paper: matrix in half,
    vectors in double).  Dequantization happens in float64 before the final
    cast.
    """
    n_rows, n_cols = rscf.shape
    entry_rows = _expand_segments(rscf.seg_start, rscf.seg_len)
    # Column id of every value: val_ptr gives per-column value counts.
    col_counts = np.diff(rscf.val_ptr.astype(np.int64))
    entry_cols = np.repeat(np.arange(n_cols, dtype=np.int64), col_counts)
    scales = np.repeat(rscf.col_scale.astype(np.float64), col_counts)
    entry_vals = rscf.values.astype(np.float64) * scales

    order = np.lexsort((entry_cols, entry_rows))
    entry_rows = entry_rows[order]
    entry_cols = entry_cols[order]
    entry_vals = entry_vals[order]

    row_counts = np.bincount(entry_rows, minlength=n_rows)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(row_counts, out=indptr[1:])
    return CSRMatrix._adopt(
        rscf.shape,
        entry_vals.astype(value_dtype),
        entry_cols.astype(index_dtype),
        indptr,
    )
