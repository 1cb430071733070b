"""Synthetic sparse-matrix workload generators.

The six Table I cases come from the dose engine; these generators produce
matrices with *prescribed* structural statistics instead — for testing the
kernels and the timing model beyond the paper's cases, and for users who
want SpMV workloads shaped like theirs:

* :func:`lognormal_rows` — heavy-tailed row lengths (dose-matrix-like);
* :func:`banded` — regular banded structure (stencil/FEM-like contrast);
* :func:`uniform_random` — the classic Erdos-Renyi sparsity;
* :func:`dose_like` — empty-row fraction + lognormal tail + column runs,
  the full dose-deposition signature without running the dose engine.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.util.errors import ShapeError
from repro.util.rng import RngLike, make_rng


def uniform_random(
    n_rows: int,
    n_cols: int,
    density: float,
    value_dtype=np.float32,
    rng: RngLike = None,
) -> CSRMatrix:
    """Erdos-Renyi sparsity: every entry present independently."""
    _check_dims(n_rows, n_cols)
    if not 0 < density <= 1:
        raise ShapeError(f"density must be in (0, 1], got {density}")
    rng = make_rng(rng)
    nnz_target = int(round(n_rows * n_cols * density))
    rows = rng.integers(0, n_rows, size=nnz_target)
    cols = rng.integers(0, n_cols, size=nnz_target)
    vals = rng.random(nnz_target) + 0.01
    coo = COOMatrix((n_rows, n_cols), rows, cols, vals)
    return coo_to_csr(coo, value_dtype=value_dtype)


def banded(
    n_rows: int,
    n_cols: int,
    bandwidth: int,
    value_dtype=np.float32,
    rng: RngLike = None,
) -> CSRMatrix:
    """A banded matrix: row i holds columns [i*c/r - b, i*c/r + b]."""
    _check_dims(n_rows, n_cols)
    if bandwidth <= 0:
        raise ShapeError(f"bandwidth must be positive, got {bandwidth}")
    rng = make_rng(rng)
    centers = (np.arange(n_rows) * n_cols) // max(n_rows, 1)
    rows_list, cols_list = [], []
    for i in range(n_rows):
        lo = max(int(centers[i]) - bandwidth, 0)
        hi = min(int(centers[i]) + bandwidth + 1, n_cols)
        cols_i = np.arange(lo, hi)
        rows_list.append(np.full(cols_i.size, i))
        cols_list.append(cols_i)
    rows = np.concatenate(rows_list)
    cols = np.concatenate(cols_list)
    vals = rng.random(rows.size) + 0.01
    return coo_to_csr(
        COOMatrix((n_rows, n_cols), rows, cols, vals), value_dtype=value_dtype
    )


def lognormal_rows(
    n_rows: int,
    n_cols: int,
    mean_row_length: float,
    sigma: float = 1.2,
    empty_fraction: float = 0.0,
    value_dtype=np.float32,
    rng: RngLike = None,
) -> CSRMatrix:
    """Heavy-tailed row lengths: lognormal with the given mean.

    Columns within a row are a contiguous run at a random offset (the
    dose matrices' locality), clipped to ``n_cols``.
    """
    _check_dims(n_rows, n_cols)
    if mean_row_length <= 0:
        raise ShapeError("mean_row_length must be positive")
    if not 0 <= empty_fraction < 1:
        raise ShapeError("empty_fraction must be in [0, 1)")
    rng = make_rng(rng)
    # lognormal mean = exp(mu + sigma^2/2)  =>  mu from requested mean.
    mu = np.log(mean_row_length) - sigma**2 / 2.0
    lengths = np.clip(
        rng.lognormal(mu, sigma, size=n_rows).astype(np.int64), 1, n_cols
    )
    lengths[rng.random(n_rows) < empty_fraction] = 0
    starts = rng.integers(0, np.maximum(n_cols - lengths, 1))
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.empty(nnz, dtype=np.int32)
    for i in range(n_rows):
        k = int(lengths[i])
        if k:
            indices[indptr[i] : indptr[i] + k] = np.arange(
                starts[i], starts[i] + k
            )
    data = (rng.random(nnz) + 0.01).astype(value_dtype)
    return CSRMatrix._adopt((n_rows, n_cols), data, indices, indptr)


def dose_like(
    n_rows: int,
    n_cols: int,
    density: float = 0.0073,
    empty_fraction: float = 0.70,
    tail_sigma: float = 1.3,
    value_dtype=np.float32,
    rng: RngLike = None,
) -> CSRMatrix:
    """The full Table I signature without the dose engine.

    Reproduces the structural facts the paper reports: the given density,
    ~70 % empty rows, lognormal row-length tail, contiguous column runs.
    """
    _check_dims(n_rows, n_cols)
    nonempty = 1.0 - empty_fraction
    if nonempty <= 0:
        raise ShapeError("empty_fraction must leave some non-empty rows")
    mean_len = density * n_cols / nonempty
    if mean_len < 1:
        mean_len = 1.0
    return lognormal_rows(
        n_rows,
        n_cols,
        mean_row_length=mean_len,
        sigma=tail_sigma,
        empty_fraction=empty_fraction,
        value_dtype=value_dtype,
        rng=rng,
    )


def _check_dims(n_rows: int, n_cols: int) -> None:
    if n_rows <= 0 or n_cols <= 0:
        raise ShapeError(f"matrix dimensions must be positive, got "
                         f"({n_rows}, {n_cols})")
