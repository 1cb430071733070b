"""Save/load sparse matrices to compressed ``.npz`` archives.

Provides the "export from the treatment planning system" step of the paper's
pipeline: matrices generated by the dose engine can be persisted and reloaded
by the benchmark harness without regenerating them.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.rscf import RSCFMatrix
from repro.util.errors import FormatError

PathLike = Union[str, os.PathLike]

_CSR_KIND = "csr"
_RSCF_KIND = "rscf"


def save_csr(path: PathLike, matrix: CSRMatrix) -> None:
    """Write a CSR matrix to a compressed npz archive."""
    np.savez_compressed(
        path,
        kind=np.array(_CSR_KIND),
        shape=np.asarray(matrix.shape, dtype=np.int64),
        data=matrix.data,
        indices=matrix.indices,
        indptr=matrix.indptr,
    )


def load_csr(path: PathLike) -> CSRMatrix:
    """Load a CSR matrix previously written by :func:`save_csr`."""
    with np.load(path, allow_pickle=False) as archive:
        kind = str(archive["kind"])
        if kind != _CSR_KIND:
            raise FormatError(f"{path!s} holds a {kind!r} matrix, expected CSR")
        shape = tuple(int(v) for v in archive["shape"])
        return CSRMatrix._adopt(
            shape,
            archive["data"].copy(),
            archive["indices"].copy(),
            archive["indptr"].copy(),
        )


def save_rscf(path: PathLike, matrix: RSCFMatrix) -> None:
    """Write an RSCF matrix to a compressed npz archive."""
    np.savez_compressed(
        path,
        kind=np.array(_RSCF_KIND),
        shape=np.asarray(matrix.shape, dtype=np.int64),
        col_ptr=matrix.col_ptr,
        seg_start=matrix.seg_start,
        seg_len=matrix.seg_len,
        val_ptr=matrix.val_ptr,
        values=matrix.values,
        col_scale=matrix.col_scale,
    )


def load_rscf(path: PathLike) -> RSCFMatrix:
    """Load an RSCF matrix previously written by :func:`save_rscf`."""
    with np.load(path, allow_pickle=False) as archive:
        kind = str(archive["kind"])
        if kind != _RSCF_KIND:
            raise FormatError(f"{path!s} holds a {kind!r} matrix, expected RSCF")
        shape = tuple(int(v) for v in archive["shape"])
        return RSCFMatrix(
            shape,
            archive["col_ptr"].copy(),
            archive["seg_start"].copy(),
            archive["seg_len"].copy(),
            archive["val_ptr"].copy(),
            archive["values"].copy(),
            archive["col_scale"].copy(),
        )
