"""Sparse-matrix substrate: formats, conversions, statistics, reference SpMV.

Implemented from scratch (NumPy only) so that value precision (half/single/
double), index width (16/32-bit) and raw array layout are fully controlled —
the knobs the paper's kernels and ablations turn.
"""

from repro.sparse.convert import (
    coo_to_csr,
    csr_to_coo,
    csr_to_ellpack,
    csr_to_rscf,
    csr_to_sellcs,
    ellpack_to_csr,
    rscf_to_csr,
    sellcs_to_csr,
)
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix, CSRStructure
from repro.sparse.ellpack import ELLMatrix
from repro.sparse.io import load_csr, load_rscf, save_csr, save_rscf
from repro.sparse.partition import (
    RowPartition,
    extract_row_block,
    partition_quality,
    partition_rows_balanced,
    partition_rows_equal,
)
from repro.sparse.rscf import RSCFMatrix, quantize_block
from repro.sparse.sellcs import SellCSigmaMatrix
from repro.sparse.spmv_ref import (
    relative_error,
    spmv_flops,
    spmv_reference,
    spmv_rowwise_python,
)
from repro.sparse.stats import (
    MatrixStats,
    RowLengthProfile,
    gini_coefficient,
    matrix_stats,
    row_length_profile,
)
from repro.sparse.synth import banded, dose_like, lognormal_rows, uniform_random

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSRStructure",
    "ELLMatrix",
    "RSCFMatrix",
    "SellCSigmaMatrix",
    "quantize_block",
    "coo_to_csr",
    "csr_to_coo",
    "csr_to_ellpack",
    "csr_to_rscf",
    "csr_to_sellcs",
    "ellpack_to_csr",
    "rscf_to_csr",
    "sellcs_to_csr",
    "MatrixStats",
    "RowLengthProfile",
    "gini_coefficient",
    "matrix_stats",
    "row_length_profile",
    "relative_error",
    "spmv_flops",
    "spmv_reference",
    "spmv_rowwise_python",
    "load_csr",
    "load_rscf",
    "save_csr",
    "save_rscf",
    "RowPartition",
    "extract_row_block",
    "partition_quality",
    "partition_rows_balanced",
    "partition_rows_equal",
    "banded",
    "dose_like",
    "lognormal_rows",
    "uniform_random",
]
