"""Shared launch-execution helpers for simulated kernels.

Kernels in :mod:`repro.kernels` implement two halves: a *functional* half
(the exact arithmetic, vectorized over warps with NumPy) and an
*accounting* half (PerfCounters from the access pattern).  This module
holds the pieces both halves share: workload profiling, warp iteration /
lane-waste accounting, the input-vector gather of a CSR matrix, and a
tiny launch record.  The CSR pieces read the matrix's structure summary
(:attr:`CSRMatrix.structure`), so each costs O(longest row) or O(distinct
columns), never a pass over the stored elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.counters import PerfCounters
from repro.gpu.device import DeviceSpec
from repro.gpu.launch import LaunchConfig
from repro.gpu.memory import GatherTraffic, touched_gather_traffic
from repro.gpu.timing import WorkloadProfile
from repro.sparse.csr import CSRMatrix


def workload_profile(matrix: CSRMatrix) -> WorkloadProfile:
    """Row-length statistics the timing model consumes."""
    s = matrix.structure
    if s.n_nonempty_rows == 0:
        return WorkloadProfile(avg_row_len=0.0, rowlen_cv=0.0)
    mean = s.mean_row_length
    return WorkloadProfile(
        avg_row_len=mean,
        rowlen_cv=s.std_row_length / mean if mean else 0.0,
    )


@dataclass(frozen=True)
class WarpWork:
    """Warp-level work decomposition of a warp-per-row kernel."""

    #: sum over rows of ceil(len / 32): total inner-loop iterations.
    iterations: int
    #: idle lane-slots in final iterations (sum of (32 - len % 32) % 32).
    idle_lane_slots: int
    #: warps launched (== rows).
    n_warps: int


def warp_work(matrix: CSRMatrix, warp_size: int = 32) -> WarpWork:
    """Decompose a matrix into warp iterations for the vector-CSR kernel.

    A row of length ``n`` runs ``ceil(n/32)`` iterations, so summing over
    the row-length histogram counts them all.  The idle lane-slots follow
    in closed form: a non-empty row idles ``ceil(n/32)*32 - n`` lanes and
    an empty row idles none, so together they idle
    ``iterations*32 - nnz``.
    """
    counts = matrix.structure.row_length_counts
    per_row = (np.arange(counts.size) + warp_size - 1) // warp_size
    iterations = int(counts @ per_row)
    idle = iterations * warp_size - matrix.nnz
    return WarpWork(
        iterations=iterations, idle_lane_slots=idle, n_warps=matrix.n_rows
    )


def csr_gather_traffic(
    matrix: CSRMatrix, elem_bytes: int, device: DeviceSpec
) -> GatherTraffic:
    """Traffic of gathering an ``elem_bytes`` vector at every stored
    column index of ``matrix`` (what :func:`repro.gpu.memory.gather_traffic`
    prices from ``matrix.indices``, from the touched columns alone)."""
    return touched_gather_traffic(
        matrix.structure.touched_columns, elem_bytes, device, matrix.nnz
    )


def attach_launch_counts(
    counters: PerfCounters, launch: LaunchConfig, warp_size: int = 32
) -> PerfCounters:
    """Record grid geometry into the counters (blocks, warps launched)."""
    counters.n_blocks = float(launch.grid_blocks)
    if counters.n_warps == 0:
        counters.n_warps = launch.total_threads / warp_size
    return counters
