"""Shared launch-execution helpers for simulated kernels.

Kernels in :mod:`repro.kernels` implement two halves: a *functional* half
(the exact arithmetic, vectorized over warps with NumPy) and an
*accounting* half (PerfCounters from the access pattern).  This module
holds the pieces both halves share: workload profiling, warp iteration /
lane-waste accounting, and a tiny launch record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.counters import PerfCounters
from repro.gpu.launch import LaunchConfig
from repro.gpu.timing import WorkloadProfile
from repro.sparse.csr import CSRMatrix


def workload_profile(matrix: CSRMatrix) -> WorkloadProfile:
    """Row-length statistics the timing model consumes."""
    lengths = matrix.row_lengths().astype(np.float64)
    nonempty = lengths[lengths > 0]
    if nonempty.size == 0:
        return WorkloadProfile(avg_row_len=0.0, rowlen_cv=0.0)
    mean = float(nonempty.mean())
    std = float(nonempty.std())
    return WorkloadProfile(
        avg_row_len=mean, rowlen_cv=std / mean if mean else 0.0
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

    One O(rows) pass.  The idle lane-slots follow in closed form: a
    non-empty row idles ``ceil(len/32)*32 - len`` lanes and an empty row
    idles none, so together they idle ``iterations*32 - sum(len)``.
    """
    lengths = matrix.row_lengths().astype(np.int64)
    iterations = int(((lengths + warp_size - 1) // warp_size).sum())
    idle = iterations * warp_size - int(lengths.sum())
    return WarpWork(
        iterations=iterations, idle_lane_slots=idle, n_warps=matrix.n_rows
    )


def attach_launch_counts(
    counters: PerfCounters, launch: LaunchConfig, warp_size: int = 32
) -> PerfCounters:
    """Record grid geometry into the counters (blocks, warps launched)."""
    counters.n_blocks = float(launch.grid_blocks)
    if counters.n_warps == 0:
        counters.n_warps = launch.total_threads / warp_size
    return counters
