"""Scalar-CSR SpMV: one thread per row (Bell & Garland's naive kernel).

Included as the ablation contrast motivating the paper's warp-per-row
choice.  With one thread per row, at each inner-loop step the 32 threads of
a warp read elements from 32 *different* rows — nothing coalesces, every
load becomes its own sector transaction, and the warp runs as long as its
longest row (lane divergence).  On the heavy-tailed dose deposition
matrices both effects are severe, which is exactly why the paper assigns a
full warp per row instead.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gpu.counters import PerfCounters
from repro.gpu.device import A100, DeviceSpec
from repro.gpu.executor import (
    attach_launch_counts,
    csr_gather_traffic,
    workload_profile,
)
from repro.gpu.launch import thread_per_item_launch
from repro.gpu.memory import contiguous_stream_bytes, output_write_bytes
from repro.gpu.timing import KernelTraits, TimingEstimate, estimate_gpu_time
from repro.kernels.base import KernelResult, SpMVKernel
from repro.kernels.plan import (
    SpMVPlan,
    execute_plan,
    get_plan_cache,
    validate_plan_for,
)
from repro.precision.types import SINGLE, MixedPrecision
from repro.sparse.csr import CSRMatrix
from repro.util.errors import DTypeError, ShapeError
from repro.util.rng import RngLike

WARP = 32


def scalar_csr_spmv_exact(
    matrix: CSRMatrix, x: np.ndarray, accum_dtype: np.dtype
) -> np.ndarray:
    """Functional execution: strict left-to-right accumulation per row.

    A single thread walks its row sequentially, so the summation order is
    sequential — deterministic, hence this kernel is also reproducible
    (its problem is performance, not correctness).
    """
    accum_dtype = np.dtype(accum_dtype)
    xa = np.asarray(x).astype(accum_dtype, copy=False)
    lengths = matrix.row_lengths().astype(np.int64)
    indptr = matrix.indptr.astype(np.int64)
    y = np.zeros(matrix.n_rows, dtype=accum_dtype)
    # Vectorize the sequential order: process "step k of every row" in one
    # shot; within a row, steps are applied in ascending k, which is
    # exactly the per-thread sequential order.
    max_len = int(lengths.max(initial=0))
    active_rows = np.flatnonzero(lengths > 0)
    acc = np.zeros(active_rows.size, dtype=accum_dtype)
    for k in range(max_len):
        live = lengths[active_rows] > k
        rows = active_rows[live]
        if rows.size == 0:
            break
        pos = indptr[rows] + k
        vals = matrix.data[pos].astype(accum_dtype)
        cols = matrix.indices[pos].astype(np.int64)
        acc_live = acc[live]
        acc[live] = acc_live + vals * xa[cols]
    y[active_rows] = acc
    return y


class ScalarCSRKernel(SpMVKernel):
    """One-thread-per-row CSR SpMV (the uncoalesced contrast kernel)."""

    reproducible = True
    traffic_model_exact = True
    default_threads_per_block = 128  # analyze: allow[RA108] -- measured Fig-4 default
    #: which precompiled-plan family this kernel executes.
    plan_family = "scalar"

    def __init__(self, precision: MixedPrecision = SINGLE):
        self.precision = precision
        self.name = f"scalar_csr[{precision.name}]"
        self.traits = KernelTraits(
            row_overhead_bytes=32.0,  # no warp reduce; just pointer + write
            warp_per_row=False,
            uses_atomics=False,
        )

    def _counters(self, matrix: CSRMatrix, device: DeviceSpec) -> PerfCounters:
        prec = self.precision
        lengths = matrix.row_lengths().astype(np.int64)
        c = PerfCounters()
        c.flops = 2.0 * matrix.nnz
        # Each load is its own sector transaction (no intra-warp
        # coalescing), but a thread reuses its row's sector for the
        # ``sector/elem`` consecutive elements it covers, so *DRAM*
        # compulsory traffic matches the footprint while L2 sees one
        # transaction per element.
        c.dram_bytes_nnz = (
            contiguous_stream_bytes(matrix.nnz, prec.matrix.nbytes)
            + contiguous_stream_bytes(matrix.nnz, prec.index_bytes)
        )
        c.dram_bytes_rows = contiguous_stream_bytes(
            matrix.n_rows + 1, 4
        ) + output_write_bytes(matrix.n_rows, prec.vector.nbytes)
        gather = csr_gather_traffic(matrix, prec.vector.nbytes, device)
        c.dram_bytes_cols = gather.compulsory_dram_bytes
        c.dram_bytes_refetch = gather.refetch_dram_bytes
        # One full sector of L2 traffic per element load: the uncoalesced
        # penalty that makes this kernel L2-transaction bound.
        c.l2_bytes = 2.0 * matrix.nnz * device.sector_bytes + gather.l2_bytes
        c.l2_bytes_rows = c.dram_bytes_rows
        # Divergence: each warp of 32 consecutive rows runs for the longest
        # row among them (one O(rows) pass; this kernel serves no batches).
        n_warps = (matrix.n_rows + WARP - 1) // WARP
        pad = np.zeros(n_warps * WARP, dtype=np.int64)
        pad[: matrix.n_rows] = lengths
        warp_max = pad.reshape(n_warps, WARP).max(axis=1)
        executed_slots = float(warp_max.sum()) * WARP
        c.warp_iterations = float(warp_max.sum())
        c.partial_waste_bytes = (
            executed_slots - float(matrix.nnz)
        ) * prec.bytes_per_nonzero()
        c.n_warps = n_warps
        c.rows_processed = matrix.n_rows
        c.aux_instructions = 2.0 * matrix.nnz
        return c

    def _check_matrix(self, matrix: CSRMatrix) -> None:
        if not isinstance(matrix, CSRMatrix):
            raise DTypeError(
                f"{self.name} operates on CSR matrices, got {type(matrix).__name__}"
            )
        if matrix.value_dtype != self.precision.matrix.dtype:
            raise DTypeError(
                f"{self.name} expects {self.precision.matrix.dtype} values, "
                f"got {matrix.value_dtype}"
            )

    def prepare_plan(self, matrix: CSRMatrix) -> SpMVPlan:
        """Compile (or fetch from the process-global cache) the execution
        plan this kernel needs for ``matrix``."""
        self._check_matrix(matrix)
        return get_plan_cache().get_or_compile(
            matrix, self.plan_family, self.precision.accumulate.dtype
        )

    def model_timing(
        self,
        matrix: CSRMatrix,
        device: DeviceSpec = A100,
        threads_per_block: Optional[int] = None,
        batch: int = 1,
    ) -> TimingEstimate:
        """Timing-only estimate (no functional execution); ``batch == 1``
        equals the estimate :meth:`run` attaches bit for bit.

        The scalar kernel has no SpMM traffic model, so a ``batch > 1``
        estimate is refused — the sharded evaluator falls back to its
        launch-amortization formula for kernels without one.
        """
        self._check_matrix(matrix)
        if batch != 1:
            raise ShapeError(
                f"{self.name} models single-vector timing only, got batch={batch}"
            )
        tpb = threads_per_block or self.default_threads_per_block
        launch = thread_per_item_launch(matrix.n_rows, tpb).validate(device)
        counters = attach_launch_counts(
            self._counters(matrix, device), launch, device.warp_size
        )
        return estimate_gpu_time(
            device,
            launch,
            counters,
            self.traits,
            workload_profile(matrix),
            accum_bytes=self.precision.accumulate.nbytes,
        )

    def run(
        self,
        matrix: CSRMatrix,
        x: np.ndarray,
        device: DeviceSpec = A100,
        threads_per_block: Optional[int] = None,
        rng: RngLike = None,
        plan: Optional[SpMVPlan] = None,
    ) -> KernelResult:
        self._check_matrix(matrix)
        tpb = threads_per_block or self.default_threads_per_block
        launch = thread_per_item_launch(matrix.n_rows, tpb).validate(device)
        if plan is not None:
            validate_plan_for(
                plan, matrix, self.plan_family, self.precision.accumulate.dtype
            )
            y = execute_plan(plan, x)
        else:
            y = scalar_csr_spmv_exact(matrix, x, self.precision.accumulate.dtype)
        counters = attach_launch_counts(
            self._counters(matrix, device), launch, device.warp_size
        )
        profile = workload_profile(matrix)
        timing = estimate_gpu_time(
            device,
            launch,
            counters,
            self.traits,
            profile,
            accum_bytes=self.precision.accumulate.nbytes,
        )
        return KernelResult(
            kernel=self.name,
            device=device,
            launch=launch,
            y=y.astype(np.float64),
            counters=counters,
            timing=timing,
            traits=self.traits,
            profile=profile,
            accum_bytes=self.precision.accumulate.nbytes,
        )
