"""The paper's contributed kernel: vector-CSR SpMV with cooperative groups.

One 32-thread warp processes each matrix row (the Bell & Garland "vector
CSR kernel" adapted to CUDA cooperative groups):

* the warp strides through the row in chunks of 32, so consecutive lanes
  load *consecutive* values/indices — fully coalesced (the paper's central
  optimization over one-thread-per-row);
* each lane keeps a private partial sum over its strided elements;
* a ``cg::reduce`` butterfly tree combines the 32 lane sums;
* lane 0 writes the row result.

The functional half below executes that arithmetic bit-exactly (lane
accumulation in ascending chunk order, then the 5-round butterfly from
:class:`repro.gpu.coop.WarpTile`), vectorized across all warps by grouping
rows with equal iteration counts.  Determinism of the order is what makes
the kernel bitwise reproducible — the RayStation requirement.

Mixed precision: matrix values are stored half (or single/double), widened
to the accumulation precision inside the FMA; input/output vectors are
double in the Half/Double configuration the paper contributes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gpu.coop import WarpTile
from repro.gpu.counters import PerfCounters
from repro.gpu.device import A100, DeviceSpec
from repro.gpu.executor import attach_launch_counts, warp_work, workload_profile
from repro.gpu.launch import warp_per_row_launch
from repro.gpu.memory import (
    GatherTraffic,
    contiguous_stream_bytes,
    gather_traffic,
    output_write_bytes,
)
from repro.gpu.timing import KernelTraits, TimingEstimate, estimate_gpu_time
from repro.kernels.base import KernelResult, SpMVKernel
from repro.kernels.plan import (
    SpMVPlan,
    execute_plan,
    get_plan_cache,
    validate_plan_for,
)
from repro.precision.types import HALF_DOUBLE, SINGLE, MixedPrecision
from repro.sparse.csr import CSRMatrix
from repro.util.errors import DTypeError, ShapeError
from repro.util.rng import RngLike

WARP = 32


def warp_csr_spmv_exact(
    matrix: CSRMatrix, x: np.ndarray, accum_dtype: np.dtype
) -> np.ndarray:
    """Functional execution with the exact warp reduction order.

    Rows are bucketed by their inner-loop iteration count ``ceil(len/32)``
    and each bucket is executed vectorized: iteration ``j`` adds chunk ``j``
    into the 32 lane accumulators, then one butterfly reduce per row.
    """
    x = np.asarray(x)
    if x.shape != (matrix.n_cols,):
        raise ShapeError(f"x has shape {x.shape}, expected ({matrix.n_cols},)")
    accum_dtype = np.dtype(accum_dtype)
    xa = x.astype(accum_dtype, copy=False)
    tile = WarpTile(WARP)
    lengths = matrix.row_lengths().astype(np.int64)
    indptr = matrix.indptr.astype(np.int64)
    y = np.zeros(matrix.n_rows, dtype=accum_dtype)

    iters = (lengths + WARP - 1) // WARP
    lane_ids = np.arange(WARP, dtype=np.int64)
    for j_count in np.unique(iters):
        if j_count == 0:
            continue  # empty rows: the warp writes y[i] = 0 (already zero)
        rows = np.flatnonzero(iters == j_count)
        base = indptr[rows]
        lens = lengths[rows]
        lane_acc = np.zeros((rows.size, WARP), dtype=accum_dtype)
        for j in range(int(j_count)):
            offset = j * WARP
            pos = base[:, None] + offset + lane_ids[None, :]
            valid = (offset + lane_ids[None, :]) < lens[:, None]
            pos_safe = np.where(valid, pos, 0)
            vals = matrix.data[pos_safe].astype(accum_dtype)
            cols = matrix.indices[pos_safe].astype(np.int64)
            contrib = vals * xa[cols]
            lane_acc += np.where(valid, contrib, accum_dtype.type(0))
        y[rows] = tile.reduce_add(lane_acc)
    return y


class VectorCSRKernel(SpMVKernel):
    """Warp-per-row CSR SpMV with cooperative-group reductions.

    Parameterized by a :class:`MixedPrecision`; the two named
    configurations from the paper are exposed as
    :data:`HalfDoubleKernel` and :data:`SingleKernel` factories below.
    """

    reproducible = True
    #: streams CSR exactly once — counters must match the analytic model.
    traffic_model_exact = True
    #: default block size: the Figure 4 sweep found 512 best for this kernel.
    default_threads_per_block = 512  # analyze: allow[RA108] -- measured Fig-4 default
    #: which precompiled-plan family this kernel executes.
    plan_family = "vector"

    def __init__(self, precision: MixedPrecision, name: Optional[str] = None):
        self.precision = precision
        self.name = name or f"vector_csr[{precision.name}]"
        self.traits = KernelTraits(
            row_overhead_bytes=128.0,
            warp_per_row=True,
            uses_atomics=False,
        )

    # ------------------------------------------------------------------ #

    def _check_matrix(self, matrix: CSRMatrix) -> None:
        if not isinstance(matrix, CSRMatrix):
            raise DTypeError(
                f"{self.name} operates on CSR matrices, got {type(matrix).__name__}"
            )
        if matrix.value_dtype != self.precision.matrix.dtype:
            raise DTypeError(
                f"{self.name} expects matrix values in "
                f"{self.precision.matrix.dtype}, got {matrix.value_dtype}; "
                "convert with CSRMatrix.astype first"
            )

    def _counters(
        self,
        matrix: CSRMatrix,
        device: DeviceSpec,
        gather: Optional[GatherTraffic] = None,
    ) -> PerfCounters:
        """Accounting half: DRAM/L2 traffic of the warp-per-row pattern.

        ``gather`` is the input-vector gather's traffic when the caller
        has already priced it (it depends only on structure and device).
        """
        prec = self.precision
        lengths = matrix.row_lengths()
        n_nonempty = int(np.count_nonzero(lengths))
        work = warp_work(matrix, WARP)
        c = PerfCounters()
        c.flops = 2.0 * matrix.nnz
        # Matrix values and column indices stream through once, coalesced.
        # The payload scales with nnz; the per-row sector-alignment slack
        # (a row may start mid-sector) scales with the row count, so it is
        # booked under dram_bytes_rows to extrapolate correctly.
        c.dram_bytes_nnz = contiguous_stream_bytes(
            matrix.nnz, prec.matrix.nbytes, device.sector_bytes
        ) + contiguous_stream_bytes(matrix.nnz, prec.index_bytes, device.sector_bytes)
        alignment_slack = n_nonempty * device.sector_bytes  # half sector x 2 arrays
        # One row_ptr entry per row (amortized; the paper's 4 bytes/row)
        # plus the output-vector write (8 bytes/row).
        c.dram_bytes_rows = (
            contiguous_stream_bytes(matrix.n_rows + 1, 4, device.sector_bytes)
            + output_write_bytes(
                matrix.n_rows, prec.vector.nbytes, device.sector_bytes
            )
            + alignment_slack
        )
        if gather is None:
            gather = self._gather(matrix, device)
        c.dram_bytes_cols = gather.compulsory_dram_bytes
        c.dram_bytes_refetch = gather.refetch_dram_bytes
        c.l2_bytes = c.dram_bytes_nnz + gather.l2_bytes
        c.l2_bytes_rows = c.dram_bytes_rows
        c.warp_iterations = work.iterations
        c.partial_waste_bytes = work.idle_lane_slots * prec.bytes_per_nonzero()
        c.n_warps = work.n_warps
        c.rows_processed = matrix.n_rows
        # Address arithmetic + loop bookkeeping: ~2 thread-instructions per
        # stored value plus the 5-round reduce per row (the latter scales
        # with the row count when extrapolating).
        c.aux_instructions = 2.0 * matrix.nnz
        c.aux_instructions_rows = 5.0 * WARP * matrix.n_rows
        return c

    def _gather(self, matrix: CSRMatrix, device: DeviceSpec) -> GatherTraffic:
        """L2 traffic of gathering the input vector at every column index."""
        return gather_traffic(
            matrix.indices, self.precision.vector.nbytes, matrix.n_cols, device
        )

    def multi_counters(
        self, matrix: CSRMatrix, device: DeviceSpec, batch: int = 1
    ) -> PerfCounters:
        """Traffic of the SpMM path evaluating ``batch`` vectors at once.

        The matrix stream (values, indices, row pointers, alignment
        slack) is paid once for the whole batch; everything proportional
        to a weight vector — FLOPs, the input-vector gather with its
        refetch, the output write, the per-row reduce — scales with
        ``batch``.  At ``batch == 1`` this returns exactly
        :meth:`_counters`, so a degenerate batch reproduces the
        single-vector timing bit for bit.
        """
        if batch < 1:
            raise ShapeError(f"batch must be >= 1, got {batch}")
        gather = self._gather(matrix, device)
        c = self._counters(matrix, device, gather)
        if batch == 1:
            return c
        prec = self.precision
        extra = float(batch - 1)
        out_bytes = output_write_bytes(
            matrix.n_rows, prec.vector.nbytes, device.sector_bytes
        )
        c.flops += extra * 2.0 * matrix.nnz
        c.dram_bytes_cols += extra * gather.compulsory_dram_bytes
        c.dram_bytes_refetch += extra * gather.refetch_dram_bytes
        c.dram_bytes_rows += extra * out_bytes
        c.l2_bytes += extra * gather.l2_bytes
        c.l2_bytes_rows += extra * out_bytes
        # One extra FMA's addressing per stored value per extra column
        # (the chunk gather itself is shared), plus one reduce per row
        # per extra column.
        c.aux_instructions += extra * matrix.nnz
        c.aux_instructions_rows += extra * 5.0 * WARP * matrix.n_rows
        return c

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
        """Timing-only estimate: counters + analytic model, no functional
        execution.

        The sharded evaluator and the autotuner price candidate
        execution configurations with this — timing depends only on the
        matrix structure, the device and the launch configuration, never
        on the weight values, so re-running the arithmetic per candidate
        would be pure waste.  At ``batch == 1`` the estimate equals the
        one :meth:`run` attaches bit for bit.
        """
        self._check_matrix(matrix)
        tpb = threads_per_block or self.default_threads_per_block
        launch = warp_per_row_launch(
            matrix.n_rows, tpb, device.warp_size
        ).validate(device)
        counters = attach_launch_counts(
            self.multi_counters(matrix, device, batch),
            launch,
            device.warp_size,
        )
        profile = workload_profile(matrix)
        return estimate_gpu_time(
            device,
            launch,
            counters,
            self.traits_for(profile),
            profile,
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
        launch = warp_per_row_launch(matrix.n_rows, tpb, device.warp_size).validate(
            device
        )
        if plan is not None:
            validate_plan_for(
                plan, matrix, self.plan_family, self.precision.accumulate.dtype
            )
            y = execute_plan(plan, x)
        else:
            y = warp_csr_spmv_exact(matrix, x, self.precision.accumulate.dtype)
        counters = attach_launch_counts(
            self._counters(matrix, device), launch, device.warp_size
        )
        profile = workload_profile(matrix)
        traits = self.traits_for(profile)
        timing = estimate_gpu_time(
            device,
            launch,
            counters,
            traits,
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
            traits=traits,
            profile=profile,
            accum_bytes=self.precision.accumulate.nbytes,
        )


def HalfDoubleKernel() -> VectorCSRKernel:
    """The paper's contribution: half-stored matrix, double vectors."""
    return VectorCSRKernel(HALF_DOUBLE, name="half_double")


def SingleKernel() -> VectorCSRKernel:
    """Single-precision variant used for the library comparison (Fig. 6)."""
    return VectorCSRKernel(SINGLE, name="single")
