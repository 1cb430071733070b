"""Batched plan-level SpMV execution and optimization-time projection.

One optimizer iteration evaluates EVERY beam's dose (Section II: "Dose
distributions from multiple beams ... must be computed in each iteration
of an optimization procedure").  A naive port launches one kernel per
beam per iteration; a production integration batches them (CUDA graphs /
back-to-back launches on one stream), paying the fixed launch latency once
per batch instead of once per kernel.

:func:`run_plan_spmv` executes all beams of a plan through one kernel and
merges counters/timing with that amortization; :func:`project_optimization`
turns per-iteration timings into the quantity the paper's conclusion is
about — "a significant speedup in optimization times and time-to-treatment".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.gpu.device import A100, DeviceSpec
from repro.gpu.executor import attach_launch_counts
from repro.gpu.timing import KERNEL_LAUNCH_OVERHEAD_S, estimate_gpu_time
from repro.kernels.base import KernelResult, SpMVKernel
from repro.kernels.plan import SpMVPlan, execute_plan_multi
from repro.util.errors import ShapeError


@dataclass(frozen=True)
class PlanSpMVResult:
    """Outcome of one batched multi-beam dose calculation."""

    per_beam: List[KernelResult]
    #: total modelled time with launch overhead amortized across the batch.
    batched_time_s: float
    #: sum of stand-alone kernel times (the unbatched comparison).
    unbatched_time_s: float

    @property
    def doses(self) -> List[np.ndarray]:
        return [r.y for r in self.per_beam]

    @property
    def total_dose(self) -> np.ndarray:
        """Summed dose across beams (all beams share the dose grid)."""
        total = np.zeros_like(self.per_beam[0].y)
        for r in self.per_beam:
            total += r.y
        return total

    @property
    def launch_overhead_saved_s(self) -> float:
        return self.unbatched_time_s - self.batched_time_s


def run_plan_spmv(
    kernel: SpMVKernel,
    matrices: Sequence,
    weights: Sequence[np.ndarray],
    device: DeviceSpec = A100,
) -> PlanSpMVResult:
    """Execute one dose calculation for every beam of a plan.

    The batch pays the fixed kernel-launch overhead once; each kernel's
    compute/memory time is unchanged (they run back to back on the same
    stream, not concurrently — SpMV saturates the device on its own).
    """
    if len(matrices) != len(weights):
        raise ShapeError(
            f"{len(matrices)} matrices but {len(weights)} weight vectors"
        )
    if not matrices:
        raise ShapeError("need at least one beam")
    converted: List[np.ndarray] = []
    for i, (matrix, w) in enumerate(zip(matrices, weights)):
        w = np.asarray(w)
        if w.ndim != 1 or matrix.n_cols != w.shape[0]:
            raise ShapeError(
                f"beam {i}: matrix has {matrix.n_cols} columns but weight "
                f"vector has shape {w.shape}"
            )
        converted.append(w)
    results = [
        kernel.run(matrix, w, device=device)
        for matrix, w in zip(matrices, converted)
    ]
    n_rows = {r.y.shape[0] for r in results}
    if len(n_rows) != 1:
        raise ShapeError("all beams must share the dose grid")
    unbatched = sum(r.timing.time_s for r in results)
    batched = unbatched - (len(results) - 1) * KERNEL_LAUNCH_OVERHEAD_S
    return PlanSpMVResult(
        per_beam=results,
        batched_time_s=batched,
        unbatched_time_s=unbatched,
    )


@dataclass(frozen=True)
class MultiVectorSpMVResult:
    """Outcome of one micro-batched multi-vector dose calculation.

    One matrix, many weight vectors — the SpMM view ``D = A @ W`` the
    serving layer's micro-batcher produces when it coalesces same-plan
    evaluation requests.  Each column is evaluated with the kernel's
    exact per-vector reduction order, so every per-request dose is
    bitwise identical to a stand-alone ``A @ w`` evaluation: batching
    changes *when* work runs and what launch overhead costs, never a
    single result bit.
    """

    per_vector: List[KernelResult]
    #: modelled time with launch overhead paid once for the whole batch.
    batched_time_s: float
    #: sum of stand-alone kernel times (the sequential comparison).
    unbatched_time_s: float
    #: True when the batch ran through the precompiled-plan SpMM path
    #: (matrix streamed once for all vectors), False for the
    #: launch-overhead-only back-to-back model.
    spmm: bool = False
    #: number of row shards the evaluation ran across (1 = single device;
    #: >1 means a :class:`repro.dist.ShardedServeBackend` produced it).
    shards: int = 1

    @property
    def doses(self) -> List[np.ndarray]:
        return [r.y for r in self.per_vector]

    @property
    def batch_size(self) -> int:
        return len(self.per_vector)

    @property
    def launch_overhead_saved_s(self) -> float:
        return self.unbatched_time_s - self.batched_time_s

    @property
    def amortization(self) -> float:
        """Sequential time over batched time (>= 1; == 1 for one vector)."""
        return self.unbatched_time_s / self.batched_time_s


def spmm_batched_time(
    kernel: SpMVKernel,
    matrix,
    first: KernelResult,
    batch: int,
    device: DeviceSpec,
) -> float:
    """Modelled time of one SpMM launch evaluating ``batch`` vectors.

    Rebuilds the timing estimate from :meth:`multi_counters` with the
    first result's launch/traits/profile; at ``batch == 1`` the counters
    are exactly the single-vector counters, so the estimate reproduces
    ``first.timing.time_s`` bit for bit.
    """
    counters = attach_launch_counts(
        kernel.multi_counters(matrix, device, batch),
        first.launch,
        device.warp_size,
    )
    timing = estimate_gpu_time(
        device,
        first.launch,
        counters,
        first.traits,
        first.profile,
        accum_bytes=first.accum_bytes,
    )
    return timing.time_s


def run_multi_spmv(
    kernel: SpMVKernel,
    matrix,
    weight_vectors: Sequence[np.ndarray],
    device: DeviceSpec = A100,
    plan: Optional[SpMVPlan] = None,
) -> MultiVectorSpMVResult:
    """Evaluate ``A @ w`` for many weight vectors against one matrix.

    Kernels with a precompiled-plan family take the SpMM path with the
    plan (passed in, or fetched from the process-global cache): vector 0
    runs through ``kernel.run``, which also prices the launch, and the
    other ``B - 1`` vectors through one lane product of
    :func:`repro.kernels.plan.execute_plan_multi`, which streams the
    operator once for all of them.  Every per-vector dose stays bitwise
    identical to a stand-alone evaluation — the fast path changes cost,
    never results.  Kernels without plan support fall back to
    back-to-back launches whose batch saves only launch overhead.

    This is the execution primitive behind the serving layer's request
    coalescing.
    """
    if not weight_vectors:
        raise ShapeError("need at least one weight vector")
    arrays: List[np.ndarray] = []
    for i, w in enumerate(weight_vectors):
        w = np.asarray(w)
        if w.ndim != 1 or matrix.n_cols != w.shape[0]:
            raise ShapeError(
                f"vector {i}: matrix has {matrix.n_cols} columns but weight "
                f"vector has shape {w.shape}"
            )
        arrays.append(w)
    spmm = plan is not None or hasattr(kernel, "prepare_plan")
    if spmm:
        if plan is None:
            plan = kernel.prepare_plan(matrix)
        first = kernel.run(matrix, arrays[0], device=device, plan=plan)
        results = [first]
        if len(arrays) > 1:
            # kernel.run already produced dose 0.
            doses = execute_plan_multi(plan, arrays[1:])
            for b in range(len(arrays) - 1):
                results.append(
                    replace(first, y=doses[:, b].astype(np.float64))
                )
        unbatched = len(arrays) * first.timing.time_s
        if hasattr(kernel, "multi_counters"):
            batched = spmm_batched_time(
                kernel, matrix, first, len(arrays), device
            )
        else:
            batched = unbatched - (len(arrays) - 1) * KERNEL_LAUNCH_OVERHEAD_S
    else:
        results = [kernel.run(matrix, w, device=device) for w in arrays]
        unbatched = sum(r.timing.time_s for r in results)
        batched = unbatched - (len(results) - 1) * KERNEL_LAUNCH_OVERHEAD_S
    return MultiVectorSpMVResult(
        per_vector=results,
        batched_time_s=batched,
        unbatched_time_s=unbatched,
        spmm=spmm,
    )


@dataclass(frozen=True)
class OptimizationProjection:
    """Projected dose-calculation time of a full plan optimization."""

    kernel: str
    device: str
    n_iterations: int
    n_beams: int
    #: forward dose products only (gradients cost a comparable transpose
    #: product; ``include_gradients`` doubles the count).
    spmv_time_per_iteration_s: float
    total_time_s: float

    def speedup_vs(self, other: "OptimizationProjection") -> float:
        """other.time / this.time (how much faster this configuration is)."""
        return other.total_time_s / self.total_time_s


def project_optimization(
    plan_result: PlanSpMVResult,
    kernel_name: str,
    device_name: str,
    n_iterations: int = 300,
    include_gradients: bool = True,
) -> OptimizationProjection:
    """Project a full optimization's dose-calculation time.

    ``n_iterations`` defaults to a typical clinical IMPT optimization
    length; gradients require ``A^T`` products of the same size, modelled
    as costing one forward product each.
    """
    if n_iterations <= 0:
        raise ValueError(f"n_iterations must be positive, got {n_iterations}")
    per_iter = plan_result.batched_time_s * (2.0 if include_gradients else 1.0)
    return OptimizationProjection(
        kernel=kernel_name,
        device=device_name,
        n_iterations=n_iterations,
        n_beams=len(plan_result.per_beam),
        spmv_time_per_iteration_s=per_iter,
        total_time_s=per_iter * n_iterations,
    )
