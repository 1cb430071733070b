"""Serving-layer adapter: sharded evaluation behind the micro-batcher.

:class:`ShardedServeBackend` holds the serve layer's sharding settings
(shard count, simulated device pool, placement, retry budget) and builds
the two sharded operators a serve plan-cache entry
(:class:`repro.serve.cache.PlanEntry`) owns: the tuned-or-default
forward evaluator and the adjoint over the explicit transpose.  The
operators live in that entry, created and evicted together with the
converted matrix they were compiled from.

Above one shard the service answers each batch through
:meth:`ShardedServeBackend.run_batch`, which returns the same
:class:`~repro.kernels.batched.MultiVectorSpMVResult` shape as the
single-device path with bitwise identical doses — the service's
determinism guarantee survives the device-count change untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.kernels.base import SpMVKernel
from repro.kernels.batched import MultiVectorSpMVResult
from repro.sparse.csr import CSRMatrix
from repro.util.errors import ReproError

from repro.dist.evaluator import (
    ShardedEvaluation,
    ShardedEvaluator,
    tuned_or_default_evaluator,
)
from repro.dist.executor import FailureInjector
from repro.dist.pool import DevicePool


@dataclass(frozen=True)
class _ModeledTiming:
    """Minimal timing carrier (the serve layer reads ``.time_s`` only)."""

    time_s: float


@dataclass(frozen=True)
class ShardedVectorResult:
    """Per-request view of a sharded batch (duck-types ``KernelResult``
    where the serving layer consumes it: ``.y`` and ``.timing.time_s``)."""

    y: np.ndarray
    timing: _ModeledTiming


class ShardedServeBackend:
    """Sharding settings, the evaluators built from them, and the
    sharded batch call."""

    def __init__(
        self,
        shards: int,
        n_devices: Optional[int] = None,
        placement: str = "memory",
        retry_budget: int = 2,
        device_name: str = "A100",
    ) -> None:
        if shards < 1:
            raise ReproError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.placement = placement
        self.retry_budget = retry_budget
        self.pool = DevicePool.of(
            n_devices if n_devices is not None else min(shards, 4),
            device_name,
        )

    def forward_evaluator(
        self, matrix: CSRMatrix, kernel: SpMVKernel
    ) -> ShardedEvaluator:
        """``A @ W`` for one converted matrix.

        A warm tuning-cache entry for this matrix structure transparently
        upgrades the evaluator (block size, shard count/policy,
        placement); a cold cache changes nothing — serving never runs a
        sweep inline.
        """
        return tuned_or_default_evaluator(
            matrix,
            kernel,
            self.shards,
            pool=self.pool,
            placement=self.placement,
            retry_budget=self.retry_budget,
        )

    def adjoint_evaluator(
        self, matrix: CSRMatrix, kernel: SpMVKernel
    ) -> ShardedEvaluator:
        """``A^T @ r`` for one converted matrix, at this shard count.

        The rows of the explicit transpose are spots, so the adjoint's
        merge, like the forward's, is an index-ordered slice write with
        no floating-point arithmetic: the gradient is bitwise
        independent of the shard count.
        """
        return ShardedEvaluator(
            matrix.transposed(),
            kernel,
            self.shards,
            pool=self.pool,
            placement=self.placement,
            retry_budget=self.retry_budget,
        )

    def run_batch(
        self,
        evaluator: ShardedEvaluator,
        weight_vectors: Sequence[np.ndarray],
        injector: Optional[FailureInjector] = None,
    ) -> MultiVectorSpMVResult:
        """Evaluate one coalesced batch, sharded.

        Returns the same result shape the single-device
        :func:`~repro.kernels.batched.run_multi_spmv` produces, so the
        service's accounting and per-request resolution code run
        unchanged; ``shards`` records the fan-out for provenance.
        """
        evaluation: ShardedEvaluation = evaluator.evaluate_multi(
            weight_vectors, injector=injector
        )
        single_s = evaluation.single_vector_wall_s
        per_vector: List[ShardedVectorResult] = [
            ShardedVectorResult(
                y=np.ascontiguousarray(evaluation.doses[:, b]),
                timing=_ModeledTiming(time_s=single_s),
            )
            for b in range(evaluation.batch)
        ]
        return MultiVectorSpMVResult(
            per_vector=per_vector,  # type: ignore[arg-type]
            batched_time_s=evaluation.wall_time_s,
            unbatched_time_s=evaluation.batch * single_s,
            spmm=True,
            shards=evaluator.n_shards,
        )
