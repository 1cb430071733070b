"""Sharded objective + gradient evaluation for plan optimization.

One optimizer iteration needs ``f(w)`` and ``∇f(w) = A^T (∂f/∂d)`` —
a forward dose product, a pure objective evaluation on the dose, and an
adjoint product.  Both matrix products ride the existing bitwise stack:

* **forward** ``d = A @ w`` through a :class:`repro.dist.ShardedEvaluator`
  (per-shard compiled :class:`~repro.kernels.plan.SpMVPlan`\\ s, device
  pool, fixed index-ordered merge);
* **adjoint** ``A^T r`` through either the first-class
  :class:`~repro.kernels.plan.TransposePlan` (single device) or a second
  ``ShardedEvaluator`` over the explicitly transposed matrix (its rows
  are spots, so the sharded adjoint also merges by pure concatenation).

Because every output component of both products is reduced by exactly
one warp in a fixed order and both merges involve no floating-point
arithmetic, ``f`` and ``∇f`` are **bitwise identical across shard
counts** — the per-iteration leg of the trajectory-determinism
invariant.  The objective itself is pure float64 numpy on the dose, so
it cannot break the invariant.

Two flavors share the :class:`ObjectiveEvaluation` result type:

* :class:`LocalObjectiveEvaluator` — single-device reference path
  (plain ``kernel.run`` + :class:`TransposePlan`), used by the audit as
  an independent recomputation;
* :class:`DistributedObjectiveEvaluator` — the sharded production path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dist.evaluator import ShardedEvaluator, tuned_or_default_evaluator
from repro.dist.pool import DevicePool
from repro.kernels.base import SpMVKernel
from repro.kernels.plan import TransposePlan, compile_transpose_plan
from repro.obs import metrics
from repro.obs.trace import span as trace_span
from repro.opt.objectives import CompositeObjective
from repro.sparse.csr import CSRMatrix
from repro.util.errors import ReproError, ShapeError


@dataclass(frozen=True)
class ObjectiveEvaluation:
    """One ``(f, ∇f)`` evaluation with its provenance."""

    value: float
    gradient: np.ndarray
    dose: np.ndarray
    #: modeled kernel wall time (forward + adjoint) for this evaluation.
    modeled_time_s: float
    #: shard retries spent (sharded paths only).
    retries: int = 0


def _check_weights(w: np.ndarray, n_weights: int) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (n_weights,):
        raise ShapeError(
            f"weights have shape {w.shape}, expected ({n_weights},)"
        )
    return w


class LocalObjectiveEvaluator:
    """Single-device ``(f, ∇f)`` — the audit's independent reference.

    Forward through ``kernel.run`` with a compiled plan; adjoint through
    the first-class :class:`TransposePlan`.  The sharded evaluator must
    agree with this path bit for bit at every shard count.
    """

    def __init__(self, matrix: CSRMatrix, kernel: SpMVKernel) -> None:
        if not hasattr(kernel, "plan_family"):
            raise ReproError(
                f"kernel {kernel.name!r} has no compiled-plan family; "
                "objective evaluation requires a plan-family kernel"
            )
        self.matrix = matrix
        self.kernel = kernel
        self.plan = kernel.prepare_plan(matrix)
        self.tplan: TransposePlan = compile_transpose_plan(
            matrix, kernel.plan_family, kernel.precision.accumulate.dtype
        )

    @property
    def n_weights(self) -> int:
        return self.matrix.n_cols

    @property
    def n_voxels(self) -> int:
        return self.matrix.n_rows

    @property
    def n_shards(self) -> int:
        return 1

    def value_and_gradient(
        self, w: np.ndarray, objective: CompositeObjective
    ) -> ObjectiveEvaluation:
        w = _check_weights(w, self.n_weights)
        with trace_span("opt.eval", path="local"):
            forward = self.kernel.run(self.matrix, w, plan=self.plan)
            dose = forward.y
            value, grad_d = objective.value_and_gradient(dose)
            adjoint = self.kernel.run(
                self.tplan.matrix, grad_d, plan=self.tplan.plan
            )
            gradient = adjoint.y
        metrics.counter("opt.dist.evaluations").inc()
        return ObjectiveEvaluation(
            value=float(value),
            gradient=gradient,
            dose=dose,
            modeled_time_s=forward.timing.time_s + adjoint.timing.time_s,
        )


class DistributedObjectiveEvaluator:
    """Sharded ``(f, ∇f)`` over a simulated device pool.

    Shards both the forward matrix and its explicit transpose
    ``n_shards`` ways onto the pool.  The adjoint's shards are rows of
    ``A^T`` — whole spots — so its merge, like the forward's, is a pure
    index-ordered concatenation: no cross-shard floating-point
    reduction anywhere, which is what makes the evaluation bitwise
    shard-count-independent.
    """

    def __init__(
        self,
        matrix: CSRMatrix,
        kernel: SpMVKernel,
        n_shards: int = 1,
        pool: Optional[DevicePool] = None,
        placement: str = "memory",
        retry_budget: int = 2,
    ) -> None:
        self.matrix = matrix
        self.kernel = kernel
        with trace_span("opt.dist.compile", shards=n_shards):
            self.forward = tuned_or_default_evaluator(
                matrix,
                kernel,
                n_shards,
                pool=pool,
                placement=placement,
                retry_budget=retry_budget,
            )
            # The transpose's bits are a pure function of the forward
            # matrix's (stable counting sort), so local and sharded
            # evaluators agree on the adjoint operand exactly.
            self._transposed = matrix.transposed()
            self.adjoint = ShardedEvaluator(
                self._transposed,
                kernel,
                n_shards,
                pool=self.forward.pool,
                placement=placement,
                retry_budget=retry_budget,
            )
        metrics.counter("opt.dist.evaluators_built").inc()

    @property
    def n_weights(self) -> int:
        return self.matrix.n_cols

    @property
    def n_voxels(self) -> int:
        return self.matrix.n_rows

    @property
    def n_shards(self) -> int:
        return self.forward.n_shards

    def matches(self, matrix: CSRMatrix) -> bool:
        """Identity check: was this evaluator built for ``matrix``?"""
        return self.forward.matches(matrix)

    def value_and_gradient(
        self, w: np.ndarray, objective: CompositeObjective
    ) -> ObjectiveEvaluation:
        w = _check_weights(w, self.n_weights)
        with trace_span(
            "opt.eval", path="dist", shards=self.n_shards
        ):
            fwd = self.forward.evaluate(w)
            dose = fwd.doses
            value, grad_d = objective.value_and_gradient(dose)
            adj = self.adjoint.evaluate(grad_d)
            gradient = adj.doses
        metrics.counter("opt.dist.evaluations").inc()
        return ObjectiveEvaluation(
            value=float(value),
            gradient=gradient,
            dose=dose,
            modeled_time_s=fwd.wall_time_s + adj.wall_time_s,
            retries=fwd.retries + adj.retries,
        )
