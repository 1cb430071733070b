"""Sharded multi-device dose evaluation with a bitwise-identity contract.

:class:`ShardedEvaluator` is the distribution-layer counterpart of one
kernel invocation: it shards the deposition matrix
(:mod:`repro.dist.sharding`), compiles **one fused**
:class:`~repro.kernels.plan.ShardedPlan` covering every shard, places
shards on a simulated device pool (:mod:`repro.dist.pool`), executes
them under the retry crash barrier (:mod:`repro.dist.executor`), and
writes every shard's output directly into its merge-ordered slice of a
single preallocated dose array — the tree merge degenerates to a
zero-copy index-ordered write.

The contract, inherited from the paper and extended across device
boundaries: for every shard count, pool size and dispatch mode, the
sharded dose is **bitwise identical** to the single-device evaluation.
The argument has three independently checkable legs:

1. every dose row is reduced by exactly one warp in a fixed order, and
   that order depends only on the row's own elements — so a row computes
   the same bits inside a shard block as inside the full matrix;
2. shards are disjoint contiguous row blocks, so placing results
   involves no floating-point arithmetic at all;
3. output slices are ordered by explicit shard index, never by
   completion, container, or device order (rule RA106).

Timing is modeled, like everything in the simulated-GPU substrate.  Two
dispatch modes are priced:

* ``"launch"`` — the historical path: every shard pays one full
  :data:`~repro.gpu.timing.KERNEL_LAUNCH_OVERHEAD_S` (4 us), which at
  8 shards of a millisecond-scale matrix eats most of the speedup;
* ``"graph"`` (default) — CUDA-graph-style dispatch: the per-shard work
  list is captured once at compile time, each evaluation pays one
  :data:`~repro.gpu.timing.GRAPH_REPLAY_OVERHEAD_S` per device plus a
  small :data:`~repro.gpu.timing.GRAPH_NODE_OVERHEAD_S` per shard node.

Both modes execute the identical arithmetic — dispatch affects when
work is submitted, never what it computes — so the choice is invisible
to the dose bits; :class:`ShardedEvaluation` carries the legacy
per-launch wall time alongside for before/after reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gpu.timing import (
    GRAPH_NODE_OVERHEAD_S,
    GRAPH_REPLAY_OVERHEAD_S,
    KERNEL_LAUNCH_OVERHEAD_S,
)
from repro.kernels.base import SpMVKernel
from repro.kernels.plan import (
    ShardedPlan,
    compile_sharded_plan,
    execute_plan_into,
    execute_plan_multi_into,
)
from repro.obs import artifact, metrics
from repro.obs.trace import span as trace_span
from repro.precision.types import HALF_DOUBLE
from repro.sparse.csr import CSRMatrix
from repro.util.errors import ReproError, ShapeError

from repro.dist.executor import (
    FailureInjector,
    RetryBudget,
    run_shard_with_retry,
)
from repro.dist.pool import DevicePool, Placement, SimulatedDevice, place_shards
from repro.dist.sharding import ShardedMatrix, fuse_small_shards, shard_matrix

#: how per-evaluation fixed costs are charged (see module docstring).
DISPATCH_MODES: Tuple[str, ...] = ("graph", "launch")


@dataclass(frozen=True)
class CompiledShard:
    """One shard ready to execute: row range + block + device.

    The compiled plan itself lives in the evaluator's fused
    :class:`~repro.kernels.plan.ShardedPlan`; ``slice_index`` is both the
    shard index and the position of the matching
    :class:`~repro.kernels.plan.PlanSlice`.
    """

    index: int
    row_start: int
    row_end: int
    block: CSRMatrix
    device: SimulatedDevice


@dataclass(frozen=True)
class ShardedEvaluation:
    """Outcome of one sharded dose evaluation.

    ``doses`` has shape ``(n_rows,)`` for a single weight vector or
    ``(n_rows, B)`` for a batch; per-shard/per-device times are indexed
    by shard index / device index respectively.
    """

    doses: np.ndarray
    batch: int
    n_shards: int
    n_devices: int
    #: dispatch mode the fixed costs were priced under.
    dispatch: str
    #: modeled kernel time of each shard for the whole batch, by shard
    #: index, including that shard's dispatch share (node or launch).
    per_shard_time_s: Tuple[float, ...]
    #: the same, with every fixed dispatch cost stripped: the pure
    #: memory/compute core the analytic model prices.
    per_shard_core_time_s: Tuple[float, ...]
    #: modeled stand-alone single-vector time of each shard, by shard
    #: index (what one unbatched request would cost, dispatch included).
    per_shard_single_time_s: Tuple[float, ...]
    #: each device's serialized total over its shards, by device index,
    #: including that device's dispatch overhead.
    per_device_time_s: Tuple[float, ...]
    #: fixed dispatch cost charged to each device (graph: one replay +
    #: one node slot per shard; launch: one full launch per shard).
    per_device_dispatch_s: Tuple[float, ...]
    #: wall time of a one-vector sharded run on the same placement (the
    #: stand-alone cost of one unbatched request).
    single_vector_wall_s: float
    #: wall time the same placement would post under per-shard
    #: ``"launch"`` dispatch — the pre-graph baseline, kept so benches
    #: report the overhead elimination as a before/after pair.
    legacy_wall_time_s: float
    #: retries actually spent during this evaluation.
    retries: int

    @property
    def wall_time_s(self) -> float:
        """Devices run concurrently: the slowest device sets the pace."""
        return max(self.per_device_time_s)

    @property
    def serial_time_s(self) -> float:
        """All shards back to back on one device (the 1-device view)."""
        total = sum(self.per_shard_time_s)
        if self.dispatch == "graph":
            total += GRAPH_REPLAY_OVERHEAD_S
        return total

    @property
    def dispatch_overhead_s(self) -> float:
        """Fixed dispatch cost on the critical (slowest) device."""
        d = max(
            range(len(self.per_device_time_s)),
            key=lambda i: self.per_device_time_s[i],
        )
        return self.per_device_dispatch_s[d]


class ShardedEvaluator:
    """Evaluate ``d = A @ w`` across a pool of simulated devices.

    ``kernel`` must belong to a compiled-plan family (``plan_family``
    attribute — the vector and scalar CSR kernels qualify); the matrix
    must already be stored in the kernel's matrix precision, exactly as
    for a single-device run.

    ``dispatch`` selects how fixed costs are charged (``"graph"`` or
    ``"launch"``); ``threads_per_block`` overrides the kernel's default
    block size for the timing model (the autotuner's knob);
    ``fuse_below_bytes`` coalesces shards whose modeled cost falls under
    the given equivalent-byte floor before placement (0 disables).  All
    three affect timing only — the dose bits are invariant.
    """

    def __init__(
        self,
        matrix: CSRMatrix,
        kernel: SpMVKernel,
        n_shards: int,
        pool: Optional[DevicePool] = None,
        placement: str = "memory",
        shard_policy: str = "balanced",
        retry_budget: int = 2,
        dispatch: str = "graph",
        threads_per_block: Optional[int] = None,
        fuse_below_bytes: float = 0.0,
    ) -> None:
        if not hasattr(kernel, "plan_family"):
            raise ReproError(
                f"kernel {kernel.name!r} has no compiled-plan family; "
                "sharded evaluation requires a plan-family kernel "
                "(vector or scalar CSR)"
            )
        if retry_budget < 0:
            raise ShapeError(
                f"retry_budget must be >= 0, got {retry_budget}"
            )
        if dispatch not in DISPATCH_MODES:
            raise ShapeError(
                f"unknown dispatch mode {dispatch!r}; "
                f"expected one of {DISPATCH_MODES}"
            )
        self.kernel = kernel
        self.retry_budget = retry_budget
        self.dispatch = dispatch
        self.threads_per_block = threads_per_block
        self.pool = pool if pool is not None else DevicePool.homogeneous(
            min(n_shards, 4)
        )
        with trace_span(
            "dist.compile",
            shards=n_shards,
            devices=self.pool.n_devices,
            kernel=kernel.name,
            dispatch=dispatch,
        ):
            sharded = shard_matrix(matrix, n_shards, policy=shard_policy)
            if fuse_below_bytes > 0:
                sharded = fuse_small_shards(sharded, fuse_below_bytes)
            self.sharded: ShardedMatrix = sharded
            self.placement: Placement = place_shards(
                self.sharded,
                self.pool,
                policy=placement,
                precision=getattr(kernel, "precision", HALF_DOUBLE),
            )
            accum = kernel.precision.accumulate.dtype
            # All per-shard plans are compiled once into a fused
            # ShardedPlan with merge-ordered output slices (not through
            # the process-global LRU: an 8-shard evaluator would
            # otherwise evict half the serving cache, and the evaluator
            # owning its plan keeps the source-identity check stable for
            # its whole lifetime).
            self.plan: ShardedPlan = compile_sharded_plan(
                matrix,
                [
                    (spec.row_start, spec.row_end, block)
                    for spec, block in zip(
                        self.sharded.specs, self.sharded.blocks
                    )
                ],
                family=kernel.plan_family,
                accum_dtype=accum,
            )
            self.shards: Tuple[CompiledShard, ...] = tuple(
                CompiledShard(
                    index=spec.index,
                    row_start=spec.row_start,
                    row_end=spec.row_end,
                    block=block,
                    device=self.pool.devices[
                        self.placement.device_of(spec.index)
                    ],
                )
                for spec, block in zip(self.sharded.specs, self.sharded.blocks)
            )
            # Timing depends only on structure + launch config, so the
            # per-shard core times (model time minus the launch term)
            # are priced once here and reused by every evaluation —
            # steady-state dispatch never re-runs the counter model for
            # batch sizes it has already seen.
            self._core_times: Dict[int, Tuple[float, ...]] = {
                1: tuple(
                    self._model_core(shard, batch=1) for shard in self.shards
                )
            }
        metrics.counter("dist.evaluators_built").inc()
        if artifact.enabled():
            artifact.record(
                "shard_partition",
                n_shards=self.sharded.n_shards,
                requested_shards=n_shards,
                policy=shard_policy,
                dispatch=dispatch,
                kernel=kernel.name,
                imbalance=float(self.sharded.imbalance),
                matrix_fingerprint=artifact.matrix_fingerprint(matrix),
                shards=[
                    {
                        "index": spec.index,
                        "row_start": spec.row_start,
                        "row_end": spec.row_end,
                        "nnz": spec.nnz,
                    }
                    for spec in self.sharded.specs
                ],
            )
            artifact.record(
                "shard_placement",
                policy=placement,
                devices=self.pool.n_devices,
                assignments=[
                    {
                        "shard": spec.index,
                        "device": self.pool.devices[
                            self.placement.device_of(spec.index)
                        ].name,
                    }
                    for spec in self.sharded.specs
                ],
            )

    # ------------------------------------------------------------------ #

    @property
    def n_shards(self) -> int:
        return self.sharded.n_shards

    @property
    def n_rows(self) -> int:
        return self.sharded.n_rows

    @property
    def n_cols(self) -> int:
        return self.sharded.n_cols

    def matches(self, matrix: CSRMatrix) -> bool:
        """Identity check: was this evaluator built for ``matrix``?"""
        source = self.sharded.source
        return (
            source.data is matrix.data and source.indices is matrix.indices
        )

    def _execution_order(self) -> List[CompiledShard]:
        """Interleave shards across devices, simulating concurrency.

        Round ``j`` visits every device's ``j``-th shard, so completion
        order genuinely differs from shard order whenever more than one
        device is active — which is what makes the explicit
        index-ordered output slices a load-bearing contract rather than
        a no-op.
        """
        per_device = [
            [self.shards[k] for k in self.placement.shards_on(d)]
            for d in range(self.pool.n_devices)
        ]
        order: List[CompiledShard] = []
        for step in range(max((len(q) for q in per_device), default=0)):
            for queue in per_device:
                if step < len(queue):
                    order.append(queue[step])
        return order

    # ------------------------------------------------------------------ #
    # timing model
    # ------------------------------------------------------------------ #

    def _model_core(self, shard: CompiledShard, batch: int) -> float:
        """Modeled core time of one shard (fixed launch cost stripped)."""
        est = self.kernel.model_timing(
            shard.block,
            device=shard.device.spec,
            threads_per_block=self.threads_per_block,
            batch=batch,
        )
        return est.time_s - est.components["launch"]

    def _batch_core_times(self, batch: int) -> Tuple[float, ...]:
        """Per-shard core times for a ``batch``-vector evaluation."""
        cached = self._core_times.get(batch)
        if cached is not None:
            return cached
        if hasattr(self.kernel, "multi_counters"):
            cores = tuple(
                self._model_core(shard, batch=batch) for shard in self.shards
            )
        else:
            # No SpMM traffic model: the batch streams the matrix once
            # per vector, so the core scales linearly.
            cores = tuple(batch * c for c in self._core_times[1])
        self._core_times[batch] = cores
        return cores

    def _dispatch_cost(self, n_shards_on_device: int, mode: str) -> float:
        """Fixed cost a device pays to submit its shard queue."""
        if n_shards_on_device == 0:
            return 0.0
        if mode == "graph":
            return (
                GRAPH_REPLAY_OVERHEAD_S
                + n_shards_on_device * GRAPH_NODE_OVERHEAD_S
            )
        return n_shards_on_device * KERNEL_LAUNCH_OVERHEAD_S

    def _device_times(
        self, cores: Sequence[float], mode: str
    ) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """(total, dispatch) per device for given per-shard core times."""
        totals = []
        dispatches = []
        for d in range(self.pool.n_devices):
            on_d = self.placement.shards_on(d)
            dispatch = self._dispatch_cost(len(on_d), mode)
            totals.append(sum(cores[k] for k in on_d) + dispatch)
            dispatches.append(dispatch)
        return tuple(totals), tuple(dispatches)

    # ------------------------------------------------------------------ #

    def evaluate(
        self,
        weights: np.ndarray,
        injector: Optional[FailureInjector] = None,
    ) -> ShardedEvaluation:
        """Evaluate one weight vector across the pool."""
        return self._evaluate([np.asarray(weights)], injector, batch=False)

    def evaluate_multi(
        self,
        weight_vectors: Sequence[np.ndarray],
        injector: Optional[FailureInjector] = None,
    ) -> ShardedEvaluation:
        """Evaluate a batch of weight vectors (the serving SpMM view)."""
        if not weight_vectors:
            raise ShapeError("need at least one weight vector")
        return self._evaluate(
            [np.asarray(w) for w in weight_vectors], injector, batch=True
        )

    def _evaluate(
        self,
        arrays: List[np.ndarray],
        injector: Optional[FailureInjector],
        batch: bool,
    ) -> ShardedEvaluation:
        for i, w in enumerate(arrays):
            if w.ndim != 1 or w.shape[0] != self.n_cols:
                raise ShapeError(
                    f"vector {i}: matrix has {self.n_cols} columns but "
                    f"weight vector has shape {w.shape}"
                )
        B = len(arrays)
        budget = RetryBudget(total=self.retry_budget)
        accum = self.plan.accum_dtype
        with trace_span(
            "dist.evaluate",
            shards=self.n_shards,
            devices=self.pool.n_devices,
            batch=B,
            kernel=self.kernel.name,
            dispatch=self.dispatch,
        ) as sp:
            # One cast per evaluation, hoisted out of the shard loop;
            # one output allocation that every shard writes its
            # merge-ordered slice into (zero-copy merge).
            out = np.zeros((self.n_rows, B), dtype=np.float64)
            if B == 1:
                xa = arrays[0].astype(accum, copy=False)
                for shard in self._execution_order():
                    s = self.plan.slices[shard.index]
                    run_shard_with_retry(
                        shard.index,
                        shard.device.name,
                        lambda sl=s: execute_plan_into(
                            sl.plan,
                            xa,
                            out[sl.row_start : sl.row_end, 0],
                        ),
                        budget,
                        injector,
                    )
            else:
                xt = np.empty((B, self.n_cols), dtype=accum)
                for b, w in enumerate(arrays):
                    xt[b] = w.astype(accum, copy=False)
                for shard in self._execution_order():
                    s = self.plan.slices[shard.index]
                    run_shard_with_retry(
                        shard.index,
                        shard.device.name,
                        lambda sl=s: execute_plan_multi_into(
                            sl.plan,
                            xt,
                            out[sl.row_start : sl.row_end, :].T,
                        ),
                        budget,
                        injector,
                    )
            doses = out if batch else out[:, 0]

            cores = self._batch_core_times(B)
            single_cores = self._core_times[1]
            per_shard_node = (
                GRAPH_NODE_OVERHEAD_S
                if self.dispatch == "graph"
                else KERNEL_LAUNCH_OVERHEAD_S
            )
            device_times, device_dispatch = self._device_times(
                cores, self.dispatch
            )
            single_device_times, _ = self._device_times(
                single_cores, self.dispatch
            )
            legacy_device_times, _ = self._device_times(cores, "launch")
            sp.set_attrs(retries=budget.spent)
        metrics.counter("dist.evaluations").inc()
        metrics.counter("dist.shards_executed").inc(self.n_shards)
        return ShardedEvaluation(
            doses=doses,
            batch=B,
            n_shards=self.n_shards,
            n_devices=self.pool.n_devices,
            dispatch=self.dispatch,
            per_shard_time_s=tuple(c + per_shard_node for c in cores),
            per_shard_core_time_s=cores,
            per_shard_single_time_s=tuple(
                c + per_shard_node for c in single_cores
            ),
            per_device_time_s=device_times,
            per_device_dispatch_s=device_dispatch,
            single_vector_wall_s=max(single_device_times),
            legacy_wall_time_s=max(legacy_device_times),
            retries=budget.spent,
        )


def tuned_or_default_evaluator(
    matrix: CSRMatrix,
    kernel: SpMVKernel,
    n_shards: int,
    pool: Optional[DevicePool] = None,
    placement: str = "memory",
    retry_budget: int = 2,
) -> ShardedEvaluator:
    """The forward :class:`ShardedEvaluator` for ``matrix`` on ``pool``.

    A warm tuning-cache entry for this matrix structure and pool width
    upgrades the configuration (shard count and policy, placement,
    dispatch, block size); a cold cache gives ``n_shards`` balanced
    shards placed by ``placement``.  Lookup only: nothing is tuned
    inline, and the dose bits are the same either way.
    """
    # Imported lazily: repro.tune depends on this package.
    from repro.tune.autotuner import tuned_config_for

    if pool is None:
        pool = DevicePool.homogeneous(min(n_shards, 4))
    tuned = tuned_config_for(
        matrix,
        kernel,
        device=pool.devices[0].spec.name,
        n_devices=pool.n_devices,
    )
    if tuned is None:
        return ShardedEvaluator(
            matrix,
            kernel,
            n_shards,
            pool=pool,
            placement=placement,
            retry_budget=retry_budget,
        )
    metrics.counter("dist.evaluators_tuned").inc()
    return ShardedEvaluator(
        matrix,
        kernel,
        tuned.n_shards,
        pool=pool,
        placement=tuned.placement,
        shard_policy=tuned.shard_policy,
        retry_budget=retry_budget,
        dispatch=tuned.dispatch,
        threads_per_block=tuned.threads_per_block,
    )
