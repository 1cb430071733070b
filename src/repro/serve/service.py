"""The dose-evaluation service: submit ``A[plan] @ w``, get a dose back.

Pipeline::

    submit() -> RequestQueue -> MicroBatchScheduler -> WorkerPool
                  (bounded,        (same-plan            (plan cache +
                   per-client       coalescing            kernel run,
                   fairness)        window)               SpMM batch)

Guarantees:

* **Determinism** — a served dose is bitwise identical to a stand-alone
  kernel evaluation of the same (plan, precision, weights), regardless
  of arrival order, batch composition, window length, or worker count.
  Only reproducible kernels are admitted (RayStation's requirement,
  Section II-D, lifted to the service layer); the non-reproducible
  atomics baseline is rejected unless explicitly allowed.
* **Backpressure** — ``submit`` never blocks and never queues without
  bound: it answers with a typed :class:`Rejected` when the queue is
  full, the client is over quota, or the service is draining.
* **Graceful shutdown** — ``stop()`` drains admitted requests, then
  joins the scheduler and every worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.dist.backend import ShardedServeBackend
from repro.dist.evaluator import ShardedEvaluator
from repro.gpu.device import A100, DeviceSpec
from repro.kernels.batched import run_multi_spmv
from repro.kernels.dispatch import kernel_names, make_kernel
from repro.obs import artifact, metrics
from repro.obs.clock import Clock, get_clock
from repro.obs.lockwitness import guarded_lock
from repro.obs.logging import get_logger, kv
from repro.obs.trace import span as trace_span
from repro.serve.cache import PlanEntry, PlanMatrixCache, PlanStore
from repro.serve.queue import RequestQueue
from repro.serve.request import (
    EvaluationRequest,
    EvaluationResult,
    Outcome,
    Rejected,
    RejectReason,
    ServeError,
    Ticket,
)
from repro.serve.scheduler import Batch, BatchingPolicy, MicroBatchScheduler
from repro.serve.workers import WorkerPool

_log = get_logger(__name__)


@dataclass(frozen=True)
class ServiceConfig:
    """All serving knobs in one place."""

    queue_capacity: int = 256
    max_inflight_per_client: int = 64
    n_workers: int = 2
    batching: BatchingPolicy = field(default_factory=BatchingPolicy)
    plan_cache_capacity: int = 8
    device: DeviceSpec = A100
    #: admit kernels whose results are not bitwise reproducible (the
    #: atomics baseline); off by default — serving is a clinical path.
    allow_nonreproducible: bool = False
    #: row shards per evaluation (1 == classic single-device serving;
    #: >1 routes batches through a :class:`repro.dist.ShardedServeBackend`
    #: with the bitwise contract intact).
    shards: int = 1
    #: simulated devices in the sharded pool (None: min(shards, 4)).
    dist_devices: Optional[int] = None
    #: shard placement policy ("memory" or "round_robin").
    dist_placement: str = "memory"
    #: total per-evaluation retry budget for transient device failures.
    dist_retry_budget: int = 2


class DoseEvaluationService:
    """Concurrent front end over the kernel library."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 clock: Optional[Clock] = None) -> None:
        self.config = config or ServiceConfig()
        self._clock = clock or get_clock()
        self.plans = PlanStore()
        self._backend = ShardedServeBackend(
            shards=self.config.shards,
            n_devices=self.config.dist_devices,
            placement=self.config.dist_placement,
            retry_budget=self.config.dist_retry_budget,
            device_name=self.config.device.name,
        )
        self._cache = PlanMatrixCache(
            self.plans, capacity=self.config.plan_cache_capacity,
            backend=self._backend,
        )
        self._queue = RequestQueue(
            self.config.queue_capacity,
            self.config.max_inflight_per_client,
            clock=self._clock,
        )
        self._scheduler = MicroBatchScheduler(
            self._queue, self.config.batching, self.config.n_workers,
            clock=self._clock,
            # idempotent sentinel delivery (the pool is constructed two
            # lines down; the lambda resolves it at shutdown time).
            stop_sentinels=lambda: self._workers.deliver_stop_sentinels(),
        )
        self._workers = WorkerPool(
            self._scheduler.batches, self._execute_batch,
            n_workers=self.config.n_workers, resolver=self._resolve,
        )
        self._reproducible_kernels = self._probe_reproducible()
        self._shardable_kernels = self._probe_shardable()
        self._started = False
        self._stopped = False
        self._accounting = guarded_lock(  # analyze: lock-guards[modeled_batched_s, modeled_sequential_s, plan_cache_hits, plan_cache_misses]
            "serve.service.accounting"
        )
        #: modelled kernel seconds, batched vs sequential (loadtest report).
        self.modeled_batched_s = 0.0
        self.modeled_sequential_s = 0.0
        #: plan-cache outcome of every executed batch (loadtest report).
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0

    @staticmethod
    def _probe_reproducible() -> Dict[str, bool]:
        return {
            name: make_kernel(name).reproducible for name in kernel_names()
        }

    @staticmethod
    def _probe_shardable() -> Dict[str, bool]:
        """Which kernels can run sharded (compiled-plan families only)."""
        return {
            name: hasattr(make_kernel(name), "plan_family")
            for name in kernel_names()
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "DoseEvaluationService":
        if self._started:
            raise ServeError("service already started")
        self._started = True
        self._scheduler.start()
        self._workers.start()
        _log.info(kv("service started", workers=self.config.n_workers,
                     queue_capacity=self.config.queue_capacity))
        return self

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Drain admitted requests, then stop scheduler and workers."""
        if not self._started or self._stopped:
            return
        self._stopped = True
        self._queue.close()
        self._scheduler.join(timeout)
        # Backstop: if the scheduler thread died before emitting stop
        # sentinels, deliver them here; delivery is idempotent, so the
        # normal path (scheduler already delivered) is a no-op.
        self._workers.deliver_stop_sentinels()
        self._workers.join(timeout)
        _log.info(kv("service stopped"))

    def __enter__(self) -> "DoseEvaluationService":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #

    def submit(self, request: EvaluationRequest) -> Union[Ticket, Rejected]:
        """Admit a request (returns a :class:`Ticket`) or reject it now."""
        metrics.counter("serve.submitted").inc()
        rejection = self._validate(request)
        if rejection is not None:
            return rejection
        ticket = Ticket(request=request,
                        submitted_at=self._clock.monotonic())
        rejection = self._queue.offer(ticket)
        if rejection is not None:
            return rejection
        return ticket

    def _validate(self, request: EvaluationRequest) -> Optional[Rejected]:
        def reject(reason: RejectReason, detail: str) -> Rejected:
            metrics.counter(f"serve.rejections.{reason.value}").inc()
            return Rejected(request.request_id, reason, detail)

        if not self._started or self._stopped:
            return reject(RejectReason.SHUTTING_DOWN,
                          "service is not accepting requests")
        reproducible = self._reproducible_kernels.get(request.precision)
        if reproducible is None:
            return reject(
                RejectReason.UNKNOWN_PRECISION,
                f"no kernel named {request.precision!r}; available: "
                f"{sorted(self._reproducible_kernels)}",
            )
        if not reproducible and not self.config.allow_nonreproducible:
            return reject(
                RejectReason.NONREPRODUCIBLE,
                f"kernel {request.precision!r} is not bitwise reproducible "
                "and the service requires reproducible results",
            )
        if (
            self.config.shards > 1
            and not self._shardable_kernels.get(request.precision, False)
        ):
            return reject(
                RejectReason.UNSHARDABLE,
                f"kernel {request.precision!r} has no compiled-plan family "
                f"and this service shards evaluations "
                f"{self.config.shards} ways",
            )
        record = self.plans.get(request.plan_id)
        if record is None:
            return reject(
                RejectReason.UNKNOWN_PLAN,
                f"plan {request.plan_id!r} is not registered",
            )
        if request.weights.shape[0] != record.n_spots:
            return reject(
                RejectReason.BAD_SHAPE,
                f"plan {request.plan_id!r} has {record.n_spots} spots but "
                f"weights have shape {request.weights.shape}",
            )
        spot = request.non_finite_spot
        if spot is not None:
            return reject(
                RejectReason.NON_FINITE,
                f"weight of spot {spot} is {request.weights[spot]}",
            )
        return None

    def evaluate(
        self, requests: Sequence[EvaluationRequest],
        timeout: Optional[float] = 60.0,
    ) -> List[Outcome]:
        """Submit many requests and wait for every outcome (convenience)."""
        handles = [self.submit(r) for r in requests]
        return [
            h if isinstance(h, Rejected) else h.outcome(timeout)
            for h in handles
        ]

    def plan_entry(self, plan_id: str, precision: str) -> PlanEntry:
        """The plan-cache entry batches of this pair execute from.

        Other services built on this one (plan optimization) take the
        converted matrix and the adjoint from here, so one (plan,
        precision) is converted and compiled once in the process.
        Raises :class:`ServeError` for unknown plans.
        """
        entry, _ = self._cache.materialize(plan_id, precision)
        return entry

    # ------------------------------------------------------------------ #
    # scenario ensembles (delegates to repro.serve.ensemble)
    # ------------------------------------------------------------------ #

    def register_ensemble(self, plan_id: str, ensemble: object,
                          source: str = "workload"):
        """Register every scenario of an ensemble as plan ``plan_id@s{i}``."""
        from repro.serve.ensemble import register_ensemble

        return register_ensemble(self, plan_id, ensemble, source=source)

    def submit_ensemble(self, request, submit_order=None):
        """Fan one ensemble request out into per-scenario submissions."""
        from repro.serve.ensemble import submit_ensemble

        return submit_ensemble(self, request, submit_order=submit_order)

    def evaluate_ensemble(self, request, timeout: Optional[float] = 60.0,
                          submit_order=None):
        """Submit an ensemble request and wait for the merged dose stack."""
        from repro.serve.ensemble import evaluate_ensemble

        return evaluate_ensemble(
            self, request, timeout=timeout, submit_order=submit_order
        )

    # ------------------------------------------------------------------ #
    # execution (called from worker threads)
    # ------------------------------------------------------------------ #

    def _resolve(self, ticket: Ticket, outcome: Outcome) -> None:
        ticket.resolve(outcome)
        self._queue.release_client(ticket.request.client_id)
        if isinstance(outcome, EvaluationResult):
            metrics.counter("serve.completed").inc()
            metrics.histogram("serve.latency_ms").observe(
                outcome.latency_s * 1e3
            )

    def _execute_batch(self, batch: Batch, worker_name: str) -> None:
        started = self._clock.monotonic()
        try:
            entry, cache_hit = self._cache.materialize(
                batch.plan_id, batch.precision
            )
            weights = [t.request.weights for t in batch.tickets]
            forward = entry.forward
            if isinstance(forward, ShardedEvaluator):
                with trace_span("serve.dist_spmm", plan=batch.plan_id,
                                precision=batch.precision, size=len(batch),
                                shards=self.config.shards):
                    result = self._backend.run_batch(forward, weights)
            else:
                with trace_span("serve.spmm", plan=batch.plan_id,
                                precision=batch.precision, size=len(batch),
                                cache_hit=cache_hit):
                    result = run_multi_spmv(
                        entry.kernel, entry.matrix, weights,
                        device=self.config.device, plan=forward,
                    )
        except BaseException as exc:
            detail = f"{type(exc).__name__}: {exc}"
            metrics.counter("serve.batch_errors").inc()
            for ticket in batch.tickets:
                self._resolve(ticket, Rejected(
                    ticket.request.request_id,
                    RejectReason.INTERNAL_ERROR, detail,
                ))
            return
        with self._accounting:
            self.modeled_batched_s += result.batched_time_s
            self.modeled_sequential_s += result.unbatched_time_s
            if cache_hit:
                self.plan_cache_hits += 1
            else:
                self.plan_cache_misses += 1
        if artifact.enabled():
            artifact.record(
                "serve_batch",
                batch_id=batch.batch_id,
                plan_id=batch.plan_id,
                precision=batch.precision,
                size=len(batch),
                request_ids=sorted(
                    t.request.request_id for t in batch.tickets
                ),
                worker=worker_name,
                cache_hit=cache_hit,
                shards=result.shards,
                batched_time_s=result.batched_time_s,
                unbatched_time_s=result.unbatched_time_s,
            )
        resolved_at = self._clock.monotonic()
        for ticket, kernel_result in zip(batch.tickets, result.per_vector):
            request = ticket.request
            self._resolve(ticket, EvaluationResult(
                request_id=request.request_id,
                plan_id=request.plan_id,
                precision=request.precision,
                dose=kernel_result.y,
                batch_id=batch.batch_id,
                batch_size=len(batch),
                modeled_time_s=kernel_result.timing.time_s,
                queue_wait_s=started - ticket.submitted_at,
                latency_s=resolved_at - ticket.submitted_at,
                worker=worker_name,
                cache_hit=cache_hit,
                shards=result.shards,
            ))

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, float]:
        """Snapshot of the service's own counters (serve.* metrics)."""
        registry = metrics.get_registry()
        # Container sizes are read before taking the accounting lock:
        # each len() acquires a lower-level lock (queue=20, cache=30 vs
        # accounting=35), and the hierarchy forbids descending holds.
        queue_depth = float(len(self._queue))
        plan_cache_entries = float(len(self._cache))
        registered_plans = float(len(self.plans))
        with self._accounting:
            out: Dict[str, float] = {
                "queue_depth": queue_depth,
                "plan_cache_entries": plan_cache_entries,
                "registered_plans": registered_plans,
                "modeled_batched_s": self.modeled_batched_s,
                "modeled_sequential_s": self.modeled_sequential_s,
                "plan_cache_hits": float(self.plan_cache_hits),
                "plan_cache_misses": float(self.plan_cache_misses),
            }
        for name, state in registry.snapshot().items():
            if not name.startswith("serve."):
                continue
            if state["type"] == "histogram":
                out[f"{name}.count"] = state["count"]
                out[f"{name}.mean"] = state["mean"]
            else:
                out[name] = state["value"]
        return out
