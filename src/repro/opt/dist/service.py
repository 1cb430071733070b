"""The plan-optimization service: many plans, one device pool.

:class:`OptimizationService` turns the repo's serving story from "serves
dose evaluations" into "serves plan optimizations": it multiplexes many
warm-started concurrent optimizations over the existing
:class:`~repro.serve.service.DoseEvaluationService` micro-batcher.
Every iteration's **forward** product is submitted as an ordinary
:class:`~repro.serve.request.EvaluationRequest`, so forward doses from
concurrent optimizations of the *same plan* coalesce into one SpMM
micro-batch exactly like clinical traffic (and, with ``shards > 1``,
run through the sharded backend).  The **adjoint** product runs on the
adjoint evaluator of the serve plan-cache entry for that (plan,
precision) — a sharded evaluator over the explicitly transposed matrix,
built on first request, shared by every optimization of the plan, and
evicted with the entry's converted matrix.  Opt state per plan is
therefore bounded by the serve layer's ``plan_cache_capacity``.

Scheduling is cooperative: a worker advances one optimization by
``quantum`` iterations, then requeues it at the tail, so long
optimizations cannot starve short ones.  Between iterations the service
checks, in a fixed order, the typed terminal conditions —
**converged**, **budget-exhausted** (per-run ``max_iterations`` or the
tenant's shared iteration budget), **preempted** (cooperative
:meth:`OptimizationService.preempt` or service shutdown), **failed**
(evaluator exception) — and resolves the caller's
:class:`OptTicket` with an :class:`OptimizationOutcome` carrying the
final state, the bitwise trajectory witnesses, and a resumable
checkpoint.

Determinism: an optimization's trajectory is a pure function of
(matrix bits, objective specs, warm start, tolerance).  Served forward
doses are bitwise equal to stand-alone evaluation regardless of batch
composition (the serve contract), and the adjoint is bitwise
shard-count-independent (the evaluator contract) — so neither
concurrency, nor arrival order, nor budgets/preemption (which only
truncate) can change a single bit of any iterate.  The post-run audit
(:mod:`repro.opt.dist.audit`) enforces this end to end.
"""

from __future__ import annotations

import enum
import math
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.kernels.dispatch import make_kernel
from repro.obs import artifact, metrics
from repro.obs.clock import Clock, get_clock
from repro.obs.lockwitness import guarded_lock
from repro.obs.logging import get_logger, kv
from repro.obs.trace import span as trace_span
from repro.opt.objectives import CompositeObjective
from repro.serve.request import EvaluationRequest, EvaluationResult, Rejected
from repro.serve.scheduler import BatchingPolicy
from repro.serve.service import DoseEvaluationService, ServiceConfig
from repro.sparse.csr import CSRMatrix
from repro.util.errors import ReproError
from repro.util.validation import first_non_finite

from repro.opt.dist.evaluator import ObjectiveEvaluation
from repro.opt.dist.loop import (
    OptimizerState,
    TerminalState,
    TrajectoryPoint,
    advance,
    initial_state,
    record_checkpoint,
    record_iteration_point,
    stop_reason,
    trajectory_point,
    warm_start,
)
from repro.opt.dist.objective_spec import (
    ObjectiveTermSpec,
    build_objective,
    specs_to_dicts,
)

_log = get_logger("opt.service")


class OptServeError(ReproError):
    """An invalid interaction with the optimization service."""


class OptRejectReason(enum.Enum):
    """Why the service refused an optimization request."""

    UNKNOWN_PLAN = "unknown_plan"
    UNKNOWN_PRECISION = "unknown_precision"
    NONREPRODUCIBLE = "nonreproducible"
    UNSHARDABLE = "unshardable"
    DUPLICATE_ID = "duplicate_id"
    QUEUE_FULL = "queue_full"
    TENANT_BUDGET = "tenant_budget"
    BAD_REQUEST = "bad_request"
    SHUTTING_DOWN = "shutting_down"


@dataclass(frozen=True)
class OptimizationRequest:
    """One plan optimization to run to a typed terminal state."""

    opt_id: str
    plan_id: str
    objective: Tuple[ObjectiveTermSpec, ...]
    tenant: str = "default"
    precision: str = "half_double"
    seed: int = 0
    #: explicit warm start; when ``None``, derived from ``seed``/``opt_id``.
    w0: Optional[np.ndarray] = None
    max_iterations: int = 50
    tolerance: float = 1e-6
    initial_step: float = 1.0

    def __post_init__(self) -> None:
        if not self.objective:
            raise OptServeError(
                f"optimization {self.opt_id!r}: need at least one "
                "objective term"
            )
        if self.max_iterations <= 0:
            raise OptServeError(
                f"optimization {self.opt_id!r}: max_iterations must be "
                f"positive, got {self.max_iterations}"
            )
        if not (math.isfinite(self.initial_step) and self.initial_step > 0):
            raise OptServeError(
                f"optimization {self.opt_id!r}: initial_step must be "
                f"finite and positive, got {self.initial_step}"
            )


@dataclass(frozen=True)
class OptRejected:
    """A typed refusal to start (or continue admitting) an optimization."""

    opt_id: str
    reason: OptRejectReason
    detail: str = ""


@dataclass
class OptimizationOutcome:
    """A finished optimization: terminal state + trajectory + checkpoint."""

    opt_id: str
    tenant: str
    plan_id: str
    terminal: TerminalState
    iterations: int
    objective: float
    n_evals: int
    points: List[TrajectoryPoint]
    #: resumable bitwise checkpoint of the final state.
    checkpoint: Dict[str, object]
    detail: str = ""


OptOutcomeOrReject = Union[OptimizationOutcome, OptRejected]


@dataclass
class OptTicket:
    """In-flight handle for one submitted optimization (a minimal future)."""

    opt_id: str
    _event: threading.Event = field(default_factory=threading.Event,
                                    repr=False)
    _outcome: Optional[OptOutcomeOrReject] = field(default=None, repr=False)

    def done(self) -> bool:
        return self._event.is_set()

    def outcome(self, timeout: Optional[float] = None) -> OptOutcomeOrReject:
        """Block until terminal; raises :class:`OptServeError` on timeout."""
        if not self._event.wait(timeout):
            raise OptServeError(
                f"optimization {self.opt_id!r} not finished within {timeout}s"
            )
        assert self._outcome is not None
        return self._outcome

    def resolve(self, outcome: OptOutcomeOrReject) -> None:
        if self._event.is_set():
            raise OptServeError(
                f"optimization {self.opt_id!r} resolved twice"
            )
        self._outcome = outcome
        self._event.set()


@dataclass
class OptServiceConfig:
    """All optimization-service knobs in one place."""

    #: optimizer worker threads (how many optimizations advance at once).
    n_workers: int = 2
    #: row shards per matrix product (forward and adjoint).
    shards: int = 1
    #: devices in the simulated pool (defaults to ``min(shards, 4)``).
    dist_devices: int = 0
    placement: str = "memory"
    #: iterations one scheduling quantum advances before requeueing.
    quantum: int = 1
    #: record a resumable checkpoint every N iterations (0 = terminals only).
    checkpoint_every: int = 5
    #: concurrent optimizations the service will hold (admission bound).
    queue_capacity: int = 64
    #: shared per-tenant iteration budgets (``None`` = unlimited).
    tenant_budgets: Optional[Dict[str, int]] = None
    #: inner dose-serving micro-batcher knobs.
    serve_workers: int = 2
    batching: BatchingPolicy = field(default_factory=BatchingPolicy)
    plan_cache_capacity: int = 8
    #: timeout for one served forward evaluation.
    eval_timeout_s: float = 60.0


class _ServedObjectiveEvaluator:
    """``(f, ∇f)`` backend routing forwards through the micro-batcher.

    Implements the loop's ``ObjectiveEvaluator`` protocol for one
    optimization task: forward dose via a served
    :class:`EvaluationRequest` (bitwise equal to stand-alone evaluation
    — the serve contract), adjoint via the plan-cache entry's adjoint
    evaluator, looked up afresh on every evaluation so an evicted entry
    is rebuilt rather than pinned.
    """

    def __init__(
        self,
        service: DoseEvaluationService,
        n_weights: int,
        plan_id: str,
        precision: str,
        tenant: str,
        opt_id: str,
        shards: int,
        timeout_s: float,
    ) -> None:
        self._service = service
        self._n_weights = n_weights
        self._plan_id = plan_id
        self._precision = precision
        self._tenant = tenant
        self._opt_id = opt_id
        self._shards = shards
        self._timeout_s = timeout_s
        self._eval_seq = 0

    @property
    def n_weights(self) -> int:
        return self._n_weights

    @property
    def n_shards(self) -> int:
        return self._shards

    def value_and_gradient(
        self, w: np.ndarray, objective: CompositeObjective
    ) -> ObjectiveEvaluation:
        self._eval_seq += 1
        request = EvaluationRequest(
            request_id=f"{self._opt_id}-e{self._eval_seq}",
            plan_id=self._plan_id,
            weights=np.asarray(w, dtype=np.float64),
            precision=self._precision,
            client_id=self._tenant,
        )
        submitted = self._service.submit(request)
        if isinstance(submitted, Rejected):
            raise OptServeError(
                f"forward evaluation rejected: {submitted.reason.value} "
                f"({submitted.detail})"
            )
        outcome = submitted.outcome(self._timeout_s)
        if isinstance(outcome, Rejected):
            raise OptServeError(
                f"forward evaluation abandoned: {outcome.reason.value} "
                f"({outcome.detail})"
            )
        assert isinstance(outcome, EvaluationResult)
        dose = outcome.dose
        value, grad_d = objective.value_and_gradient(dose)
        entry = self._service.plan_entry(self._plan_id, self._precision)
        adj = entry.adjoint().evaluate(grad_d)
        return ObjectiveEvaluation(
            value=float(value),
            gradient=adj.doses,
            dose=dose,
            modeled_time_s=outcome.modeled_time_s + adj.wall_time_s,
            retries=adj.retries,
        )


class _OptTask:
    """One optimization's mutable service-side state (worker-owned).

    Mutable fields are touched only by the worker currently running the
    task (tasks are in exactly one place: the ready queue or a worker),
    except ``preempt_flag`` which is a one-way latch any thread may set.
    """

    def __init__(self, request: OptimizationRequest, ticket: OptTicket,
                 objective: CompositeObjective,
                 evaluator: _ServedObjectiveEvaluator) -> None:
        self.request = request
        self.ticket = ticket
        self.objective = objective
        self.evaluator = evaluator
        self.state: Optional[OptimizerState] = None
        self.points: List[TrajectoryPoint] = []
        self.preempt_flag = threading.Event()


class OptimizationService:
    """Concurrent optimization front end over the dose micro-batcher."""

    def __init__(self, config: Optional[OptServiceConfig] = None,
                 clock: Optional[Clock] = None) -> None:
        self.config = config or OptServiceConfig()
        if self.config.n_workers <= 0:
            raise OptServeError("need at least one optimizer worker")
        if self.config.quantum <= 0:
            raise OptServeError("quantum must be positive")
        self._clock = clock or get_clock()
        self._inner = DoseEvaluationService(
            ServiceConfig(
                n_workers=self.config.serve_workers,
                batching=self.config.batching,
                plan_cache_capacity=self.config.plan_cache_capacity,
                shards=self.config.shards,
                dist_devices=self.config.dist_devices or None,
                dist_placement=self.config.placement,
            ),
            clock=self._clock,
        )
        self.plans = self._inner.plans
        self._queue_lock = guarded_lock(  # analyze: lock-guards[_ready, _tasks, _stopping]
            "opt.service.queue"
        )
        self._queue_cond = threading.Condition(self._queue_lock)
        self._ready: Deque[_OptTask] = deque()
        self._tasks: Dict[str, _OptTask] = {}
        self._stopping = False
        self._accounting = guarded_lock(  # analyze: lock-guards[_budget_left, _terminal_counts, _iterations_total, _evals_total]
            "opt.service.accounting"
        )
        self._budget_left: Dict[str, int] = dict(
            self.config.tenant_budgets or {}
        )
        self._terminal_counts: Dict[str, int] = {
            t.value: 0 for t in TerminalState
        }
        self._iterations_total = 0
        self._evals_total = 0
        self._threads: List[threading.Thread] = []
        self._started = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "OptimizationService":
        if self._started:
            raise OptServeError("optimization service already started")
        self._started = True
        self._inner.start()
        for i in range(self.config.n_workers):
            thread = threading.Thread(  # analyze: allow[RL505] -- _worker_loop keeps no unguarded shared state: tasks are owned by exactly one worker at a time (handed over through the guarded ready queue)
                target=self._worker_loop,
                name=f"opt-worker-{i}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        _log.info(kv("optimization service started",
                     workers=self.config.n_workers,
                     shards=self.config.shards))
        return self

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Preempt everything still running, then stop workers + serving."""
        with self._queue_cond:
            if not self._started or self._stopping:
                already = True
            else:
                already = False
                self._stopping = True
                for task in self._tasks.values():
                    task.preempt_flag.set()
            self._queue_cond.notify_all()
        if already:
            return
        for thread in self._threads:
            thread.join(timeout)
        self._inner.stop(timeout)
        _log.info(kv("optimization service stopped"))

    def __enter__(self) -> "OptimizationService":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # plans
    # ------------------------------------------------------------------ #

    def register_plan(self, plan_id: str, matrix: CSRMatrix,
                      source: str = "custom") -> None:
        """Register a float32 master deposition matrix for optimization."""
        self.plans.register(plan_id, matrix, source=source)

    def register_case(self, plan_id: str, case_name: str,
                      preset: str = "tiny") -> None:
        """Register one of the paper's Table I cases."""
        self.plans.register_case(plan_id, case_name, preset)

    # ------------------------------------------------------------------ #
    # submission / preemption
    # ------------------------------------------------------------------ #

    def submit(
        self, request: OptimizationRequest
    ) -> Union[OptTicket, OptRejected]:
        """Admit an optimization (returns a ticket) or reject it now."""
        metrics.counter("opt.service.submitted").inc()
        rejection = self._validate(request)
        if rejection is None:
            # Admission pressure (stopping / duplicate / full) is checked
            # before the plan-cache lookup so requests destined for
            # rejection never convert a plan or populate the cache.
            with self._queue_cond:
                rejection = self._admission_reject(request)
        if rejection is not None:
            metrics.counter("opt.service.rejected").inc()
            return rejection
        # The objective's ROIs derive from the converted matrix's bits;
        # the operators stay in the entry, for the evaluations to use.
        matrix = self._inner.plan_entry(
            request.plan_id, request.precision
        ).matrix
        if request.w0 is not None:
            w0 = np.asarray(request.w0, dtype=np.float64)
            if w0.shape != (matrix.n_cols,):
                metrics.counter("opt.service.rejected").inc()
                return OptRejected(
                    request.opt_id, OptRejectReason.BAD_REQUEST,
                    f"w0 has shape {w0.shape}, plan needs "
                    f"({matrix.n_cols},)",
                )
            spot = first_non_finite(w0)
            if spot is not None:
                metrics.counter("opt.service.rejected").inc()
                return OptRejected(
                    request.opt_id, OptRejectReason.BAD_REQUEST,
                    f"w0[{spot}] is {w0[spot]}; warm starts must be finite",
                )
        ticket = OptTicket(opt_id=request.opt_id)
        evaluator = _ServedObjectiveEvaluator(
            self._inner, matrix.n_cols, request.plan_id, request.precision,
            request.tenant, request.opt_id, self.config.shards,
            self.config.eval_timeout_s,
        )
        objective = build_objective(request.objective, matrix)
        task = _OptTask(request, ticket, objective, evaluator)
        with self._queue_cond:
            # Re-check under the lock: admission state may have changed
            # while the plan-cache entry was building.
            rejection = self._admission_reject(request)
            if rejection is None:
                self._tasks[request.opt_id] = task
                self._ready.append(task)
                self._queue_cond.notify()
        if rejection is not None:
            metrics.counter("opt.service.rejected").inc()
            return rejection
        if artifact.enabled():
            artifact.record(
                "opt_submit",
                opt_id=request.opt_id,
                tenant=request.tenant,
                plan_id=request.plan_id,
                precision=request.precision,
                seed=request.seed,
                max_iterations=request.max_iterations,
                tolerance=request.tolerance,
                objective=specs_to_dicts(request.objective),
            )
        return ticket

    def _admission_reject(
        self, request: OptimizationRequest
    ) -> Optional[OptRejected]:
        """Cheap admission checks; the caller holds ``_queue_cond``."""
        if self._stopping:
            return OptRejected(
                request.opt_id, OptRejectReason.SHUTTING_DOWN,
                "service is stopping",
            )
        if request.opt_id in self._tasks:
            return OptRejected(
                request.opt_id, OptRejectReason.DUPLICATE_ID,
                "an optimization with this id is already running",
            )
        if len(self._tasks) >= self.config.queue_capacity:
            return OptRejected(
                request.opt_id, OptRejectReason.QUEUE_FULL,
                f"{len(self._tasks)} optimizations already admitted",
            )
        return None

    def _validate(
        self, request: OptimizationRequest
    ) -> Optional[OptRejected]:
        with self._queue_cond:
            accepting = self._started and not self._stopping
        if not accepting:
            return OptRejected(
                request.opt_id, OptRejectReason.SHUTTING_DOWN,
                "service not accepting optimizations",
            )
        record = self.plans.get(request.plan_id)
        if record is None:
            return OptRejected(
                request.opt_id, OptRejectReason.UNKNOWN_PLAN,
                f"no plan registered under {request.plan_id!r}",
            )
        shards = self.config.shards
        if shards > min(record.matrix.n_rows, record.matrix.n_cols):
            return OptRejected(
                request.opt_id, OptRejectReason.UNSHARDABLE,
                f"cannot shard a {record.matrix.n_rows}x"
                f"{record.matrix.n_cols} plan {shards} ways in both the "
                "forward and adjoint directions",
            )
        try:
            kernel = make_kernel(request.precision)
        except Exception as exc:
            return OptRejected(
                request.opt_id, OptRejectReason.UNKNOWN_PRECISION, str(exc)
            )
        if not kernel.reproducible:
            return OptRejected(
                request.opt_id, OptRejectReason.NONREPRODUCIBLE,
                f"kernel {request.precision!r} is not bitwise reproducible; "
                "optimization trajectories require determinism",
            )
        if not hasattr(kernel, "plan_family"):
            return OptRejected(
                request.opt_id, OptRejectReason.UNSHARDABLE,
                f"kernel {request.precision!r} has no compiled-plan family",
            )
        with self._accounting:
            left = self._budget_left.get(request.tenant)
        if left is not None and left <= 0:
            return OptRejected(
                request.opt_id, OptRejectReason.TENANT_BUDGET,
                f"tenant {request.tenant!r} has no iteration budget left",
            )
        return None

    def preempt(self, opt_id: str) -> bool:
        """Cooperatively preempt a running optimization.

        Takes effect at the next iteration boundary; the caller gets a
        ``PREEMPTED`` outcome with a resumable checkpoint.  Returns
        False when the optimization is unknown or already finished.
        """
        with self._queue_cond:
            task = self._tasks.get(opt_id)
        if task is None:
            return False
        task.preempt_flag.set()
        return True

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def _charge_tenant(self, tenant: str) -> bool:
        """Spend one iteration of the tenant's budget (False = exhausted)."""
        with self._accounting:
            left = self._budget_left.get(tenant)
            if left is None:
                return True
            if left <= 0:
                return False
            self._budget_left[tenant] = left - 1
            return True

    def tenant_budget_left(self, tenant: str) -> Optional[int]:
        with self._accounting:
            return self._budget_left.get(tenant)

    def stats(self) -> Dict[str, float]:
        """Service-level counters (terminal states, work totals)."""
        with self._queue_cond:
            active = len(self._tasks)
        with self._accounting:
            stats: Dict[str, float] = {
                f"terminal.{name}": float(count)
                for name, count in sorted(self._terminal_counts.items())
            }
            stats["iterations_total"] = float(self._iterations_total)
            stats["evals_total"] = float(self._evals_total)
        stats["active"] = float(active)
        return stats

    # ------------------------------------------------------------------ #
    # the cooperative worker loop
    # ------------------------------------------------------------------ #

    def _next_task(self) -> Optional[_OptTask]:
        with self._queue_cond:
            while not self._ready and not self._stopping:
                self._queue_cond.wait(0.1)
            if self._ready:
                return self._ready.popleft()
            return None  # stopping and drained

    def _requeue(self, task: _OptTask) -> None:
        with self._queue_cond:
            self._ready.append(task)
            self._queue_cond.notify()

    def _worker_loop(self) -> None:
        while True:
            task = self._next_task()
            if task is None:
                return
            try:
                requeue = self._run_quantum(task)
            except Exception as exc:  # pragma: no cover - defensive
                # _run_quantum handles task failures itself; anything
                # that still escapes (a bug in the finish path) must not
                # kill the worker thread, leak the task, or leave the
                # caller blocked on an unresolved ticket.
                _log.error(kv("optimizer worker error",
                              opt_id=task.request.opt_id,
                              error=f"{type(exc).__name__}: {exc}"))
                self._abandon(task, exc)
                requeue = False
            if requeue:
                self._requeue(task)

    def _abandon(self, task: _OptTask, exc: BaseException) -> None:
        """Last-resort retirement when finishing a task itself failed."""
        with self._queue_cond:
            self._tasks.pop(task.request.opt_id, None)
        if task.ticket.done():
            return
        state = task.state
        with self._accounting:
            self._terminal_counts[TerminalState.FAILED.value] += 1
        metrics.counter(f"opt.service.{TerminalState.FAILED.value}").inc()
        task.ticket.resolve(
            OptimizationOutcome(
                opt_id=task.request.opt_id,
                tenant=task.request.tenant,
                plan_id=task.request.plan_id,
                terminal=TerminalState.FAILED,
                iterations=state.iteration if state is not None else 0,
                objective=state.value if state is not None else float("nan"),
                n_evals=state.n_evals if state is not None else 0,
                points=task.points,
                checkpoint={},
                detail=f"{type(exc).__name__}: {exc}",
            )
        )

    def _run_quantum(self, task: _OptTask) -> bool:
        """Advance ``task`` by up to one quantum; True = more to do."""
        request = task.request
        try:
            if task.state is None:
                with trace_span("opt.warm_start", opt_id=request.opt_id):
                    w0 = (
                        np.asarray(request.w0, dtype=np.float64)
                        if request.w0 is not None
                        else warm_start(
                            request.seed,
                            task.evaluator.n_weights,
                            request.opt_id,
                        )
                    )
                    task.state = initial_state(
                        task.evaluator, task.objective, w0,
                        initial_step=request.initial_step,
                    )
                self._emit_point(task)
            for _ in range(self.config.quantum):
                state = task.state
                assert state is not None
                stop = stop_reason(
                    state, request.tolerance, request.max_iterations
                )
                if stop is not None:
                    self._finish(task, stop[0], detail=stop[1])
                    return False
                if task.preempt_flag.is_set():
                    self._finish(
                        task, TerminalState.PREEMPTED,
                        detail="cooperative preemption",
                    )
                    return False
                if not self._charge_tenant(request.tenant):
                    self._finish(
                        task, TerminalState.BUDGET_EXHAUSTED,
                        detail=f"tenant {request.tenant!r} budget exhausted",
                    )
                    return False
                task.state = advance(
                    task.evaluator, task.objective, state,
                    initial_step=request.initial_step,
                )
                self._emit_point(task)
                if (
                    self.config.checkpoint_every > 0
                    and task.state.iteration % self.config.checkpoint_every
                    == 0
                ):
                    record_checkpoint(
                        request.opt_id, task.state, seed=request.seed,
                        reason="interval",
                    )
            return True
        except Exception as exc:
            self._finish(
                task, TerminalState.FAILED,
                detail=f"{type(exc).__name__}: {exc}",
            )
            return False

    def _emit_point(self, task: _OptTask) -> None:
        assert task.state is not None
        point = trajectory_point(task.state)
        task.points.append(point)
        record_iteration_point(
            task.request.opt_id, point, shards=self.config.shards
        )

    def _finish(self, task: _OptTask, terminal: TerminalState,
                detail: str = "") -> None:
        request = task.request
        state = task.state
        checkpoint: Dict[str, object] = {}
        if state is not None:
            checkpoint = record_checkpoint(
                request.opt_id, state, seed=request.seed,
                reason="terminal" if terminal is not TerminalState.PREEMPTED
                else "preempt",
            )
            iterations = state.iteration
            n_evals = state.n_evals
            objective = state.value
        else:
            # The task failed before warm start produced a state (e.g.
            # the very first evaluation was rejected or timed out).
            # There is nothing to checkpoint, but the task must still be
            # retired and the caller's ticket must still resolve.
            iterations = 0
            n_evals = 0
            objective = float("nan")
        with self._queue_cond:
            self._tasks.pop(request.opt_id, None)
        with self._accounting:
            self._terminal_counts[terminal.value] += 1
            self._iterations_total += iterations
            self._evals_total += n_evals
        metrics.counter(f"opt.service.{terminal.value}").inc()
        if artifact.enabled():
            artifact.record(
                "opt_run",
                opt_id=request.opt_id,
                tenant=request.tenant,
                plan_id=request.plan_id,
                precision=request.precision,
                terminal=terminal.value,
                iterations=iterations,
                n_evals=n_evals,
                objective=objective,
                objective_hex=float(objective).hex(),
                shards=self.config.shards,
                detail=detail,
            )
        task.ticket.resolve(
            OptimizationOutcome(
                opt_id=request.opt_id,
                tenant=request.tenant,
                plan_id=request.plan_id,
                terminal=terminal,
                iterations=iterations,
                objective=objective,
                n_evals=n_evals,
                points=task.points,
                checkpoint=checkpoint,
                detail=detail,
            )
        )
