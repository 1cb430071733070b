"""The projected-gradient loop, its stop rule and its checkpoint schema.

This module holds the repo's one implementation of projected gradient
with Barzilai-Borwein steps and backtracking, written as an explicit
state machine:

* :class:`OptimizerState` — everything iteration ``k+1`` depends on
  (iterate, objective value, gradient, next step size, convergence
  anchor, counters);
* :func:`advance` — a *pure* transition ``state -> state`` (one
  iteration, including backtracking);
* :func:`checkpoint_dict` / :func:`restore_state` — a bitwise-exact
  serialization of the state (arrays as base64 of their raw
  little-endian bytes, floats as ``float.hex()``), recorded through the
  :mod:`repro.obs.artifact` sink as the ``opt_checkpoint`` phase.

Three callers step this loop and stop by :func:`stop_reason`: the
classic :func:`repro.opt.solver.solve_projected_gradient`,
:func:`run_to_completion` (CLI and audits) and the optimization
service's worker.  They differ only in what they record.

Because ``advance`` is deterministic given (state bits, matrix bits,
objective spec), the trajectory from any restored checkpoint is
**bitwise identical** to the uninterrupted run — kill-and-resume cannot
change a single bit of any subsequent iterate, objective value, or
gradient.  The solver draws no random numbers after the warm start, so
the "RNG state" of a checkpoint is exactly the warm-start seed recorded
beside it (``checkpoint["rng"]``); restoring needs no generator state.

Per-iteration bitwise witnesses (:class:`TrajectoryPoint`) are recorded
as the ``opt_iteration`` phase: objective/step/gradient-norm as exact
hex floats plus sha256 digests of the iterate and gradient — enough for
the post-run audit to compare whole trajectories across shard counts,
arrival orders, and kill/resume without storing every array.
"""

from __future__ import annotations

import base64
import enum
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro.obs import artifact, metrics
from repro.obs.clock import get_clock
from repro.obs.trace import span as trace_span
from repro.opt.objectives import CompositeObjective
from repro.util.errors import ReproError
from repro.util.validation import first_non_finite

CHECKPOINT_SCHEMA = "repro.opt-checkpoint/v1"


class CheckpointError(ReproError):
    """A checkpoint that cannot be restored."""


class Evaluation(Protocol):
    """What the loop reads of one ``(f, ∇f)`` evaluation."""

    @property
    def value(self) -> float: ...

    @property
    def gradient(self) -> np.ndarray: ...


class ObjectiveEvaluator(Protocol):
    """What the loop needs from an evaluation backend."""

    @property
    def n_shards(self) -> int: ...

    def value_and_gradient(
        self, w: np.ndarray, objective: CompositeObjective
    ) -> Evaluation: ...


class TerminalState(enum.Enum):
    """Why an optimization stopped (the service's typed outcomes)."""

    CONVERGED = "converged"
    BUDGET_EXHAUSTED = "budget_exhausted"
    PREEMPTED = "preempted"
    FAILED = "failed"


@dataclass(frozen=True)
class OptimizerState:
    """Everything the next iteration depends on — the checkpoint unit.

    ``step`` is the step size the *next* iteration will open with (the
    Barzilai-Borwein step computed at the end of the previous one), so
    no extra line-search memory is needed.  ``initial_norm`` anchors the
    relative convergence test; ``n_evals`` counts objective/gradient
    evaluations (dose calculations) for accounting and the audit.
    """

    iteration: int
    w: np.ndarray
    value: float
    grad: np.ndarray
    pg_norm: float
    step: float
    initial_norm: float
    n_evals: int

    def __post_init__(self) -> None:
        self.w.setflags(write=False)
        self.grad.setflags(write=False)


@dataclass(frozen=True)
class TrajectoryPoint:
    """One iteration's bitwise witness (what the audit compares)."""

    iteration: int
    objective: float
    objective_hex: str
    gradient_norm: float
    gradient_norm_hex: str
    step_hex: str
    w_sha256: str
    grad_sha256: str
    n_evals: int

    def key(self) -> Tuple[str, str, str, str, str]:
        """The bitwise-comparable content (counters excluded)."""
        return (
            self.objective_hex,
            self.gradient_norm_hex,
            self.step_hex,
            self.w_sha256,
            self.grad_sha256,
        )


@dataclass
class OptRunOutcome:
    """Result of driving a state to a terminal condition."""

    terminal: TerminalState
    state: OptimizerState
    points: List[TrajectoryPoint]
    detail: str = ""


def project_nonnegative(w: np.ndarray) -> np.ndarray:
    """Clip weights to the physical w >= 0 constraint."""
    return np.maximum(w, 0.0)


def projected_gradient_norm(w: np.ndarray, grad: np.ndarray) -> float:
    """Projected-gradient norm (descent directions only at bounds)."""
    pg = grad.copy()
    pg[(w <= 0.0) & (grad > 0)] = 0.0
    return float(np.linalg.norm(pg))


def feasible_start(w0: np.ndarray) -> np.ndarray:
    """The warm start as float64 on w >= 0; ValueError if not finite
    (projection would keep a NaN and clip ``-inf`` to a silent 0)."""
    w = np.asarray(w0, dtype=np.float64)
    spot = first_non_finite(w)
    if spot is not None:
        raise ValueError(
            f"w0[{spot}] is {w.ravel()[spot]}; warm starts must be finite"
        )
    return project_nonnegative(w)


def trajectory_point(state: OptimizerState) -> TrajectoryPoint:
    """The bitwise witness of ``state``."""
    return TrajectoryPoint(
        iteration=state.iteration,
        objective=state.value,
        objective_hex=float(state.value).hex(),
        gradient_norm=state.pg_norm,
        gradient_norm_hex=float(state.pg_norm).hex(),
        step_hex=float(state.step).hex(),
        w_sha256=artifact.dose_sha256(state.w),
        grad_sha256=artifact.dose_sha256(state.grad),
        n_evals=state.n_evals,
    )


def initial_state(
    evaluator: ObjectiveEvaluator,
    objective: CompositeObjective,
    w0: np.ndarray,
    initial_step: float = 1.0,
) -> OptimizerState:
    """Evaluate the warm start and open the trajectory at iteration 0.

    ValueError unless ``w0`` is finite and ``initial_step`` finite and
    positive (a zero step never moves, a negative one climbs).
    """
    if not (math.isfinite(initial_step) and initial_step > 0):
        raise ValueError(
            f"initial_step must be finite and positive, got {initial_step}"
        )
    w = feasible_start(w0)
    ev = evaluator.value_and_gradient(w, objective)
    metrics.counter("opt.objective_evals").inc()
    norm = projected_gradient_norm(w, ev.gradient)
    return OptimizerState(
        iteration=0,
        w=w,
        value=ev.value,
        grad=ev.gradient,
        pg_norm=norm,
        step=float(initial_step),
        initial_norm=norm,
        n_evals=1,
    )


def stop_reason(
    state: OptimizerState, tolerance: float, max_iterations: int
) -> Optional[Tuple[TerminalState, str]]:
    """``(terminal, detail)`` once the loop stops, else ``None``; the
    convergence test runs before the budget test."""
    if state.pg_norm <= tolerance * state.initial_norm:
        return TerminalState.CONVERGED, ""
    if state.iteration >= max_iterations:
        return TerminalState.BUDGET_EXHAUSTED, f"max_iterations={max_iterations}"
    return None


def advance(
    evaluator: ObjectiveEvaluator,
    objective: CompositeObjective,
    state: OptimizerState,
    initial_step: float = 1.0,
    max_backtracks: int = 20,
) -> OptimizerState:
    """One projected-gradient iteration with BB step adaptation.

    A pure transition: the returned state is a deterministic function of
    the input state's bits (plus matrix + objective), which is the whole
    checkpoint/resume argument.  Every projected-gradient solve in the
    repo steps through this function.
    """
    w, value, grad, step = state.w, state.value, state.grad, state.step
    evals = 0
    with trace_span("opt.iteration", solver="projected_gradient",
                    iteration=state.iteration + 1) as sp:
        w_new = project_nonnegative(w - step * grad)
        ev = evaluator.value_and_gradient(w_new, objective)
        evals += 1
        backtracks = 0
        while ev.value > value and backtracks < max_backtracks:
            step *= 0.5
            w_new = project_nonnegative(w - step * grad)
            ev = evaluator.value_and_gradient(w_new, objective)
            evals += 1
            backtracks += 1
        # Barzilai-Borwein step for the next iteration.
        s = w_new - w
        g = ev.gradient - grad
        sg = float(s @ g)
        next_step = float(s @ s) / sg if sg > 1e-30 else float(initial_step)
        pg = projected_gradient_norm(w_new, ev.gradient)
        sp.set_attrs(objective=ev.value, gradient_norm=pg,
                     backtracks=backtracks)
    metrics.counter("opt.iterations").inc()
    metrics.counter("opt.objective_evals").inc(evals)
    return OptimizerState(
        iteration=state.iteration + 1,
        w=w_new,
        value=ev.value,
        grad=ev.gradient,
        pg_norm=pg,
        step=next_step,
        initial_norm=state.initial_norm,
        n_evals=state.n_evals + evals,
    )


# --------------------------------------------------------------------- #
# checkpoint serialization (bitwise exact)
# --------------------------------------------------------------------- #


def _encode_array(arr: np.ndarray) -> Dict[str, Any]:
    """JSON-safe bitwise encoding of a float array."""
    contiguous = np.ascontiguousarray(arr)
    if contiguous.dtype.byteorder not in ("=", "<", "|"):
        contiguous = contiguous.astype(contiguous.dtype.newbyteorder("<"))
    return {
        "dtype": contiguous.dtype.str,
        "shape": list(contiguous.shape),
        "data_b64": base64.b64encode(contiguous.tobytes()).decode("ascii"),
    }


def _decode_array(data: Dict[str, Any]) -> np.ndarray:
    raw = base64.b64decode(str(data["data_b64"]))
    arr = np.frombuffer(bytearray(raw), dtype=np.dtype(str(data["dtype"])))
    return arr.reshape([int(n) for n in data["shape"]]).copy()


def checkpoint_dict(
    state: OptimizerState, seed: Optional[int] = None
) -> Dict[str, Any]:
    """Bitwise-exact, JSON-safe serialization of ``state``.

    Floats are carried as ``float.hex()`` (the readable float fields are
    informational only); arrays as base64 of their raw bytes.  ``rng``
    documents the warm-start provenance: the loop draws no randomness
    after iteration 0, so the seed *is* the complete RNG state.
    """
    return {
        "schema": CHECKPOINT_SCHEMA,
        "iteration": state.iteration,
        "n_evals": state.n_evals,
        "value": state.value,
        "value_hex": float(state.value).hex(),
        "pg_norm_hex": float(state.pg_norm).hex(),
        "step_hex": float(state.step).hex(),
        "initial_norm_hex": float(state.initial_norm).hex(),
        "w": _encode_array(state.w),
        "grad": _encode_array(state.grad),
        "rng": {"kind": "stable_seed", "seed": seed, "draws_after_warm_start": 0},
    }


def restore_state(data: Dict[str, Any]) -> OptimizerState:
    """Rebuild an :class:`OptimizerState` bit for bit from a checkpoint."""
    if data.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"unknown checkpoint schema {data.get('schema')!r}; expected "
            f"{CHECKPOINT_SCHEMA}"
        )
    try:
        return OptimizerState(
            iteration=int(data["iteration"]),
            w=_decode_array(data["w"]),
            value=float.fromhex(str(data["value_hex"])),
            grad=_decode_array(data["grad"]),
            pg_norm=float.fromhex(str(data["pg_norm_hex"])),
            step=float.fromhex(str(data["step_hex"])),
            initial_norm=float.fromhex(str(data["initial_norm_hex"])),
            n_evals=int(data["n_evals"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc


# --------------------------------------------------------------------- #
# artifact recording
# --------------------------------------------------------------------- #


def record_iteration_point(
    opt_id: str, point: TrajectoryPoint, shards: int, wall_s: float = 0.0
) -> None:
    """Record one iteration's bitwise witness (``opt_iteration`` phase)."""
    if not artifact.enabled():
        return
    artifact.record(
        "opt_iteration",
        opt_id=opt_id,
        iteration=point.iteration,
        objective=point.objective,
        objective_hex=point.objective_hex,
        gradient_norm=point.gradient_norm,
        gradient_norm_hex=point.gradient_norm_hex,
        step_hex=point.step_hex,
        w_sha256=point.w_sha256,
        grad_sha256=point.grad_sha256,
        n_evals=point.n_evals,
        shards=shards,
        wall_s=wall_s,
    )


def record_checkpoint(
    opt_id: str,
    state: OptimizerState,
    seed: Optional[int] = None,
    reason: str = "interval",
) -> Dict[str, Any]:
    """Record a full resumable checkpoint (``opt_checkpoint`` phase)."""
    data = checkpoint_dict(state, seed=seed)
    if artifact.enabled():
        artifact.record(
            "opt_checkpoint",
            opt_id=opt_id,
            iteration=state.iteration,
            reason=reason,
            state=data,
        )
    metrics.counter("opt.checkpoints").inc()
    return data


# --------------------------------------------------------------------- #
# the drive loop (CLI single-optimization path)
# --------------------------------------------------------------------- #


def run_to_completion(
    evaluator: ObjectiveEvaluator,
    objective: CompositeObjective,
    state: OptimizerState,
    *,
    opt_id: str = "opt",
    tolerance: float = 1e-6,
    max_iterations: int = 50,
    initial_step: float = 1.0,
    checkpoint_every: int = 0,
    halt_after: Optional[int] = None,
    seed: Optional[int] = None,
) -> OptRunOutcome:
    """Drive ``state`` until a typed terminal condition.

    Records every iteration's witness and (when ``checkpoint_every > 0``
    or at any terminal) resumable checkpoints through the artifact sink.
    ``halt_after`` preempts cooperatively after that many iterations —
    the CLI's deterministic stand-in for a kill.
    """
    clock = get_clock()
    points: List[TrajectoryPoint] = []

    def emit(pt: TrajectoryPoint, wall_s: float) -> None:
        points.append(pt)
        record_iteration_point(
            opt_id, pt, shards=evaluator.n_shards, wall_s=wall_s
        )

    if state.iteration == 0:
        emit(trajectory_point(state), 0.0)
    while True:
        stop = stop_reason(state, tolerance, max_iterations)
        if stop is not None:
            record_checkpoint(opt_id, state, seed=seed, reason="terminal")
            return OptRunOutcome(stop[0], state, points, detail=stop[1])
        if halt_after is not None and state.iteration >= halt_after:
            record_checkpoint(opt_id, state, seed=seed, reason="preempt")
            return OptRunOutcome(
                TerminalState.PREEMPTED, state, points,
                detail=f"halted after iteration {halt_after}",
            )
        t0 = clock.monotonic()
        try:
            state = advance(
                evaluator, objective, state, initial_step=initial_step
            )
        except Exception as exc:  # typed terminal, not a crash
            record_checkpoint(opt_id, state, seed=seed, reason="failure")
            return OptRunOutcome(
                TerminalState.FAILED, state, points,
                detail=f"{type(exc).__name__}: {exc}",
            )
        emit(trajectory_point(state), clock.monotonic() - t0)
        if checkpoint_every > 0 and state.iteration % checkpoint_every == 0:
            record_checkpoint(opt_id, state, seed=seed, reason="interval")


def warm_start(seed: int, n_weights: int, opt_id: str = "") -> np.ndarray:
    """Deterministic warm-start weights from a stable seed."""
    from repro.util.rng import make_rng, stable_seed

    rng = make_rng(stable_seed("opt-warm-start", seed, opt_id))
    return 0.5 + rng.random(n_weights)
