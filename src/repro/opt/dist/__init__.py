"""Distributed treatment-plan optimization with deterministic trajectories.

Layers (bottom up):

* :mod:`repro.opt.dist.objective_spec` — declarative, serializable
  objective specs expanded deterministically from the plan matrix;
* :mod:`repro.opt.dist.evaluator` — sharded ``(f, ∇f)`` evaluation over
  :mod:`repro.dist` device pools (forward ``A·w`` + adjoint ``Aᵀ·r``,
  both merged by pure concatenation → bitwise shard-count-independent);
* :mod:`repro.opt.dist.loop` — the repo's one projected-gradient loop
  (pure transition and stop rule), trajectory witnesses, and the
  checkpoint/resume state codec;
* :mod:`repro.opt.dist.service` — many concurrent optimizations
  multiplexed over the serve micro-batcher with tenant budgets,
  cooperative preemption and typed terminal states;
* :mod:`repro.opt.dist.audit` / :mod:`~repro.opt.dist.loadgen` — the
  post-run bitwise trajectory audits.
"""

from repro.opt.dist.audit import (
    TrajectoryAudit,
    audit_optimization,
    compare_trajectories,
    points_from_artifact_entries,
    run_reference,
    run_sharded,
)
from repro.opt.dist.evaluator import (
    DistributedObjectiveEvaluator,
    LocalObjectiveEvaluator,
    ObjectiveEvaluation,
)
from repro.opt.dist.loadgen import (
    OptLoadConfig,
    OptLoadReport,
    OptRunRecord,
    run_opt_loadtest,
)
from repro.opt.dist.loop import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    OptRunOutcome,
    OptimizerState,
    TerminalState,
    TrajectoryPoint,
    advance,
    checkpoint_dict,
    initial_state,
    restore_state,
    run_to_completion,
    stop_reason,
    warm_start,
)
from repro.opt.dist.objective_spec import (
    OBJECTIVE_KINDS,
    OBJECTIVE_PRESETS,
    ObjectiveSpecError,
    ObjectiveTermSpec,
    build_objective,
    specs_from_dicts,
    specs_to_dicts,
)
from repro.opt.dist.service import (
    OptRejectReason,
    OptRejected,
    OptServeError,
    OptServiceConfig,
    OptTicket,
    OptimizationOutcome,
    OptimizationRequest,
    OptimizationService,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "DistributedObjectiveEvaluator",
    "LocalObjectiveEvaluator",
    "OBJECTIVE_KINDS",
    "OBJECTIVE_PRESETS",
    "ObjectiveEvaluation",
    "ObjectiveSpecError",
    "ObjectiveTermSpec",
    "OptLoadConfig",
    "OptLoadReport",
    "OptRejectReason",
    "OptRejected",
    "OptRunOutcome",
    "OptRunRecord",
    "OptServeError",
    "OptServiceConfig",
    "OptTicket",
    "OptimizationOutcome",
    "OptimizationRequest",
    "OptimizationService",
    "OptimizerState",
    "TerminalState",
    "TrajectoryAudit",
    "TrajectoryPoint",
    "advance",
    "audit_optimization",
    "build_objective",
    "checkpoint_dict",
    "compare_trajectories",
    "initial_state",
    "points_from_artifact_entries",
    "restore_state",
    "run_opt_loadtest",
    "run_reference",
    "run_sharded",
    "run_to_completion",
    "specs_from_dicts",
    "specs_to_dicts",
    "stop_reason",
    "warm_start",
]
