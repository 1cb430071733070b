"""``repro.dist``: sharded multi-device dose evaluation.

The workload — ``d = A @ w`` every optimizer iteration — is
embarrassingly row-parallel, and the deposition matrices outgrow single
devices (Table I's liver plans already strain a 16 GB part).  This
package scales the evaluation across a pool of simulated devices while
keeping the paper's reproducibility contract intact *across device
boundaries*:

* :mod:`repro.dist.sharding` — row-partition a matrix into nnz-balanced
  contiguous shards (:class:`ShardSpec` / :class:`ShardedMatrix`) on top
  of :mod:`repro.sparse.partition`;
* :mod:`repro.dist.pool` — the simulated device pool and the two shard
  placement policies (round-robin, memory-aware via
  :mod:`repro.gpu.memory_planner`);
* :mod:`repro.dist.executor` — per-shard execution with a crash barrier
  and a bounded retry budget (:class:`FailureInjector` for fault drills);
* :mod:`repro.dist.evaluator` — :class:`ShardedEvaluator`, compiling one
  fused :class:`~repro.kernels.plan.ShardedPlan` whose shards write
  their output slices in explicit shard-index order, never in
  completion or dict order (rule RA106), so the sharded dose is
  **bitwise identical** to the single-device evaluation for every shard
  count and pool size; :func:`tuned_or_default_evaluator` builds one
  from a warm tuning-cache entry when there is one;
* :mod:`repro.dist.backend` — the serving-layer adapter
  (:class:`ShardedServeBackend`): the sharding settings behind
  :class:`~repro.serve.service.DoseEvaluationService`, the forward and
  adjoint evaluators its plan cache holds, and the sharded batch call;
* :mod:`repro.dist.bench` — the strong-scaling sweep recorded to
  ``BENCH_dist.json``.
"""

from repro.dist.backend import ShardedServeBackend
from repro.dist.bench import StrongScalingPoint, strong_scaling_sweep
from repro.dist.evaluator import (
    ShardedEvaluation,
    ShardedEvaluator,
    tuned_or_default_evaluator,
)
from repro.dist.executor import (
    DeviceFailure,
    FailureInjector,
    ShardExecutionError,
)
from repro.dist.pool import (
    DevicePool,
    Placement,
    SimulatedDevice,
    place_memory_aware,
    place_round_robin,
)
from repro.dist.sharding import ShardedMatrix, ShardSpec, shard_matrix

__all__ = [
    "DeviceFailure",
    "DevicePool",
    "FailureInjector",
    "Placement",
    "ShardExecutionError",
    "ShardSpec",
    "ShardedEvaluation",
    "ShardedEvaluator",
    "ShardedMatrix",
    "ShardedServeBackend",
    "SimulatedDevice",
    "StrongScalingPoint",
    "place_memory_aware",
    "place_round_robin",
    "shard_matrix",
    "strong_scaling_sweep",
    "tuned_or_default_evaluator",
]
