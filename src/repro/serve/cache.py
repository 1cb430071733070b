"""Plan registry and the bounded plan cache.

A *plan* is a registered deposition matrix (float32 CSR master copy).
Kernels consume derived representations — half-precision CSR, ELLPACK,
SELL-C-sigma, RSCF — and deriving them is exactly the conversion cost
the paper's Section VI measures.  Every operator the services run is
compiled from that converted matrix, so one bounded LRU keyed
``(plan_id, precision)`` holds a :class:`PlanEntry` per pair: the
converted matrix, its kernel, the forward operator and, from the first
request on, the adjoint.  Because matrix and operators are created and
evicted together, no operator can outlive the matrix it was compiled
from, and serving and optimization share one converted copy.

Admission control happens at registration (only registered plans are
servable) and at the cache boundary (the LRU cap bounds resident
entries; eviction is reconversion and recompilation cost, not
correctness).
The cache reuses the bench harness's :class:`~repro.bench.harness.
LRUCache` — same single-flight semantics, same hit/miss/eviction
metrics, reported under ``serve.plan_cache.*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.bench.harness import LRUCache, convert_for_kernel
from repro.dist.backend import ShardedServeBackend
from repro.dist.evaluator import ShardedEvaluator
from repro.kernels.base import SpMVKernel
from repro.kernels.dispatch import make_kernel
from repro.kernels.plan import SpMVPlan, compile_plan
from repro.obs.lockwitness import guarded_lock
from repro.obs.trace import span as trace_span
from repro.serve.request import ServeError
from repro.sparse.csr import CSRMatrix


@dataclass(frozen=True)
class PlanRecord:
    """One registered plan: the master matrix plus lookup metadata."""

    plan_id: str
    matrix: CSRMatrix
    #: where the plan came from (a Table I case name or "custom").
    source: str

    @property
    def n_spots(self) -> int:
        return self.matrix.n_cols

    @property
    def n_voxels(self) -> int:
        return self.matrix.n_rows


class PlanStore:
    """Thread-safe registry of servable plans."""

    def __init__(self) -> None:
        self._lock = guarded_lock(  # analyze: lock-guards[_plans]
            "serve.cache.PlanStore"
        )
        self._plans: Dict[str, PlanRecord] = {}

    def register(self, plan_id: str, matrix: CSRMatrix,
                 source: str = "custom", replace: bool = False) -> PlanRecord:
        """Register a float32 CSR master copy under ``plan_id``."""
        record = PlanRecord(plan_id=plan_id, matrix=matrix, source=source)
        with self._lock:
            if plan_id in self._plans and not replace:
                raise ServeError(
                    f"plan {plan_id!r} is already registered; pass "
                    "replace=True to overwrite it deliberately"
                )
            self._plans[plan_id] = record
        return record

    def register_case(self, plan_id: str, case_name: str,
                      preset: str = "tiny") -> PlanRecord:
        """Register one of the paper's Table I cases as a servable plan."""
        from repro.plans.cases import build_case_matrix

        dep = build_case_matrix(case_name, preset)
        return self.register(plan_id, dep.matrix,
                             source=f"{case_name}/{preset}")

    def get(self, plan_id: str) -> Optional[PlanRecord]:
        with self._lock:
            return self._plans.get(plan_id)

    def plan_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._plans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


class PlanEntry:
    """One (plan, precision): the converted matrix and every operator
    compiled from it, created and evicted together.

    ``matrix`` is in the kernel's storage format (CSR, ELLPACK,
    SELL-C-sigma or RSCF).  ``forward`` evaluates ``A @ W``: a compiled
    :class:`SpMVPlan` at one shard, the backend's sharded evaluator
    above one, and ``None`` for kernels without a compiled-plan family
    (they run per call).  The adjoint ``A^T @ r`` is built on first
    request by :meth:`adjoint`.
    """

    def __init__(
        self,
        kernel: SpMVKernel,
        matrix: Any,
        forward: Union[SpMVPlan, ShardedEvaluator, None],
        backend: ShardedServeBackend,
    ) -> None:
        self.kernel = kernel
        self.matrix = matrix
        self.forward = forward
        self._backend = backend
        self._lock = guarded_lock(  # analyze: lock-guards[_adjoint]
            "serve.cache.PlanEntry"
        )
        self._adjoint: Optional[ShardedEvaluator] = None

    def adjoint(self) -> ShardedEvaluator:
        """The ``A^T`` evaluator at the backend's shard count.

        Built once, on first request, under this entry's lock: callers
        of the same entry wait for the one build, other entries never
        do.  A failed build leaves the slot empty for the next caller.
        """
        with self._lock:
            if self._adjoint is None:
                self._adjoint = self._backend.adjoint_evaluator(  # analyze: allow[RL504] -- per-entry single-flight: compiling under this entry's own lock builds one adjoint per (plan, precision) and blocks no other entry; bounded CPU work, no I/O
                    self.matrix, self.kernel
                )
            return self._adjoint


class PlanMatrixCache:
    """Bounded LRU of :class:`PlanEntry`, keyed (plan_id, precision).

    A hot plan pays format conversion and forward compilation exactly
    once across all workers and every caller (serving batches, the
    optimization service's adjoints); an evicted entry takes its
    operators with it and is rebuilt bit for bit on the next request.
    """

    def __init__(self, store: PlanStore, capacity: int = 8,
                 backend: Optional[ShardedServeBackend] = None) -> None:
        self._store = store
        self._backend = backend or ShardedServeBackend(shards=1)
        self._lru: LRUCache[Tuple[str, str], PlanEntry] = LRUCache(
            "plan_cache", capacity, metric_prefix="serve"
        )

    def materialize(
        self, plan_id: str, precision: str
    ) -> Tuple[PlanEntry, bool]:
        """The entry for one (plan, precision) pair.

        Returns ``(entry, cache_hit)``.  Building is single-flighted:
        concurrent workers asking for the same pair trigger one
        conversion and one compilation.  Raises :class:`ServeError` for
        unknown plans (the service normally rejects those at submit
        time; this guards the execution path).
        """
        record = self._store.get(plan_id)
        if record is None:
            raise ServeError(f"plan {plan_id!r} is not registered")
        built_here: List[bool] = []

        def build() -> PlanEntry:
            built_here.append(True)
            kernel = make_kernel(precision)
            with trace_span("serve.plan_convert", plan=plan_id,
                            precision=precision):
                matrix = convert_for_kernel(record.matrix, precision)
            forward: Union[SpMVPlan, ShardedEvaluator, None] = None
            if hasattr(kernel, "plan_family"):
                with trace_span("serve.plan_compile", plan=plan_id,
                                precision=precision,
                                shards=self._backend.shards):
                    if self._backend.shards > 1:
                        forward = self._backend.forward_evaluator(
                            matrix, kernel
                        )
                    else:
                        forward = compile_plan(
                            matrix, kernel.plan_family,
                            kernel.precision.accumulate.dtype,
                        )
            return PlanEntry(kernel, matrix, forward, self._backend)

        entry = self._lru.get_or_create((plan_id, precision), build)
        return entry, not built_here

    def __len__(self) -> int:
        return len(self._lru)

    def clear(self) -> None:
        self._lru.clear()
