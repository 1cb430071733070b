"""The benchmark's three closed-loop workloads.

Each workload is driven from this process by at most two client threads.
Traffic is fixed so that the work per operation is deterministic: bursts
always fill the same batch, optimizations always run the same number of
iterations.  Inputs come from the seed: the matrices are fixed cases, the
weight vectors and warm starts are drawn from ``numpy.random`` with the
seed.  The program receives only those matrices, weights and warm starts.

* ``serve-liver``: one client sends bursts of 8 same-plan requests for
  Liver 1 (``bench``) and waits for each burst.  The plan cache always
  hits and every batch is full, so no batch waits for the window.  Time
  goes to plan execute and to the GPU model's per-batch accounting.
* ``ensemble-robust``: one client sends bursts of 4 scenario-ensemble
  requests over the 9-scenario ``robust_ensemble`` (``bench``).  Nine plans
  cycle through the 8-entry plan cache, so nearly every batch converts and
  compiles again; 4-request batches wait out the 2 ms window; the rows are
  short, which stresses warp-lane padding.
* ``opt-sharded``: two tenant threads run 6-iteration optimizations
  (tolerance 0) back to back on Liver 1 and Liver 3 with 4 shards.  It is
  the only path through ``repro.dist`` (sharded forward through the serve
  backend, sharded adjoint over the transposed matrix) and through the
  ``repro.opt.dist`` loop.

A serve workload's timed phase is the sum of its burst intervals: outputs
are digested between bursts, with the clock stopped, and compared with
stand-alone references after the phase.
"""

from __future__ import annotations

import gc
import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bench.harness import convert_for_kernel
from repro.kernels.dispatch import make_kernel
from repro.kernels.plan import clear_plan_cache
from repro.opt.dist import (
    OBJECTIVE_PRESETS,
    OptimizationOutcome,
    OptimizationRequest,
    OptimizationService,
    OptRejected,
    OptServiceConfig,
    TerminalState,
    compare_trajectories,
    run_reference,
)
from repro.plans.cases import build_case_matrix
from repro.serve import (
    DoseEvaluationService,
    EnsembleResult,
    EvaluationRequest,
    EvaluationResult,
    Rejected,
    ScenarioEnsembleRequest,
    ServeError,
)
from repro.workloads import generate

from tracer import Operation

PRECISION = "half_double"
PRESET = "bench"
#: seconds a client waits for one outcome before counting it failed.
TIMEOUT_S = 30.0


class BenchError(RuntimeError):
    """The workload could not run as designed."""


def digest(array: np.ndarray) -> bytes:
    return hashlib.sha256(np.ascontiguousarray(array)).digest()


def reset_peak_rss() -> None:
    """Restart the kernel's resident high-water mark (Linux 4.0 and later)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError as exc:
        raise BenchError(
            f"cannot restart the resident high-water mark: {exc}") from exc


def peak_rss_mb() -> float:
    """Resident high-water mark since the last reset, in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM line in /proc/self/status")


class RssWindows:
    """Peak resident memory per window of about a second.

    The high-water mark restarts at every window boundary, so one unlucky
    overlap of temporaries sets one window's peak rather than the run's;
    the run reports the median window.  Input generation and the post-run
    audit fall outside every window.
    """

    def __init__(self, window_s: float = 1.0) -> None:
        self.window_s = window_s
        self.peaks_mb: List[float] = []
        self._opened = time.perf_counter()
        reset_peak_rss()

    def tick(self, final: bool = False) -> None:
        now = time.perf_counter()
        if final or now - self._opened >= self.window_s:
            self.peaks_mb.append(peak_rss_mb())
            reset_peak_rss()
            self._opened = now


@dataclass
class Phase:
    """What one timed phase did."""

    #: operations completed (dose evaluations, stacks, iterations).
    ops: int = 0
    #: submissions attempted and failed (requests, stacks, optimizations).
    attempted: int = 0
    failed: int = 0
    #: measured seconds the phase counts.
    wall_s: float = 0.0
    #: end-to-end latency samples (bursts, or optimizations).
    latencies_s: List[float] = field(default_factory=list)
    #: operations for the ledger (traced runs).
    operations: List[Operation] = field(default_factory=list)
    #: typed rejections, timeouts and output mismatches.
    problems: List[str] = field(default_factory=list)
    #: batch id -> batch size, from the served results.
    batch_sizes: Dict[int, int] = field(default_factory=dict)
    #: number of distinct batches each burst was served in.
    batches_per_burst: List[int] = field(default_factory=list)
    #: modeled A100 seconds the service charged during the phase.
    modeled_s: float = 0.0
    #: peak resident memory of each window of the phase, in MiB.
    rss_peaks_mb: List[float] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def _outcome(handle: object, timeout: float) -> object:
    """The outcome behind a ticket, a rejection, or a timeout message."""
    if isinstance(handle, Rejected):
        return handle
    try:
        return handle.outcome(timeout)  # type: ignore[attr-defined]
    except ServeError as exc:
        return f"timeout: {exc}"


class Workload:
    """Shared shape of a workload: inputs, cold start, timed phase, audit."""

    name = ""
    #: what one operation, one latency sample and one submission are.
    op_unit = ""
    sample_unit = ""
    submit_unit = ""
    #: cold starts per run; ``setup_s`` is their median.
    cold_starts = 21
    #: entry points (tracer span names, or a ``prefix*`` group) that must
    #: record calls in the traced cold start and in the traced timed phase.
    expected_cold: Tuple[str, ...] = ()
    expected_timed: Tuple[str, ...] = ()

    def cold_start(self) -> float:
        raise NotImplementedError

    def open(self) -> None:
        raise NotImplementedError

    def drive(self, seconds: float) -> Phase:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def audit(self, phase: Phase) -> None:
        """Check outputs after the phase; mismatches count as failed."""
        raise NotImplementedError

    def shape_problems(self, phase: Phase) -> List[str]:
        """Counts the traffic fixes by design, checked within one run."""
        return []

    def signature(self, phase: Phase
                  ) -> Tuple[Dict[str, object], Dict[str, object]]:
        """Counts that must repeat exactly across runs of the same code:
        those fixed by design, and those fixed by the seed's inputs."""
        return {}, {}


class _ServeWorkload(Workload):
    """A single-client burst loop against one ``DoseEvaluationService``.

    Subclasses name the plan rows an operation returns (one dose, or one
    row per scenario) and how a request is made and submitted.
    """

    burst = 0
    warmup_bursts = 0
    pool_size = 0
    expected_batch_size = 0
    expected_batches_per_burst = 0

    def __init__(self, row_masters: List[object], n_spots: int,
                 seed: int) -> None:
        #: float32 master of each row's plan, in row order.
        self.row_masters = row_masters
        rng = np.random.default_rng(seed)
        self.pool = [rng.random(n_spots) for _ in range(self.pool_size)]
        self.service: Optional[DoseEvaluationService] = None
        self._modeled_before = 0.0
        #: (pool index, digest of each row) for every completed operation.
        self.served: List[Tuple[int, Tuple[bytes, ...]]] = []

    def _register(self, service: DoseEvaluationService) -> None:
        raise NotImplementedError

    def _request(self, request_id: str, weights: np.ndarray) -> object:
        raise NotImplementedError

    def _submit(self, service: DoseEvaluationService,
                request: object) -> object:
        raise NotImplementedError

    def _rows(self, outcome: object
              ) -> Optional[List[Tuple[EvaluationResult, np.ndarray]]]:
        """Each row's result and dose, or None for a failed operation."""
        raise NotImplementedError

    def cold_start(self) -> float:
        clear_plan_cache()
        gc.collect()
        service = DoseEvaluationService().start()
        try:
            started = time.perf_counter()
            self._register(service)
            request = self._request("cold", self.pool[0])
            out = _outcome(self._submit(service, request), TIMEOUT_S)
            elapsed = time.perf_counter() - started
        finally:
            service.stop()
        if self._rows(out) is None:
            raise BenchError(f"{self.name}: cold start failed: {out}")
        return elapsed

    def open(self) -> None:
        clear_plan_cache()
        self.service = DoseEvaluationService().start()
        self._register(self.service)
        # Untimed bursts fill the caches and let the allocator settle.
        for _ in range(self.warmup_bursts):
            warm = self.drive(0.0)
            if warm.failed:
                raise BenchError(
                    f"{self.name}: warm-up failed: {warm.problems}")
        self.served.clear()
        gc.collect()
        self._modeled_before = self.service.stats()["modeled_batched_s"]

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()

    def drive(self, seconds: float) -> Phase:
        assert self.service is not None
        service, phase, k = self.service, Phase(), 0
        rss = RssWindows()
        while True:
            picks = [(k * self.burst + i) % self.pool_size
                     for i in range(self.burst)]
            requests = [self._request(f"b{k}-{i}", self.pool[p])
                        for i, p in enumerate(picks)]
            starts, handles = [], []
            for request in requests:
                starts.append(time.perf_counter())
                handles.append(self._submit(service, request))
            outcomes, ends = [], []
            for handle in handles:
                outcomes.append(_outcome(handle, TIMEOUT_S))
                ends.append(time.perf_counter())
            # -- clock stopped: digest this burst's outputs row by row --
            phase.wall_s += ends[-1] - starts[0]
            phase.latencies_s.append(ends[-1] - starts[0])
            batches = set()
            for request, pick, out, t0, t1 in zip(requests, picks, outcomes,
                                                  starts, ends):
                phase.attempted += 1
                rows = self._rows(out)
                if rows is None:
                    phase.fail(f"{request.request_id}: {out}")
                    continue
                phase.ops += 1
                for result, _ in rows:
                    batches.add(result.batch_id)
                    phase.batch_sizes[result.batch_id] = result.batch_size
                phase.operations.append(Operation(
                    t0, t1, tuple(result.request_id for result, _ in rows)))
                self.served.append(
                    (pick, tuple(digest(dose) for _, dose in rows)))
            phase.batches_per_burst.append(len(batches))
            k += 1
            # A failure already fails the run; stopping keeps a hung
            # service from stretching it past its time limit.
            if phase.wall_s >= seconds or phase.failed:
                break
            rss.tick()
        rss.tick(final=True)
        phase.rss_peaks_mb = rss.peaks_mb
        phase.modeled_s = (
            service.stats()["modeled_batched_s"] - self._modeled_before
        )
        return phase

    def audit(self, phase: Phase) -> None:
        """Each row against a stand-alone ``kernel.run`` (no compiled
        plan) of its own plan, in row order."""
        kernel = make_kernel(PRECISION)
        matrices = [convert_for_kernel(m, PRECISION)
                    for m in self.row_masters]
        reference = {
            p: tuple(digest(kernel.run(m, self.pool[p]).y) for m in matrices)
            for p in sorted({pick for pick, _ in self.served})
        }
        for n, (pick, rows) in enumerate(self.served):
            expected = reference[pick]
            if len(rows) != len(expected):
                phase.fail(f"operation {n} returned {len(rows)} rows, "
                           f"expected {len(expected)}")
                continue
            for s, (got, want) in enumerate(zip(rows, expected)):
                if got != want:
                    phase.fail(f"operation {n} (weights {pick}) row {s} "
                               "differs from the stand-alone kernel.run")
                    break

    def shape_problems(self, phase: Phase) -> List[str]:
        problems = []
        sizes = sorted(set(phase.batch_sizes.values()))
        if sizes != [self.expected_batch_size]:
            problems.append(
                f"batch sizes {sizes}, expected all "
                f"{self.expected_batch_size}"
            )
        per_burst = sorted(set(phase.batches_per_burst))
        if per_burst != [self.expected_batches_per_burst]:
            problems.append(
                f"batches per burst {per_burst}, expected "
                f"{self.expected_batches_per_burst}"
            )
        return problems

    def signature(self, phase: Phase
                  ) -> Tuple[Dict[str, object], Dict[str, object]]:
        return {
            "batch_sizes": sorted(set(phase.batch_sizes.values())),
            "modeled_gpu_us_per_op": modeled_us_per_op(phase),
        }, {}


def modeled_us_per_op(phase: Phase) -> float:
    """Modeled A100 microseconds per operation."""
    return 1e6 * phase.modeled_s / phase.ops if phase.ops else 0.0


class ServeLiver(_ServeWorkload):
    name = "serve-liver"
    op_unit = "dose evaluations"
    sample_unit = "bursts"
    submit_unit = "requests"
    burst = 8
    warmup_bursts = 10
    pool_size = 16
    expected_batch_size = 8
    expected_batches_per_burst = 1
    plan_id = "liver1"
    expected_cold = ("harness.convert", "kernels.compile_plan",
                     "gpu.kernel_run", "kernels.execute*")
    expected_timed = ("serve.submit", "serve.outcome", "serve.batch",
                      "serve.run_multi_spmv", "gpu.kernel_run",
                      "gpu.multi_counters", "kernels.execute*")

    def __init__(self, seed: int) -> None:
        master = build_case_matrix("Liver 1", PRESET).matrix
        super().__init__([master], master.n_cols, seed)

    def _register(self, service: DoseEvaluationService) -> None:
        service.plans.register(self.plan_id, self.row_masters[0])

    def _request(self, request_id: str, weights: np.ndarray) -> object:
        return EvaluationRequest(request_id, self.plan_id, weights,
                                 precision=PRECISION)

    def _submit(self, service: DoseEvaluationService,
                request: object) -> object:
        return service.submit(request)

    def _rows(self, outcome: object
              ) -> Optional[List[Tuple[EvaluationResult, np.ndarray]]]:
        if not isinstance(outcome, EvaluationResult):
            return None
        return [(outcome, outcome.dose)]


class EnsembleRobust(_ServeWorkload):
    name = "ensemble-robust"
    op_unit = "ensemble stacks"
    sample_unit = "bursts"
    submit_unit = "ensemble requests"
    burst = 4
    warmup_bursts = 20
    pool_size = 8
    expected_batch_size = 4
    expected_batches_per_burst = 9
    plan_id = "robust"
    expected_cold = ("harness.convert", "kernels.compile_plan",
                     "gpu.kernel_run", "kernels.execute*")
    expected_timed = ("serve.submit", "serve.outcome", "serve.batch",
                      "serve.run_multi_spmv", "harness.convert",
                      "kernels.compile_plan", "gpu.kernel_run",
                      "gpu.multi_counters", "kernels.execute*")

    def __init__(self, seed: int) -> None:
        # The ensemble's structure is fixed; the seed draws the weights.
        self.ensemble = generate("robust_ensemble", seed=0, preset=PRESET)
        masters = [s.matrix for s in self.ensemble.scenarios]
        super().__init__(masters, masters[0].n_cols, seed)

    def _register(self, service: DoseEvaluationService) -> None:
        service.register_ensemble(self.plan_id, self.ensemble)

    def _request(self, request_id: str, weights: np.ndarray) -> object:
        return ScenarioEnsembleRequest(request_id, self.plan_id, weights,
                                       precision=PRECISION)

    def _submit(self, service: DoseEvaluationService,
                request: object) -> object:
        return service.submit_ensemble(request)

    def _rows(self, outcome: object
              ) -> Optional[List[Tuple[EvaluationResult, np.ndarray]]]:
        """The merged stack's rows, each with the result of the scenario
        that must have produced it."""
        if not isinstance(outcome, EnsembleResult):
            return None
        return list(zip(outcome.scenario_results, outcome.doses))


class OptSharded(Workload):
    name = "opt-sharded"
    op_unit = "optimizer iterations"
    sample_unit = "optimizations"
    submit_unit = "optimizations"
    cold_starts = 11
    shards = 4
    iterations = 6
    pool_size = 3
    plans = (("liver1", "Liver 1"), ("liver3", "Liver 3"))
    objective = OBJECTIVE_PRESETS["clinical"]
    expected_cold = ("harness.convert", "kernels.compile_sharded_plan",
                     "gpu.model_timing", "dist.evaluate",
                     "dist.evaluate_multi", "kernels.execute*",
                     "opt.advance", "opt.objective")
    expected_timed = ("serve.submit", "serve.outcome", "serve.batch",
                      "serve.run_batch", "dist.evaluate",
                      "dist.evaluate_multi", "kernels.execute*",
                      "opt.advance", "opt.objective",
                      "opt.record_checkpoint", "opt.trajectory_point")

    def __init__(self, seed: int) -> None:
        self.masters = {pid: build_case_matrix(case, PRESET).matrix
                        for pid, case in self.plans}
        rng = np.random.default_rng(seed)
        self.pool = {
            pid: [0.5 + rng.random(m.n_cols) for _ in range(self.pool_size)]
            for pid, m in self.masters.items()
        }
        self.service: Optional[OptimizationService] = None
        #: (plan id, pool index, outcome) per finished optimization.
        self.finished: List[Tuple[str, int, OptimizationOutcome]] = []

    def _service(self) -> OptimizationService:
        service = OptimizationService(OptServiceConfig(shards=self.shards))
        service.start()
        return service

    def _request(self, opt_id: str, pid: str, pick: int, tenant: str,
                 iterations: int) -> OptimizationRequest:
        return OptimizationRequest(
            opt_id=opt_id, plan_id=pid, objective=self.objective,
            tenant=tenant, precision=PRECISION, w0=self.pool[pid][pick],
            max_iterations=iterations, tolerance=0.0,
        )

    def cold_start(self) -> float:
        clear_plan_cache()
        gc.collect()
        service = self._service()
        try:
            started = time.perf_counter()
            for pid, master in self.masters.items():
                service.register_plan(pid, master)
            tickets = [
                service.submit(self._request(f"cold-{pid}", pid, 0, "cold", 1))
                for pid in self.masters
            ]
            for ticket in tickets:
                out = ticket if isinstance(ticket, OptRejected) else (
                    ticket.outcome(TIMEOUT_S))
                if (not isinstance(out, OptimizationOutcome)
                        or out.terminal is not TerminalState.BUDGET_EXHAUSTED):
                    raise BenchError(f"{self.name}: cold start failed: {out}")
            return time.perf_counter() - started
        finally:
            service.stop()

    def open(self) -> None:
        clear_plan_cache()
        self.service = self._service()
        for pid, master in self.masters.items():
            self.service.register_plan(pid, master)
        warm = self._run(0.0, iterations=self.iterations, tag="warm")
        if warm.failed:
            raise BenchError(f"{self.name}: warm-up failed: {warm.problems}")
        self.finished.clear()
        gc.collect()

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()

    def drive(self, seconds: float) -> Phase:
        return self._run(seconds, iterations=self.iterations, tag="t")

    def _run(self, seconds: float, iterations: int, tag: str) -> Phase:
        assert self.service is not None
        service, phase = self.service, Phase()
        lock = threading.Lock()
        errors: List[BaseException] = []
        started = time.perf_counter()
        deadline = started + seconds
        ends: List[float] = []

        def tenant(index: int, pid: str) -> None:
            n = 0
            try:
                while True:
                    pick = n % self.pool_size
                    opt_id = f"{tag}{index}-{n}"
                    t0 = time.perf_counter()
                    handle = service.submit(self._request(
                        opt_id, pid, pick, f"tenant{index}", iterations))
                    out = handle if isinstance(handle, OptRejected) else (
                        handle.outcome(TIMEOUT_S))
                    t1 = time.perf_counter()
                    with lock:
                        ends.append(t1)
                        phase.attempted += 1
                        if (isinstance(out, OptimizationOutcome)
                                and out.terminal
                                is TerminalState.BUDGET_EXHAUSTED
                                and out.iterations == iterations):
                            phase.ops += out.iterations
                            phase.latencies_s.append(t1 - t0)
                            self.finished.append((pid, pick, out))
                        else:
                            phase.fail(f"{opt_id}: {out}")
                            return
                    n += 1
                    if t1 >= deadline:
                        return
            except BaseException as exc:  # reported after join
                errors.append(exc)

        threads = [
            threading.Thread(target=tenant, args=(i, pid),
                             name=f"perfbench-tenant{i}")
            for i, (pid, _) in enumerate(self.plans)
        ]
        rss = RssWindows()
        for thread in threads:
            thread.start()
        for thread in threads:
            while thread.is_alive():
                thread.join(rss.window_s / 4)
                rss.tick()
        rss.tick(final=True)
        phase.rss_peaks_mb = rss.peaks_mb
        if errors:
            raise BenchError(f"{self.name}: tenant thread failed: "
                             f"{errors[0]!r}") from errors[0]
        phase.wall_s = max(ends) - started
        return phase

    def audit(self, phase: Phase) -> None:
        references = {}
        for pid, pick, out in self.finished:
            key = (pid, pick)
            if key not in references:
                matrix = convert_for_kernel(self.masters[pid], PRECISION)
                references[key] = run_reference(
                    matrix, PRECISION, self.objective, self.pool[pid][pick],
                    tolerance=0.0, max_iterations=self.iterations,
                    opt_id=f"reference-{pid}-{pick}",
                ).points
            problems = compare_trajectories(
                references[key], out.points, out.opt_id)
            if problems:
                phase.fail(problems[0])

    def shape_problems(self, phase: Phase) -> List[str]:
        iterations = sorted({out.iterations for _, _, out in self.finished})
        if iterations != [self.iterations]:
            return [f"iterations per optimization {iterations}, expected "
                    f"{self.iterations}"]
        return []

    def signature(self, phase: Phase
                  ) -> Tuple[Dict[str, object], Dict[str, object]]:
        evals: Dict[str, set] = {}
        for pid, pick, out in self.finished:
            evals.setdefault(f"{pid}/{pick}", set()).add(out.n_evals)
        return {
            "iterations": sorted({o.iterations for _, _, o in self.finished}),
        }, {
            "evals_by_warm_start": {k: sorted(v) for k, v in evals.items()},
        }


WORKLOADS = {
    cls.name: cls for cls in (ServeLiver, EnsembleRobust, OptSharded)
}
