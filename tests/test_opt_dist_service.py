"""The optimization service: outcomes, rejections, budgets, preemption."""

import threading

import numpy as np
import pytest

from repro.opt.dist import (
    CHECKPOINT_SCHEMA,
    OBJECTIVE_PRESETS,
    OptimizationOutcome,
    OptimizationRequest,
    OptimizationService,
    OptRejected,
    OptRejectReason,
    OptServeError,
    OptServiceConfig,
    OptTicket,
    TerminalState,
    audit_optimization,
    restore_state,
    run_reference,
    run_to_completion,
    warm_start,
)
from tests.conftest import make_random_csr

UNIFORM = OBJECTIVE_PRESETS["uniform"]


@pytest.fixture()
def master(rng):
    # float32 master, as the plan registry expects.
    return make_random_csr(rng, n_rows=60, n_cols=25)


def _request(opt_id="o1", **overrides):
    defaults = dict(
        opt_id=opt_id,
        plan_id="p",
        objective=UNIFORM,
        max_iterations=6,
        tolerance=1e-9,
    )
    defaults.update(overrides)
    return OptimizationRequest(**defaults)


def _assert_reference_trajectory(outcome, master, opt_id, seed):
    """``outcome`` replays the stand-alone reference bit for bit."""
    from repro.bench.harness import convert_for_kernel

    assert isinstance(outcome, OptimizationOutcome)
    matrix = convert_for_kernel(master, "half_double")
    reference = run_reference(
        matrix, "half_double", UNIFORM,
        warm_start(seed, matrix.n_cols, opt_id),
        tolerance=1e-9, max_iterations=6,
    )
    assert [p.key() for p in outcome.points] == [
        p.key() for p in reference.points
    ]


@pytest.fixture()
def service(master):
    svc = OptimizationService(
        OptServiceConfig(n_workers=2, serve_workers=1, shards=1)
    )
    svc.register_plan("p", master)
    with svc:
        yield svc


class TestOutcomes:
    def test_runs_to_typed_terminal_with_checkpoint(self, service):
        ticket = service.submit(_request())
        outcome = ticket.outcome(timeout=60.0)
        assert isinstance(outcome, OptimizationOutcome)
        assert outcome.terminal in (
            TerminalState.CONVERGED, TerminalState.BUDGET_EXHAUSTED
        )
        assert outcome.iterations == outcome.points[-1].iteration
        assert outcome.checkpoint["schema"] == CHECKPOINT_SCHEMA
        assert ticket.done()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_trajectory_bitwise_equals_standalone(self, master, shards):
        svc = OptimizationService(
            OptServiceConfig(n_workers=2, serve_workers=1, shards=shards)
        )
        svc.register_plan("p", master)
        with svc:
            ticket = svc.submit(_request(opt_id="o-bitwise", seed=3))
            outcome = ticket.outcome(timeout=60.0)
        _assert_reference_trajectory(outcome, master, "o-bitwise", 3)

    def test_concurrent_same_plan(self, service):
        tickets = [
            service.submit(_request(opt_id=f"c{i}", seed=i))
            for i in range(4)
        ]
        outcomes = [t.outcome(timeout=120.0) for t in tickets]
        assert all(
            isinstance(o, OptimizationOutcome) for o in outcomes
        )
        stats = service.stats()
        assert stats["iterations_total"] > 0
        assert stats["evals_total"] >= stats["iterations_total"]

    def test_preempt_then_resume_standalone(self, service, master):
        from repro.bench.harness import convert_for_kernel
        from repro.kernels.dispatch import make_kernel
        from repro.opt.dist import LocalObjectiveEvaluator, build_objective

        ticket = service.submit(
            _request(
                opt_id="long", seed=9, max_iterations=500, tolerance=0.0
            )
        )
        assert service.preempt("long")
        outcome = ticket.outcome(timeout=60.0)
        assert isinstance(outcome, OptimizationOutcome)
        assert outcome.terminal is TerminalState.PREEMPTED
        # The checkpoint resumes to the uninterrupted trajectory.
        matrix = convert_for_kernel(master, "half_double")
        evaluator = LocalObjectiveEvaluator(
            matrix, make_kernel("half_double")
        )
        objective = build_objective(UNIFORM, matrix)
        resumed = run_to_completion(
            evaluator, objective, restore_state(outcome.checkpoint),
            tolerance=1e-9, max_iterations=outcome.iterations + 3,
        )
        w0 = warm_start(9, matrix.n_cols, "long")
        reference = run_reference(
            matrix, "half_double", UNIFORM, w0,
            tolerance=1e-9, max_iterations=outcome.iterations + 3,
        )
        # A preempt can land before the first iteration, in which case
        # the resumed run legitimately re-opens at iteration 0.
        stitched = list(outcome.points) + [
            p for p in resumed.points if p.iteration > outcome.iterations
        ]
        assert [p.key() for p in stitched] == [
            p.key() for p in reference.points
        ]

    def test_preempt_unknown_id(self, service):
        assert not service.preempt("nope")


class TestRejections:
    def test_unknown_plan(self, service):
        rejected = service.submit(_request(plan_id="ghost"))
        assert isinstance(rejected, OptRejected)
        assert rejected.reason is OptRejectReason.UNKNOWN_PLAN

    def test_unknown_precision(self, service):
        rejected = service.submit(_request(precision="float128"))
        assert isinstance(rejected, OptRejected)
        assert rejected.reason is OptRejectReason.UNKNOWN_PRECISION

    def test_nonreproducible_kernel(self, service):
        rejected = service.submit(_request(precision="gpu_baseline"))
        assert isinstance(rejected, OptRejected)
        assert rejected.reason is OptRejectReason.NONREPRODUCIBLE

    def test_duplicate_id(self, service):
        ticket = service.submit(
            _request(opt_id="dup", max_iterations=500, tolerance=0.0)
        )
        dup = service.submit(
            _request(opt_id="dup", max_iterations=500, tolerance=0.0)
        )
        assert isinstance(dup, OptRejected)
        assert dup.reason is OptRejectReason.DUPLICATE_ID
        service.preempt("dup")
        ticket.outcome(timeout=60.0)

    def test_bad_w0_shape(self, service):
        rejected = service.submit(_request(w0=np.ones(3)))
        assert isinstance(rejected, OptRejected)
        assert rejected.reason is OptRejectReason.BAD_REQUEST

    def test_unshardable_plan(self, master):
        svc = OptimizationService(
            OptServiceConfig(n_workers=1, serve_workers=1, shards=64)
        )
        svc.register_plan("p", master)
        with svc:
            rejected = svc.submit(_request())
            assert isinstance(rejected, OptRejected)
            assert rejected.reason is OptRejectReason.UNSHARDABLE

    def test_shutting_down(self, master):
        svc = OptimizationService(
            OptServiceConfig(n_workers=1, serve_workers=1)
        )
        svc.register_plan("p", master)
        svc.start()
        svc.stop()
        rejected = svc.submit(_request())
        assert isinstance(rejected, OptRejected)
        assert rejected.reason is OptRejectReason.SHUTTING_DOWN

    def test_request_validation(self):
        with pytest.raises(OptServeError):
            OptimizationRequest(
                opt_id="x", plan_id="p", objective=()
            )
        with pytest.raises(OptServeError):
            OptimizationRequest(
                opt_id="x", plan_id="p", objective=UNIFORM,
                max_iterations=0,
            )

    @pytest.mark.parametrize("step", [0.0, -1.0, np.nan, np.inf])
    def test_bad_initial_step_refused(self, step):
        # A zero step never moves, a negative one climbs, a non-finite
        # one fails the first forward: refused before admission.
        with pytest.raises(OptServeError, match="initial_step"):
            _request(initial_step=step)


class TestFailurePaths:
    def test_warm_start_failure_resolves_ticket(
        self, service, monkeypatch
    ):
        # A failure before the first iterate exists (task.state is still
        # None, e.g. the inner serve rejected the very first forward
        # evaluation) must resolve the ticket with a FAILED outcome —
        # not kill the worker thread and hang the caller.
        import repro.opt.dist.service as service_mod

        real = service_mod.initial_state
        fail = threading.Event()
        fail.set()

        def flaky(*args, **kwargs):
            if fail.is_set():
                raise OptServeError("injected warm-start failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(service_mod, "initial_state", flaky)
        ticket = service.submit(_request(opt_id="ws-fail"))
        outcome = ticket.outcome(timeout=30.0)
        assert isinstance(outcome, OptimizationOutcome)
        assert outcome.terminal is TerminalState.FAILED
        assert outcome.iterations == 0
        assert outcome.checkpoint == {}
        assert "injected warm-start failure" in outcome.detail
        # The task is not leaked in the admission queue.
        assert service.stats()["active"] == 0.0
        # The worker survived: a healthy submit still completes.
        fail.clear()
        ticket2 = service.submit(_request(opt_id="ws-ok"))
        assert isinstance(
            ticket2.outcome(timeout=60.0), OptimizationOutcome
        )

    def test_admission_rejections_counted(self, master):
        from repro.obs import metrics

        svc = OptimizationService(
            OptServiceConfig(
                n_workers=1, serve_workers=1, queue_capacity=1
            )
        )
        svc.register_plan("p", master)
        rejected = metrics.counter("opt.service.rejected")
        with svc:
            before = rejected.value
            ticket = svc.submit(_request(
                opt_id="hold", max_iterations=500, tolerance=0.0
            ))
            dup = svc.submit(_request(opt_id="hold"))
            assert isinstance(dup, OptRejected)
            assert dup.reason is OptRejectReason.DUPLICATE_ID
            full = svc.submit(_request(opt_id="overflow"))
            assert isinstance(full, OptRejected)
            assert full.reason is OptRejectReason.QUEUE_FULL
            assert rejected.value == before + 2
            svc.preempt("hold")
            ticket.outcome(timeout=60.0)
        late = svc.submit(_request(opt_id="late"))
        assert isinstance(late, OptRejected)
        assert late.reason is OptRejectReason.SHUTTING_DOWN
        assert rejected.value == before + 3

    def test_doomed_submit_builds_no_engine(self, master, rng):
        # Requests rejected for admission pressure must not build a
        # plan-cache entry (conversion + compile) for their plan.
        other = make_random_csr(rng, n_rows=50, n_cols=20)
        svc = OptimizationService(
            OptServiceConfig(
                n_workers=1, serve_workers=1, queue_capacity=1
            )
        )
        svc.register_plan("p", master)
        svc.register_plan("p2", other)
        with svc:
            ticket = svc.submit(_request(
                opt_id="hold", max_iterations=500, tolerance=0.0
            ))
            full = svc.submit(_request(opt_id="x", plan_id="p2"))
            assert isinstance(full, OptRejected)
            assert full.reason is OptRejectReason.QUEUE_FULL
            # Only p's entry (built for "hold") is resident, not p2's.
            assert svc._inner.stats()["plan_cache_entries"] == 1.0
            svc.preempt("hold")
            ticket.outcome(timeout=60.0)


class TestPlanCacheEntries:
    """Opt state lives in the serve plan cache, one entry per plan."""

    @pytest.mark.parametrize("shards", [1, 4])
    def test_each_plan_converted_once(self, master, monkeypatch, shards):
        import repro.bench.harness as harness
        import repro.serve.cache as serve_cache

        real = harness.convert_for_kernel
        converted = []

        def counting(matrix, kernel_name):
            converted.append(kernel_name)
            return real(matrix, kernel_name)

        monkeypatch.setattr(harness, "convert_for_kernel", counting)
        monkeypatch.setattr(serve_cache, "convert_for_kernel", counting)
        svc = OptimizationService(
            OptServiceConfig(n_workers=2, serve_workers=1, shards=shards)
        )
        svc.register_plan("p", master)
        with svc:
            tickets = [
                svc.submit(_request(opt_id=f"once{i}", seed=i))
                for i in range(2)
            ]
            outcomes = [t.outcome(timeout=60.0) for t in tickets]
        assert all(isinstance(o, OptimizationOutcome) for o in outcomes)
        assert converted == ["half_double"]

    def test_slow_adjoint_build_blocks_no_other_submit(
        self, master, rng, monkeypatch
    ):
        from repro.sparse.csr import CSRMatrix

        other = make_random_csr(rng, n_rows=50, n_cols=20)
        held = (master.n_rows, master.n_cols)
        entered, release = threading.Event(), threading.Event()
        real = CSRMatrix.transposed

        def gated(matrix):
            # Plan a's adjoint build stalls until released.
            if (matrix.n_rows, matrix.n_cols) == held:
                entered.set()
                release.wait(30.0)
            return real(matrix)

        monkeypatch.setattr(CSRMatrix, "transposed", gated)
        svc = OptimizationService(
            OptServiceConfig(n_workers=2, serve_workers=1)
        )
        svc.register_plan("a", master)
        svc.register_plan("b", other)
        handles = {}

        def submit(opt_id, plan_id):
            handles[opt_id] = svc.submit(
                _request(opt_id=opt_id, plan_id=plan_id, seed=1)
            )

        with svc:
            first = threading.Thread(target=submit, args=("oa", "a"))
            second = threading.Thread(target=submit, args=("ob", "b"))
            try:
                first.start()
                assert entered.wait(30.0)
                second.start()
                second.join(5.0)
                assert not second.is_alive()
                assert isinstance(handles["ob"], OptTicket)
            finally:
                release.set()
                first.join(30.0)
                second.join(30.0)
            outcomes = {
                opt_id: ticket.outcome(timeout=60.0)
                for opt_id, ticket in handles.items()
            }
        _assert_reference_trajectory(outcomes["oa"], master, "oa", 1)
        _assert_reference_trajectory(outcomes["ob"], other, "ob", 1)

    def test_evicted_entries_rebuild_bitwise(self, master, rng):
        other = make_random_csr(rng, n_rows=50, n_cols=20)
        svc = OptimizationService(
            OptServiceConfig(
                n_workers=2, serve_workers=1, plan_cache_capacity=1
            )
        )
        svc.register_plan("a", master)
        svc.register_plan("b", other)
        with svc:
            # Two plans through one slot: entries (matrix, forward and
            # adjoint) are evicted and rebuilt while both optimize.
            tickets = {
                opt_id: svc.submit(
                    _request(opt_id=opt_id, plan_id=plan_id, seed=2)
                )
                for opt_id, plan_id in (("ea", "a"), ("eb", "b"))
            }
            outcomes = {k: t.outcome(timeout=60.0) for k, t in tickets.items()}
            assert svc._inner.stats()["plan_cache_entries"] <= 1.0
        _assert_reference_trajectory(outcomes["ea"], master, "ea", 2)
        _assert_reference_trajectory(outcomes["eb"], other, "eb", 2)

    def test_adjoint_build_failure_fails_that_optimization(
        self, service, monkeypatch
    ):
        from repro.sparse.csr import CSRMatrix

        real = CSRMatrix.transposed
        fail = threading.Event()
        fail.set()

        def flaky(matrix):
            if fail.is_set():
                raise RuntimeError("injected adjoint build failure")
            return real(matrix)

        monkeypatch.setattr(CSRMatrix, "transposed", flaky)
        ticket = service.submit(_request(opt_id="adj-fail"))
        assert isinstance(ticket, OptTicket)
        outcome = ticket.outcome(timeout=30.0)
        assert isinstance(outcome, OptimizationOutcome)
        assert outcome.terminal is TerminalState.FAILED
        assert "injected adjoint build failure" in outcome.detail
        # The worker survived, and the next request builds the adjoint.
        fail.clear()
        healthy = service.submit(_request(opt_id="adj-ok"))
        outcome = healthy.outcome(timeout=60.0)
        assert isinstance(outcome, OptimizationOutcome)
        assert outcome.terminal is not TerminalState.FAILED


class TestTenantBudgets:
    def test_budget_truncates_then_rejects(self, master):
        svc = OptimizationService(
            OptServiceConfig(
                n_workers=1, serve_workers=1,
                tenant_budgets={"acme": 3},
            )
        )
        svc.register_plan("p", master)
        with svc:
            ticket = svc.submit(_request(
                opt_id="b1", tenant="acme",
                max_iterations=500, tolerance=0.0,
            ))
            outcome = ticket.outcome(timeout=60.0)
            assert isinstance(outcome, OptimizationOutcome)
            assert outcome.terminal is TerminalState.BUDGET_EXHAUSTED
            assert "acme" in outcome.detail
            assert outcome.iterations == 3
            assert svc.tenant_budget_left("acme") == 0
            rejected = svc.submit(_request(opt_id="b2", tenant="acme"))
            assert isinstance(rejected, OptRejected)
            assert rejected.reason is OptRejectReason.TENANT_BUDGET
            # Other tenants are unaffected.
            other = svc.submit(_request(opt_id="b3", tenant="zen"))
            assert isinstance(
                other.outcome(timeout=60.0), OptimizationOutcome
            )


class TestFullAudit:
    def test_audit_passes_on_small_problem(self, rng):
        from repro.bench.harness import convert_for_kernel

        master = make_random_csr(rng, n_rows=40, n_cols=16)
        matrix = convert_for_kernel(master, "half_double")
        audit = audit_optimization(
            matrix, "half_double", OBJECTIVE_PRESETS["clinical"],
            seed=1, tolerance=1e-9, max_iterations=4,
            shard_counts=(1, 2, 4), include_service=True,
        )
        assert audit.ok, audit.problems
        labels = [label for label, _, _ in audit.legs]
        assert any("kill@" in label for label in labels)
        assert any("service" in label for label in labels)
