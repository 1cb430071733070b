"""Scenario-ensemble serving: fan-out, index-ordered merge, audit.

The merge invariant under test: an ensemble result's dose stack is
ordered strictly by explicit scenario index — batching windows, worker
counts, shard counts and submission order must all be invisible in the
bits.
"""

import threading
import time

import numpy as np
import pytest

from repro.serve.ensemble import (
    EnsembleResult,
    EnsembleTicket,
    ScenarioEnsembleRequest,
    ensemble_scenario_ids,
    register_ensemble,
    scenario_plan_id,
)
from repro.serve.request import (
    EvaluationRequest,
    EvaluationResult,
    Rejected,
    RejectReason,
    ServeError,
    Ticket,
)
from repro.serve.scheduler import BatchingPolicy
from repro.serve.service import DoseEvaluationService, ServiceConfig
from repro.workloads import (
    audit_workload,
    generate_robust_ensemble,
    generate_vmat,
)
from repro.workloads.audit import audit_weights


@pytest.fixture(scope="module")
def ensemble():
    return generate_robust_ensemble(seed=0, preset="probe")


def _service(**kwargs):
    return DoseEvaluationService(ServiceConfig(**kwargs))


def _request(ensemble, request_id="e-r0", plan_id="plan"):
    weights = audit_weights("test", 0, ensemble.n_spots)
    return ScenarioEnsembleRequest(
        request_id=request_id, plan_id=plan_id, weights=weights
    )


class TestRegistration:
    def test_register_creates_scenario_plans(self, ensemble):
        service = _service()
        ids = register_ensemble(service, "plan", ensemble)
        assert list(ids) == [
            scenario_plan_id("plan", i) for i in range(ensemble.n_scenarios)
        ]
        assert ensemble_scenario_ids(service, "plan") == tuple(ids)

    def test_scenario_plan_id_format(self):
        assert scenario_plan_id("p", 2) == "p@s2"


class TestEnsembleEvaluation:
    def test_doses_stack_in_scenario_index_order(self, ensemble):
        service = _service()
        register_ensemble(service, "plan", ensemble)
        request = _request(ensemble)
        with service:
            result = service.evaluate_ensemble(request)
        assert isinstance(result, EnsembleResult)
        assert result.doses.shape == (
            ensemble.n_scenarios,
            ensemble.matrix.n_rows,
        )
        # per-scenario results carry the scenario plan ids in order
        assert [r.plan_id for r in result.scenario_results] == [
            scenario_plan_id("plan", i) for i in range(ensemble.n_scenarios)
        ]

    def test_reversed_submission_identical_bits(self, ensemble):
        def run(submit_order, **config):
            service = _service(**config)
            register_ensemble(service, "plan", ensemble)
            with service:
                return service.evaluate_ensemble(
                    _request(ensemble), submit_order=submit_order
                )

        forward = run(None, n_workers=1,
                      batching=BatchingPolicy(max_batch_size=1,
                                              max_wait_s=0.0))
        reversed_ = run(
            list(reversed(range(ensemble.n_scenarios))),
            n_workers=3,
            batching=BatchingPolicy(max_batch_size=8, max_wait_s=0.004),
        )
        assert np.array_equal(forward.doses, reversed_.doses)

    def test_invalid_submit_order_raises(self, ensemble):
        service = _service()
        register_ensemble(service, "plan", ensemble)
        with service:
            with pytest.raises(ServeError, match="must permute"):
                service.submit_ensemble(_request(ensemble),
                                        submit_order=[0, 0, 1])

    def test_unregistered_ensemble_rejected(self, ensemble):
        service = _service()
        with service:
            outcome = service.evaluate_ensemble(_request(ensemble))
        assert isinstance(outcome, Rejected)
        assert outcome.reason is RejectReason.UNKNOWN_PLAN
        assert outcome.request_id == "e-r0"

    def test_scenario_rejection_names_scenario(self, ensemble):
        from repro.serve.ensemble import EnsembleTicket

        ticket = EnsembleTicket(
            request=_request(ensemble),
            handles=(
                Rejected("e-r0@s0", RejectReason.QUEUE_FULL,
                         "queue at capacity"),
            ),
        )
        out = ticket.outcome(1.0)
        assert isinstance(out, Rejected)
        assert out.request_id == "e-r0"
        assert out.detail.startswith("scenario 0:")

    def test_ensemble_request_validates_weights(self):
        with pytest.raises(ServeError):
            ScenarioEnsembleRequest(
                request_id="r", plan_id="p",
                weights=np.ones((2, 2)),
            )


class TestAuditReport:
    def test_vmat_audit_all_paths_bitwise(self):
        report = audit_workload("vmat", preset="probe", shard_counts=(1, 2))
        assert report.n_scenarios == 1
        assert report.shards_bitwise == {1: True, 2: True}
        assert set(report.serve_bitwise) == {
            "serial_1worker", "batched_3workers_reversed"
        }
        assert report.all_bitwise

    def test_ensemble_audit_all_paths_bitwise(self, ensemble):
        report = audit_workload(
            "robust_ensemble", preset="probe", shard_counts=(1, 3),
            product=ensemble,
        )
        assert report.n_scenarios == ensemble.n_scenarios
        assert report.all_bitwise
        assert len(report.stack_sha256) == 64

    def test_audit_weights_deterministic(self):
        a = audit_weights("vmat", 0, 10)
        b = audit_weights("vmat", 0, 10)
        assert np.array_equal(a, b)
        assert np.all(a > 0)

    def test_unknown_workload_fails_fast(self):
        from repro.workloads import WorkloadError

        with pytest.raises(WorkloadError):
            audit_workload("nope", preset="probe")

    def test_report_flags_divergence(self):
        report = audit_workload("vmat", preset="probe", shard_counts=(1,))
        broken = type(report)(
            workload=report.workload, preset=report.preset,
            precision=report.precision, n_scenarios=report.n_scenarios,
            n_rows=report.n_rows, n_cols=report.n_cols,
            shard_counts=report.shard_counts,
            stack_sha256=report.stack_sha256,
            shards_bitwise={1: False},
            serve_bitwise=dict(report.serve_bitwise),
        )
        assert not broken.all_bitwise


class TestLoadgenWorkloads:
    def test_vmat_loadtest_bitwise(self):
        from repro.serve.loadgen import LoadTestConfig, run_loadtest

        report = run_loadtest(LoadTestConfig(
            n_requests=6, n_clients=2, n_plans=2,
            workload="vmat", preset="probe",
        ))
        assert report.completed == 6
        assert report.bitwise_checked == 6
        assert report.bitwise_ok == 6
        assert all(r.workload == "vmat" for r in report.records)
        assert all(r.scenario is None for r in report.records)

    def test_ensemble_loadtest_scenario_rows(self):
        from repro.serve.loadgen import LoadTestConfig, run_loadtest

        report = run_loadtest(LoadTestConfig(
            n_requests=4, n_clients=2,
            workload="robust_ensemble", preset="probe",
        ))
        n_scenarios = 3  # probe-preset ensemble width
        assert report.completed == 4 * n_scenarios
        assert report.bitwise_ok == report.bitwise_checked > 0
        assert {r.scenario for r in report.records} == set(
            range(n_scenarios)
        )

    def test_loadtest_csv_carries_workload_columns(self):
        from repro.bench.recording import loadtest_rows_to_csv
        from repro.serve.loadgen import LoadTestConfig, run_loadtest

        report = run_loadtest(LoadTestConfig(
            n_requests=2, n_clients=1, n_plans=1,
            workload="vmat", preset="probe",
        ))
        csv_text = loadtest_rows_to_csv(report)
        header = csv_text.splitlines()[0].split(",")
        assert "workload" in header and "scenario" in header
        assert ",vmat," in csv_text.splitlines()[1]


def test_vmat_csc_column_support_matches_generate(ensemble):
    # cross-check: generators remain usable directly under serve without
    # registry involvement (duck-typed scenario_matrices fallback)
    wl = generate_vmat(seed=0, preset="probe")
    service = _service()
    service.plans.register("direct", wl.matrix, source="test")
    assert service.plans.get("direct").matrix is wl.matrix


class TestEnsembleTimeout:
    def test_timeout_bounds_the_whole_gather(self):
        # Scenario s resolves 0.8 * (s + 1) timeouts after the gather
        # starts, each within one timeout of the previous: the gather
        # gives up after about one timeout, not one timeout per scenario.
        timeout = 0.3
        request = ScenarioEnsembleRequest("e-slow", "plan", np.ones(3))
        handles = tuple(
            Ticket(EvaluationRequest(f"e-slow@s{s}", f"plan@s{s}",
                                     np.ones(3)), submitted_at=0.0)
            for s in range(3)
        )
        timers = [
            threading.Timer(0.8 * timeout * (s + 1), ticket.resolve, [
                EvaluationResult(
                    ticket.request.request_id, ticket.request.plan_id,
                    "half_double", np.zeros(2), batch_id=s, batch_size=1,
                    modeled_time_s=0.0, queue_wait_s=0.0, latency_s=0.0,
                    worker="test", cache_hit=False,
                )
            ])
            for s, ticket in enumerate(handles)
        ]
        ticket = EnsembleTicket(request=request, handles=handles)
        started = time.perf_counter()
        for timer in timers:
            timer.start()
        try:
            with pytest.raises(ServeError):
                ticket.outcome(timeout)
            elapsed = time.perf_counter() - started
        finally:
            for timer in timers:
                timer.join(5.0)
        assert 0.9 * timeout <= elapsed < 2 * timeout
        assert not any(timer.is_alive() for timer in timers)

    def test_resolved_scenarios_return_after_the_deadline(self, ensemble):
        service = _service().start()
        try:
            register_ensemble(service, "plan", ensemble)
            ticket = service.submit_ensemble(_request(ensemble))
            first = ticket.outcome(60.0)
            # Every scenario is resolved: a spent budget still gathers.
            again = ticket.outcome(0.0)
        finally:
            service.stop()
        assert isinstance(first, EnsembleResult)
        assert again.doses.tobytes() == first.doses.tobytes()
