"""Non-finite weights get a typed rejection at every front door.

A NaN or infinite weight would otherwise be served as a NaN dose with
no error.  Each door (single requests, scenario ensembles, optimization
warm starts) refuses it up front, keeps serving afterwards, and serves
finite requests exactly as before.
"""

import numpy as np
import pytest

from repro.bench.harness import convert_for_kernel
from repro.kernels.dispatch import make_kernel
from repro.opt.dist import (
    OBJECTIVE_PRESETS,
    OptimizationOutcome,
    OptimizationRequest,
    OptimizationService,
    OptRejected,
    OptRejectReason,
    OptServiceConfig,
    run_reference,
)
from repro.serve.ensemble import (
    EnsembleResult,
    EnsembleTicket,
    ScenarioEnsembleRequest,
    register_ensemble,
)
from repro.serve.request import (
    EvaluationRequest,
    EvaluationResult,
    Rejected,
    RejectReason,
)
from repro.serve.service import DoseEvaluationService, ServiceConfig
from repro.util.validation import first_non_finite
from repro.workloads import generate_robust_ensemble
from repro.workloads.audit import audit_weights
from tests.conftest import make_random_csr

NON_FINITE = [np.nan, np.inf, -np.inf]
BAD_SPOT = 3


def _poisoned(weights, value):
    weights = weights.copy()
    weights[BAD_SPOT] = value
    return weights


def _standalone(master, weights):
    kernel = make_kernel("half_double")
    return kernel.run(convert_for_kernel(master, "half_double"), weights).y


class TestFirstNonFinite:
    def test_finite_and_integer_arrays(self):
        assert first_non_finite(np.array([0.0, -1.5, 2.0])) is None
        assert first_non_finite(np.arange(4)) is None
        assert first_non_finite(np.array([], np.float64)) is None

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_names_the_first(self, value):
        x = np.zeros(6, np.float32)
        x[4] = value
        x[2] = value
        assert first_non_finite(x) == 2


class TestServeDoor:
    @pytest.fixture(scope="class")
    def master(self):
        return make_random_csr(np.random.default_rng(7), n_rows=80, n_cols=20)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_rejected_then_keeps_serving(self, master, value):
        good = 0.5 + np.random.default_rng(1).random(master.n_cols)
        bad = EvaluationRequest("bad", "p", _poisoned(good, value))
        assert bad.non_finite_spot == BAD_SPOT
        service = DoseEvaluationService(ServiceConfig())
        service.plans.register("p", master)
        with service:
            rejected = service.submit(bad)
            assert isinstance(rejected, Rejected)
            assert rejected.reason is RejectReason.NON_FINITE
            assert f"spot {BAD_SPOT}" in rejected.detail
            outcome = service.evaluate([EvaluationRequest("ok", "p", good)])[0]
        assert isinstance(outcome, EvaluationResult)
        assert outcome.dose.tobytes() == _standalone(master, good).tobytes()


class TestEnsembleDoor:
    @pytest.fixture(scope="class")
    def ensemble(self):
        return generate_robust_ensemble(seed=0, preset="probe")

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_rejected_all_or_nothing_then_keeps_serving(
        self, ensemble, value
    ):
        good = audit_weights("non-finite", 0, ensemble.n_spots)
        service = DoseEvaluationService(ServiceConfig())
        register_ensemble(service, "plan", ensemble)
        with service:
            handle = service.submit_ensemble(ScenarioEnsembleRequest(
                "bad", "plan", _poisoned(good, value)
            ))
            assert isinstance(handle, EnsembleTicket)
            assert len(handle.handles) == ensemble.n_scenarios
            assert all(
                isinstance(h, Rejected) and h.reason is RejectReason.NON_FINITE
                for h in handle.handles
            )
            rejected = handle.outcome(1.0)
            assert isinstance(rejected, Rejected)
            assert rejected.reason is RejectReason.NON_FINITE
            result = service.evaluate_ensemble(
                ScenarioEnsembleRequest("ok", "plan", good)
            )
        assert isinstance(result, EnsembleResult)
        for scenario, dose in zip(ensemble.scenarios, result.doses):
            assert dose.tobytes() == _standalone(
                scenario.matrix, good
            ).tobytes()


class TestOptimizationDoor:
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_rejected_then_keeps_serving(self, value):
        master = make_random_csr(np.random.default_rng(11), n_cols=25)
        uniform = OBJECTIVE_PRESETS["uniform"]
        good = 0.5 + np.random.default_rng(2).random(master.n_cols)

        def request(opt_id, w0):
            return OptimizationRequest(
                opt_id=opt_id, plan_id="p", objective=uniform, w0=w0,
                max_iterations=4, tolerance=1e-9,
            )

        service = OptimizationService(
            OptServiceConfig(n_workers=1, serve_workers=1, shards=1)
        )
        service.register_plan("p", master)
        with service:
            rejected = service.submit(request("bad", _poisoned(good, value)))
            assert isinstance(rejected, OptRejected)
            assert rejected.reason is OptRejectReason.BAD_REQUEST
            assert f"w0[{BAD_SPOT}]" in rejected.detail
            outcome = service.submit(request("ok", good)).outcome(timeout=60.0)
        assert isinstance(outcome, OptimizationOutcome)
        reference = run_reference(
            convert_for_kernel(master, "half_double"), "half_double",
            uniform, good, tolerance=1e-9, max_iterations=4,
        )
        assert [p.key() for p in outcome.points] == [
            p.key() for p in reference.points
        ]
