"""Sharded serving: the dist backend behind the micro-batcher.

The service's determinism guarantee must survive the device-count
change: a sharded service answers every request with the same bits as
the single-device path, the loadtest's bitwise audit included.
"""

import numpy as np
import pytest

from repro.bench.harness import convert_for_kernel
from repro.bench.recording import loadtest_rows_to_csv
from repro.dist.backend import ShardedServeBackend
from repro.dist.executor import FailureInjector
from repro.kernels.batched import run_multi_spmv
from repro.kernels.dispatch import make_kernel
from repro.serve.cache import PlanMatrixCache, PlanStore
from repro.serve.loadgen import LoadTestConfig, run_loadtest
from repro.serve.request import (
    EvaluationRequest,
    EvaluationResult,
    Rejected,
    RejectReason,
)
from repro.serve.service import DoseEvaluationService, ServiceConfig
from repro.sparse.synth import dose_like
from repro.util.errors import ReproError
from repro.util.rng import make_rng, stable_seed

N_SPOTS = 24


@pytest.fixture(scope="module")
def master():
    rng = make_rng(stable_seed("dist-serve-test", 0))
    return dose_like(150, N_SPOTS, density=0.15, empty_fraction=0.4, rng=rng)


@pytest.fixture(scope="module")
def converted(master):
    return convert_for_kernel(master, "half_double")


class TestShardedServeBackend:
    def test_batch_bitwise_matches_single_device_spmm(self, converted):
        backend = ShardedServeBackend(shards=3, n_devices=2)
        rng = make_rng(stable_seed("dist-serve-batch", 1))
        vectors = [rng.random(N_SPOTS) for _ in range(6)]
        kernel = make_kernel("half_double")
        sharded = backend.run_batch(
            backend.forward_evaluator(converted, kernel), vectors
        )
        single = run_multi_spmv(kernel, converted, vectors)
        assert sharded.shards == 3
        assert single.shards == 1
        for got, want in zip(sharded.per_vector, single.per_vector):
            assert np.array_equal(got.y, want.y)

    def test_evaluator_cached_across_batches(self, master):
        backend = ShardedServeBackend(shards=2)
        store = PlanStore()
        store.register("plan-a", master)
        cache = PlanMatrixCache(store, backend=backend)
        rng = make_rng(stable_seed("dist-serve-cache", 2))
        first = cache.materialize("plan-a", "half_double")[0].forward
        backend.run_batch(first, [rng.random(N_SPOTS)])
        assert cache.materialize("plan-a", "half_double")[0].forward is first

    def test_batched_accounting(self, converted):
        backend = ShardedServeBackend(shards=4, n_devices=2)
        rng = make_rng(stable_seed("dist-serve-timing", 3))
        vectors = [rng.random(N_SPOTS) for _ in range(8)]
        evaluator = backend.forward_evaluator(
            converted, make_kernel("half_double")
        )
        result = backend.run_batch(evaluator, vectors)
        assert result.spmm
        assert result.batched_time_s < result.unbatched_time_s

    def test_injected_failure_still_bitwise(self, converted):
        backend = ShardedServeBackend(shards=4, retry_budget=2)
        rng = make_rng(stable_seed("dist-serve-inject", 4))
        vectors = [rng.random(N_SPOTS) for _ in range(3)]
        evaluator = backend.forward_evaluator(
            converted, make_kernel("half_double")
        )
        clean = backend.run_batch(evaluator, vectors)
        failed = backend.run_batch(
            evaluator, vectors, injector=FailureInjector.fail_once(1),
        )
        for got, want in zip(failed.per_vector, clean.per_vector):
            assert np.array_equal(got.y, want.y)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ReproError):
            ShardedServeBackend(shards=0)


class TestShardedService:
    def test_sharded_service_bitwise_and_provenance(self, master):
        service = DoseEvaluationService(
            ServiceConfig(shards=3, dist_devices=2)
        )
        service.plans.register("plan-a", master)
        rng = make_rng(stable_seed("dist-serve-svc", 5))
        weights = [0.5 + rng.random(N_SPOTS) for _ in range(6)]
        with service:
            outcomes = service.evaluate(
                [
                    EvaluationRequest(
                        request_id=f"r{i}", plan_id="plan-a", weights=w
                    )
                    for i, w in enumerate(weights)
                ]
            )
        kernel = make_kernel("half_double")
        converted = convert_for_kernel(master, "half_double")
        plan = kernel.prepare_plan(converted)
        for i, outcome in enumerate(outcomes):
            assert isinstance(outcome, EvaluationResult)
            assert outcome.shards == 3
            standalone = kernel.run(converted, weights[i], plan=plan)
            assert np.array_equal(outcome.dose, standalone.y)

    def test_unshardable_precision_rejected(self, master):
        service = DoseEvaluationService(ServiceConfig(shards=2))
        service.plans.register("plan-a", master)
        with service:
            outcome = service.submit(
                EvaluationRequest(
                    request_id="r0", plan_id="plan-a",
                    weights=np.ones(N_SPOTS), precision="cusparse",
                )
            )
        assert isinstance(outcome, Rejected)
        assert outcome.reason is RejectReason.UNSHARDABLE

    def test_unsharded_service_still_serves_cusparse(self, master):
        service = DoseEvaluationService(ServiceConfig())
        service.plans.register("plan-a", master)
        with service:
            outcome = service.submit(
                EvaluationRequest(
                    request_id="r0", plan_id="plan-a",
                    weights=np.ones(N_SPOTS), precision="cusparse",
                )
            )
            outcome = (
                outcome if not hasattr(outcome, "outcome")
                else outcome.outcome(timeout=10.0)
            )
        assert isinstance(outcome, EvaluationResult)
        assert outcome.shards == 1


class TestShardedLoadtest:
    @pytest.fixture(scope="class")
    def report(self):
        config = LoadTestConfig(
            n_requests=30, n_clients=2, burst=3, n_plans=2,
            plan_rows=150, plan_cols=24, n_workers=2,
            max_batch_size=8, batch_window_s=0.05,
            shards=3, dist_devices=2,
        )
        return run_loadtest(config)

    def test_all_completed_all_bitwise(self, report):
        assert report.completed == 30
        assert report.rejected == 0
        oks = [r for r in report.records if r.status == "ok"]
        assert all(r.bitwise for r in oks)

    def test_records_carry_shard_count(self, report):
        assert {r.shards for r in report.records} == {3}

    def test_csv_has_shards_column(self, report):
        csv_text = loadtest_rows_to_csv(report)
        header, first = csv_text.splitlines()[:2]
        assert "shards" in header.split(",")
        idx = header.split(",").index("shards")
        assert first.split(",")[idx] == "3"
