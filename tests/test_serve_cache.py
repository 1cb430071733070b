"""Plan store and plan-matrix cache: registration, conversion, bounds."""

import threading

import numpy as np
import pytest

from repro.kernels.plan import compile_transpose_plan, execute_transpose_plan
from repro.serve.cache import PlanMatrixCache, PlanStore
from repro.serve.request import ServeError
from repro.sparse.synth import dose_like
from repro.util.rng import make_rng, stable_seed


@pytest.fixture()
def master():
    rng = make_rng(stable_seed("serve-cache-test", 0))
    return dose_like(60, 16, density=0.2, empty_fraction=0.3, rng=rng)


@pytest.fixture()
def store(master):
    s = PlanStore()
    s.register("plan-a", master)
    return s


class TestPlanStore:
    def test_register_and_get(self, store, master):
        record = store.get("plan-a")
        assert record is not None
        assert record.matrix is master
        assert record.n_spots == master.n_cols
        assert record.n_voxels == master.n_rows

    def test_duplicate_registration_refused(self, store, master):
        with pytest.raises(ServeError):
            store.register("plan-a", master)

    def test_replace_is_explicit(self, store, master):
        record = store.register("plan-a", master, replace=True)
        assert store.get("plan-a") is record

    def test_register_case(self):
        s = PlanStore()
        record = s.register_case("p", "Liver 1", preset="tiny")
        assert record.source == "Liver 1/tiny"
        assert record.n_spots > 0

    def test_plan_ids_sorted(self, store, master):
        store.register("plan-b", master)
        assert store.plan_ids() == ["plan-a", "plan-b"]
        assert len(store) == 2

    def test_unknown_plan_is_none(self, store):
        assert store.get("nope") is None


class TestPlanMatrixCache:
    def test_miss_then_hit(self, store):
        cache = PlanMatrixCache(store, capacity=4)
        e1, hit1 = cache.materialize("plan-a", "half_double")
        e2, hit2 = cache.materialize("plan-a", "half_double")
        assert not hit1 and hit2
        assert e1 is e2
        assert e1.matrix.value_dtype == np.float16

    def test_precisions_cached_separately(self, store):
        cache = PlanMatrixCache(store, capacity=4)
        half, _ = cache.materialize("plan-a", "half_double")
        single, _ = cache.materialize("plan-a", "single")
        assert half.matrix is not single.matrix
        assert len(cache) == 2

    def test_unknown_plan_raises(self, store):
        cache = PlanMatrixCache(store, capacity=4)
        with pytest.raises(ServeError):
            cache.materialize("nope", "half_double")

    def test_capacity_bounds_residency(self, store, master):
        store.register("plan-b", master)
        cache = PlanMatrixCache(store, capacity=1)
        cache.materialize("plan-a", "half_double")
        cache.materialize("plan-b", "half_double")
        assert len(cache) == 1
        # plan-a was evicted: materializing it again is a rebuild.
        _, hit = cache.materialize("plan-a", "half_double")
        assert not hit

    def test_concurrent_materialize_single_flight(self, store):
        cache = PlanMatrixCache(store, capacity=4)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results = []
        results_lock = threading.Lock()

        def worker():
            barrier.wait()
            entry, hit = cache.materialize("plan-a", "half_double")
            with results_lock:
                results.append((entry.matrix, hit))

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == n_threads
        # Exactly one thread converted; everyone shares that one object.
        assert sum(1 for _, hit in results if not hit) == 1
        assert len({id(m) for m, _ in results}) == 1


class TestMaterializeWithPlan:
    """The entry's compiled operators live and die with its matrix."""

    def test_plan_compiled_once_then_hit(self, store):
        cache = PlanMatrixCache(store, capacity=4)
        e1, hit1 = cache.materialize("plan-a", "half_double")
        e2, hit2 = cache.materialize("plan-a", "half_double")
        assert not hit1 and hit2
        assert e1.forward is e2.forward
        assert e1.forward.matches(e1.matrix) and e1.matrix is e2.matrix

    def test_kernel_without_plan_family_returns_none(self, store):
        cache = PlanMatrixCache(store, capacity=4)
        entry, _ = cache.materialize("plan-a", "gpu_baseline")
        assert entry.forward is None

    def test_plan_recompiled_after_matrix_rebuild(self, store, master):
        store.register("plan-b", master)
        cache = PlanMatrixCache(store, capacity=1)
        first, _ = cache.materialize("plan-a", "half_double")
        cache.materialize("plan-b", "half_double")  # evicts a
        # plan-a's matrix is rebuilt as a new object, and its plan is
        # compiled again against the live matrix along with it.
        entry, hit = cache.materialize("plan-a", "half_double")
        assert not hit
        assert entry.matrix is not first.matrix
        assert entry.forward is not None and entry.forward.matches(
            entry.matrix
        )

    def test_concurrent_plan_compile_single_flight(self, store):
        cache = PlanMatrixCache(store, capacity=4)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results = []
        results_lock = threading.Lock()

        def worker():
            barrier.wait()
            entry, hit = cache.materialize("plan-a", "half_double")
            with results_lock:
                results.append((entry.forward, hit))

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(1 for _, hit in results if not hit) == 1
        assert len({id(p) for p, _ in results}) == 1

    def test_clear_drops_plans_too(self, store):
        cache = PlanMatrixCache(store, capacity=4)
        first, _ = cache.materialize("plan-a", "half_double")
        cache.clear()
        entry, hit = cache.materialize("plan-a", "half_double")
        assert not hit
        assert entry.forward is not first.forward

    def test_adjoint_built_once_equals_transpose_plan(self, store):
        cache = PlanMatrixCache(store, capacity=4)
        entry, _ = cache.materialize("plan-a", "half_double")
        adjoint = entry.adjoint()
        assert entry.adjoint() is adjoint
        assert adjoint.n_shards == 1
        r = np.linspace(0.0, 1.0, entry.matrix.n_rows)
        reference = execute_transpose_plan(
            compile_transpose_plan(entry.matrix), r
        )
        assert np.array_equal(adjoint.evaluate(r).doses, reference)
