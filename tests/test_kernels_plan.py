"""Compiled execution plans: bitwise equality, edge cases, cache, SpMM."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.batched import run_multi_spmv
from repro.kernels.csr_scalar import ScalarCSRKernel, scalar_csr_spmv_exact
from repro.kernels.csr_vector import (
    HalfDoubleKernel,
    SingleKernel,
    warp_csr_spmv_exact,
)
from repro.kernels.plan import (
    PlanCache,
    clear_plan_cache,
    compile_plan,
    compile_transpose_plan,
    execute_plan,
    execute_plan_multi,
    execute_transpose_plan,
    get_plan_cache,
)
from repro.obs.metrics import get_registry
from repro.sparse.csr import CSRMatrix
from repro.util.errors import DTypeError, PlanMismatchError, ShapeError
from tests.conftest import make_random_csr


def _weights(rng, n_cols, batch=1):
    w = 0.5 + rng.random((n_cols, batch))
    return [w[:, b] for b in range(batch)]


def _counter(name: str) -> float:
    state = get_registry().snapshot().get(name)
    return state["value"] if state else 0.0


class TestBitwiseEquality:
    def test_vector_plan_matches_per_call(self, rng):
        m = make_random_csr(rng, n_rows=120, n_cols=64).astype(np.float16)
        [w] = _weights(rng, 64)
        plan = compile_plan(m, "vector", np.float64)
        np.testing.assert_array_equal(
            execute_plan(plan, w), warp_csr_spmv_exact(m, w, np.float64)
        )

    def test_scalar_plan_matches_per_call(self, rng):
        m = make_random_csr(rng, n_rows=80, n_cols=40)
        [w] = _weights(rng, 40)
        plan = compile_plan(m, "scalar", np.float32)
        np.testing.assert_array_equal(
            execute_plan(plan, w), scalar_csr_spmv_exact(m, w, np.float32)
        )

    def test_heavy_tail_bitwise(self, heavy_tail_csr, rng):
        m = heavy_tail_csr.astype(np.float16)
        [w] = _weights(rng, m.n_cols)
        plan = compile_plan(m, "vector", np.float64)
        np.testing.assert_array_equal(
            execute_plan(plan, w), warp_csr_spmv_exact(m, w, np.float64)
        )

    def test_kernel_run_with_plan_bitwise(self, rng):
        m = make_random_csr(rng, n_rows=90, n_cols=48).astype(np.float16)
        [w] = _weights(rng, 48)
        kernel = HalfDoubleKernel()
        plan = kernel.prepare_plan(m)
        np.testing.assert_array_equal(
            kernel.run(m, w, plan=plan).y, kernel.run(m, w).y
        )


class TestEdgeCases:
    def test_all_rows_empty(self, rng):
        m = CSRMatrix.from_dense(np.zeros((17, 9)), value_dtype=np.float16)
        plan = compile_plan(m, "vector", np.float64)
        assert plan.lane_groups == ()
        assert plan.rows.size == 0 and plan.operator.shape == (0, 9)
        [w] = _weights(rng, 9)
        np.testing.assert_array_equal(execute_plan(plan, w), np.zeros(17))
        doses = execute_plan_multi(plan, _weights(rng, 9, batch=3))
        np.testing.assert_array_equal(doses, np.zeros((17, 3)))

    def test_empty_rows_stay_zero(self, rng):
        m = make_random_csr(
            rng, n_rows=50, n_cols=20, empty_row_fraction=0.7
        ).astype(np.float16)
        [w] = _weights(rng, 20)
        plan = compile_plan(m, "vector", np.float64)
        y = execute_plan(plan, w)
        empty = m.row_lengths() == 0
        assert empty.any()
        np.testing.assert_array_equal(y[empty], 0.0)
        np.testing.assert_array_equal(y, warp_csr_spmv_exact(m, w, np.float64))

    def test_single_row_longer_than_many_chunks(self, rng):
        # One dense row of 200 elements: ceil(200/32) = 7 warp iterations,
        # so lanes 0-7 add 7 elements each and lanes 8-31 add 6.
        n_cols = 200
        dense = np.zeros((3, n_cols))
        dense[1, :] = 0.1 + rng.random(n_cols)
        m = CSRMatrix.from_dense(dense, value_dtype=np.float16)
        plan = compile_plan(m, "vector", np.float64)
        assert plan.lane_groups == ((32, 1),)
        assert plan.rows.tolist() == [1]
        lanes = plan.operator
        assert np.diff(lanes.indptr).tolist() == [7] * 8 + [6] * 24
        for lane in range(32):
            stored = lanes.indices[lanes.indptr[lane]:lanes.indptr[lane + 1]]
            assert stored.tolist() == list(range(lane, n_cols, 32))
        [w] = _weights(rng, n_cols)
        np.testing.assert_array_equal(
            execute_plan(plan, w), warp_csr_spmv_exact(m, w, np.float64)
        )
        vectors = _weights(rng, n_cols, batch=2)
        doses = execute_plan_multi(plan, vectors)
        for b, wv in enumerate(vectors):
            np.testing.assert_array_equal(
                doses[:, b], warp_csr_spmv_exact(m, wv, np.float64)
            )

    def test_batch_of_one_degenerates_to_spmv(self, rng):
        m = make_random_csr(rng, n_rows=70, n_cols=33).astype(np.float16)
        [w] = _weights(rng, 33)
        plan = compile_plan(m, "vector", np.float64)
        doses = execute_plan_multi(plan, [w])
        assert doses.shape == (70, 1)
        np.testing.assert_array_equal(doses[:, 0], execute_plan(plan, w))

    def test_multi_accepts_2d_array(self, rng):
        m = make_random_csr(rng, n_rows=40, n_cols=16).astype(np.float16)
        plan = compile_plan(m, "vector", np.float64)
        cols = _weights(rng, 16, batch=3)
        stacked = np.stack(cols, axis=1)  # (n_cols, B)
        np.testing.assert_array_equal(
            execute_plan_multi(plan, stacked),
            execute_plan_multi(plan, cols),
        )

    def test_empty_batch_rejected(self, rng):
        m = make_random_csr(rng, n_rows=10, n_cols=8).astype(np.float16)
        plan = compile_plan(m, "vector", np.float64)
        with pytest.raises(ShapeError):
            execute_plan_multi(plan, [])

    def test_bad_vector_shape_named(self, rng):
        m = make_random_csr(rng, n_rows=10, n_cols=8).astype(np.float16)
        plan = compile_plan(m, "vector", np.float64)
        good = np.ones(8)
        with pytest.raises(ShapeError, match="vector 1"):
            execute_plan_multi(plan, [good, np.ones(9)])

    def test_unknown_family_rejected(self, rng):
        m = make_random_csr(rng)
        with pytest.raises(ValueError):
            compile_plan(m, "ellpack", np.float64)


class TestSpMMProperty:
    """Every column of the SpMM path is bitwise identical to a
    stand-alone kernel run, across precisions and batch sizes."""

    KERNELS = {
        "half_double": (HalfDoubleKernel, np.float16),
        "single": (SingleKernel, np.float32),
        "scalar": (ScalarCSRKernel, np.float32),
    }

    @settings(max_examples=20, deadline=None)
    @given(
        kernel_name=st.sampled_from(sorted(KERNELS)),
        batch=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_columns_bitwise_equal_standalone(self, kernel_name, batch, seed):
        factory, dtype = self.KERNELS[kernel_name]
        rng = np.random.default_rng(seed)
        m = make_random_csr(
            rng, n_rows=40, n_cols=24, density=0.4, value_dtype=dtype,
            empty_row_fraction=0.3,
        )
        kernel = factory()
        plan = kernel.prepare_plan(m)
        vectors = _weights(rng, 24, batch=batch)
        doses = execute_plan_multi(plan, vectors)
        assert doses.shape == (40, batch)
        for b, w in enumerate(vectors):
            standalone = kernel.run(m, w)
            np.testing.assert_array_equal(doses[:, b], standalone.y)


class TestImmutability:
    def test_plan_arrays_frozen(self, rng):
        m = make_random_csr(rng, n_rows=30, n_cols=12).astype(np.float16)
        plan = compile_plan(m, "vector", np.float64)
        scalar = compile_plan(m.astype(np.float32), "scalar", np.float32)
        for p, accum in ((plan, np.float64), (scalar, np.float32)):
            lanes = p.operator
            assert lanes.indices.dtype == lanes.indptr.dtype == np.int32
            assert lanes.data.dtype == accum
            for arr in (p.rows, lanes.data, lanes.indices, lanes.indptr):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 0


class TestPlanCache:
    def test_hit_and_miss_metrics(self, rng):
        clear_plan_cache()
        m = make_random_csr(rng, n_rows=25, n_cols=10).astype(np.float16)
        kernel = HalfDoubleKernel()
        miss0 = _counter("plan.cache.miss")
        hit0 = _counter("plan.cache.hit")
        p1 = kernel.prepare_plan(m)
        p2 = kernel.prepare_plan(m)
        assert p1 is p2
        assert _counter("plan.cache.miss") == miss0 + 1
        assert _counter("plan.cache.hit") == hit0 + 1

    def test_distinct_accum_dtypes_distinct_plans(self, rng):
        clear_plan_cache()
        m = make_random_csr(rng, n_rows=25, n_cols=10)
        cache = get_plan_cache()
        p32 = cache.get_or_compile(m, "vector", np.float32)
        p64 = cache.get_or_compile(m, "vector", np.float64)
        assert p32 is not p64
        assert len(cache) == 2

    def test_eviction(self, rng):
        cache = PlanCache(capacity=2)
        mats = [
            make_random_csr(rng, n_rows=12, n_cols=6) for _ in range(3)
        ]
        for m in mats:
            cache.get_or_compile(m, "vector", np.float64)
        assert len(cache) == 2
        # The oldest entry was evicted; asking again recompiles.
        p = cache.get_or_compile(mats[0], "vector", np.float64)
        assert p.matches(mats[0])

    def test_clear_plan_cache(self, rng):
        m = make_random_csr(rng, n_rows=12, n_cols=6).astype(np.float16)
        HalfDoubleKernel().prepare_plan(m)
        assert len(get_plan_cache()) >= 1
        clear_plan_cache()
        assert len(get_plan_cache()) == 0


class TestPlanValidation:
    def test_wrong_matrix_rejected(self, rng):
        m1 = make_random_csr(rng, n_rows=30, n_cols=12).astype(np.float16)
        m2 = make_random_csr(rng, n_rows=30, n_cols=12).astype(np.float16)
        kernel = HalfDoubleKernel()
        plan = kernel.prepare_plan(m1)
        with pytest.raises(PlanMismatchError):
            kernel.run(m2, np.ones(12), plan=plan)

    def test_wrong_family_rejected(self, rng):
        m = make_random_csr(rng, n_rows=30, n_cols=12)
        plan = compile_plan(m, "scalar", np.float32)
        with pytest.raises(PlanMismatchError):
            SingleKernel().run(m, np.ones(12), plan=plan)

    def test_wrong_accum_dtype_rejected(self, rng):
        m = make_random_csr(rng, n_rows=30, n_cols=12)
        plan = compile_plan(m, "vector", np.float32)
        with pytest.raises(PlanMismatchError):
            # half_double accumulates in float64, plan holds float32.
            HalfDoubleKernel().run(
                m.astype(np.float16), np.ones(12), plan=plan
            )


class TestRunMultiSpMMPath:
    def test_spmm_flag_and_amortization(self, rng):
        m = make_random_csr(rng, n_rows=60, n_cols=20).astype(np.float16)
        vectors = _weights(rng, 20, batch=4)
        result = run_multi_spmv(HalfDoubleKernel(), m, vectors)
        assert result.spmm
        assert result.amortization > 1.0
        for b, w in enumerate(vectors):
            standalone = HalfDoubleKernel().run(m, w)
            np.testing.assert_array_equal(result.doses[b], standalone.y)

    def test_explicit_plan_is_used(self, rng):
        m = make_random_csr(rng, n_rows=60, n_cols=20).astype(np.float16)
        kernel = HalfDoubleKernel()
        plan = kernel.prepare_plan(m)
        result = run_multi_spmv(kernel, m, _weights(rng, 20, batch=2),
                                plan=plan)
        assert result.spmm
        assert result.batch_size == 2


class TestTransposePlan:
    """The adjoint contract: A^T @ r through a compiled transpose plan
    is bitwise identical to the family kernel run on the explicitly
    transposed matrix, and numerically the exact adjoint of A."""

    def test_bitwise_vs_kernel_on_explicit_transpose(self, rng):
        m = make_random_csr(rng, n_rows=90, n_cols=40).astype(np.float16)
        r = 0.5 + rng.random(m.n_rows)
        tplan = compile_transpose_plan(m, "vector", np.float64)
        np.testing.assert_array_equal(
            execute_transpose_plan(tplan, r),
            warp_csr_spmv_exact(m.transposed(), r, np.float64),
        )

    def test_bitwise_vs_kernel_run(self, rng):
        m = make_random_csr(rng, n_rows=60, n_cols=30).astype(np.float16)
        r = rng.random(m.n_rows)
        kernel = HalfDoubleKernel()
        tplan = compile_transpose_plan(
            m, kernel.plan_family, kernel.precision.accumulate.dtype
        )
        np.testing.assert_array_equal(
            execute_transpose_plan(tplan, r),
            kernel.run(m.transposed(), r).y,
        )

    def test_numerically_the_adjoint(self, rng):
        # <A w, r> == <w, A^T r> up to float64 roundoff.
        m = make_random_csr(rng, n_rows=50, n_cols=22).astype(np.float16)
        w = rng.random(m.n_cols)
        r = rng.random(m.n_rows)
        plan = compile_plan(m, "vector", np.float64)
        tplan = compile_transpose_plan(m, "vector", np.float64)
        lhs = float(execute_plan(plan, w) @ r)
        rhs = float(w @ execute_transpose_plan(tplan, r))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_heavy_tail_bitwise(self, heavy_tail_csr, rng):
        m = heavy_tail_csr.astype(np.float16)
        r = rng.random(m.n_rows)
        tplan = compile_transpose_plan(m, "vector", np.float64)
        np.testing.assert_array_equal(
            execute_transpose_plan(tplan, r),
            warp_csr_spmv_exact(m.transposed(), r, np.float64),
        )

    def test_shapes_and_scalar_family(self, rng):
        m = make_random_csr(rng, n_rows=31, n_cols=13)
        tplan = compile_transpose_plan(m, "scalar", np.float32)
        assert tplan.n_rows == m.n_cols
        assert tplan.n_cols == m.n_rows
        r = rng.random(m.n_rows)
        np.testing.assert_array_equal(
            execute_transpose_plan(tplan, r),
            scalar_csr_spmv_exact(m.transposed(), r, np.float32),
        )

    def test_identity_anchors_source_matrix(self, rng):
        m1 = make_random_csr(rng, n_rows=20, n_cols=9).astype(np.float16)
        m2 = make_random_csr(rng, n_rows=20, n_cols=9).astype(np.float16)
        tplan = compile_transpose_plan(m1)
        assert tplan.matches(m1)
        assert not tplan.matches(m2)
        assert not tplan.matches(tplan.matrix)  # anchors name A, not A^T

    def test_wrong_residual_shape_rejected(self, rng):
        m = make_random_csr(rng, n_rows=20, n_cols=9).astype(np.float16)
        tplan = compile_transpose_plan(m)
        with pytest.raises(ShapeError):
            execute_transpose_plan(tplan, np.ones(m.n_cols))

    def test_non_csr_rejected(self):
        with pytest.raises(DTypeError):
            compile_transpose_plan(np.eye(4))

    def test_plan_arrays_frozen(self, rng):
        m = make_random_csr(rng, n_rows=20, n_cols=9).astype(np.float16)
        tplan = compile_transpose_plan(m)
        lanes = tplan.plan.operator
        for arr in (tplan.plan.rows, lanes.data, lanes.indices, lanes.indptr):
            assert not arr.flags.writeable
