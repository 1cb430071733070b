"""Compiled plans reproduce the per-call kernels byte for byte.

``np.testing.assert_array_equal`` treats -0.0 == +0.0 and NaN == NaN, so
it cannot see a sign-of-zero or NaN change.  These tests compare raw
bytes instead.  The matrices stress the lane layout: zero nnz, all-empty
rows, and row lengths on both sides of every lane width (1, 2, 4, 8, 16,
32) and of two warps.  The weights stress the +0.0 argument: NaN, ±inf,
-0.0 and subnormals.  Every executor is checked against the per-call
exact kernel: single and batched plans, fused sharded plans of 1-3
slices, the sharded evaluator, and the adjoint's transpose plan.

One thing is not compared: which NaN comes out when two different NaNs
meet in one add.  IEEE 754 leaves that choice open, and NumPy's SIMD
loops make it by array length and layout, not by operand order (a
positive and a negative NaN can sum to either).  With ±inf weights,
``inf * 0`` makes the negative default NaN next to the weights' positive
one, so those cases compare bytes with every NaN made the same NaN.
Without infinities every NaN is the weights' own, and the bytes are
compared as they are.
"""

import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.batched as batched_module
from repro.dist.evaluator import ShardedEvaluator
from repro.gpu.device import A100, V100
from repro.kernels.batched import run_multi_spmv
from repro.kernels.csr_scalar import ScalarCSRKernel, scalar_csr_spmv_exact
from repro.kernels.csr_vector import (
    HalfDoubleKernel,
    SingleKernel,
    warp_csr_spmv_exact,
)
from repro.kernels.dispatch import make_kernel
from repro.kernels.plan import (
    LANE_WIDTHS,
    cast_weights,
    compile_plan,
    compile_sharded_plan,
    compile_transpose_plan,
    execute_plan,
    execute_plan_into,
    execute_plan_multi,
    execute_plan_multi_into,
    execute_sharded_plan,
    execute_sharded_plan_multi,
    execute_transpose_plan,
)
from repro.sparse.csr import CSRMatrix, CSRStructure
from repro.sparse.partition import extract_row_block, partition_rows_balanced
from repro.util.errors import DTypeError, ShapeError
from tests.conftest import make_random_csr

#: kernel name -> (factory, value dtype, index dtype, per-call exact kernel)
KERNELS = {
    "half_double": (HalfDoubleKernel, np.float16, np.int32,
                    warp_csr_spmv_exact),
    "half_double_u16": (partial(make_kernel, "half_double_u16"), np.float16,
                        np.uint16, warp_csr_spmv_exact),
    "single": (SingleKernel, np.float32, np.int32, warp_csr_spmv_exact),
    "scalar": (ScalarCSRKernel, np.float32, np.int32, scalar_csr_spmv_exact),
}

#: row lengths on both sides of every lane width and of two warps.
ROW_LENGTHS = (0, 1, 2, 3, 4, 5, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65)

#: weights that an inexact padding scheme would leak into a padded lane
#: or whose sign an equality check cannot see; 1e-45 and 5e-324 are the
#: smallest float32 and float64 subnormals.
FINITE_OR_NAN = (np.nan, -0.0, 0.0, 5e-324, -1e-310, 1e-45, -3e-39)
WITH_INFINITIES = FINITE_OR_NAN + (np.inf, -np.inf)


def _matrix(rng, lengths, n_cols, dtype, index_dtype=np.int32):
    """CSR with the given row lengths, random (repeatable) columns and
    values that include stored +0.0 and -0.0."""
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    nnz = int(indptr[-1])
    indices = rng.integers(0, n_cols, size=nnz).astype(index_dtype)
    data = rng.normal(size=nnz) * 10.0 ** rng.integers(-3, 3, size=nnz)
    zeros = rng.random(nnz) < 0.05
    data[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    return CSRMatrix((len(lengths), n_cols), data.astype(dtype), indices,
                     indptr)


def _weights(rng, n_cols, batch, special_fraction, specials):
    """``batch`` weight vectors, a fraction of entries drawn from
    ``specials``."""
    vectors = []
    for _ in range(batch):
        w = rng.normal(size=n_cols) * 10.0 ** rng.integers(-2, 3, size=n_cols)
        special = rng.random(n_cols) < special_fraction
        w[special] = rng.choice(specials, size=int(special.sum()))
        vectors.append(w)
    return vectors


def _bits(a, dtype, same_nan=False):
    a = np.ascontiguousarray(a, dtype=dtype)
    if same_nan:
        a = np.where(np.isnan(a), np.dtype(dtype).type(np.nan), a)
    return a.tobytes()


def _assert_bits(got, want, dtype, what, same_nan=False):
    assert _bits(got, dtype, same_nan) == _bits(want, dtype, same_nan), what


# inf - inf and 0 * inf are the point of the special weights.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestBytewiseProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        kernel_name=st.sampled_from(sorted(KERNELS)),
        lengths=st.lists(st.sampled_from(ROW_LENGTHS), min_size=1,
                         max_size=9),
        n_cols=st.integers(min_value=1, max_value=70),
        batch=st.integers(min_value=1, max_value=9),
        n_slices=st.integers(min_value=1, max_value=3),
        special_fraction=st.sampled_from((0.0, 0.1, 0.5)),
        infinities=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_every_executor_matches_the_per_call_kernel(
        self, kernel_name, lengths, n_cols, batch, n_slices,
        special_fraction, infinities, seed,
    ):
        factory, dtype, index_dtype, exact = KERNELS[kernel_name]
        kernel = factory()
        accum = kernel.precision.accumulate.dtype
        rng = np.random.default_rng(seed)
        matrix = _matrix(rng, lengths, n_cols, dtype, index_dtype)
        specials = WITH_INFINITIES if infinities else FINITE_OR_NAN
        vectors = _weights(rng, n_cols, batch, special_fraction, specials)
        want = [exact(matrix, w, accum) for w in vectors]
        n_slices = min(n_slices, matrix.n_rows)

        plan = compile_plan(matrix, kernel.plan_family, accum)
        doses = execute_plan_multi(plan, vectors)
        partition = partition_rows_balanced(matrix, n_slices)
        splan = compile_sharded_plan(
            matrix,
            [
                (start, end, extract_row_block(matrix, start, end))
                for start, end in map(partition.part, range(n_slices))
            ],
            kernel.plan_family,
            accum,
        )
        sharded = execute_sharded_plan_multi(splan, vectors)
        # The nnz-balanced cut above may leave a slice without rows; the
        # evaluator's timing model prices rows, so cut it by rows.
        evaluator = ShardedEvaluator(matrix, kernel, n_slices,
                                     shard_policy="equal_rows")
        evaluated = evaluator.evaluate_multi(vectors).doses
        checks = (
            ("execute_plan", accum, lambda b, w: execute_plan(plan, w)),
            ("execute_plan_multi", accum, lambda b, w: doses[:, b]),
            ("execute_sharded_plan", np.float64,
             lambda b, w: execute_sharded_plan(splan, w)),
            ("execute_sharded_plan_multi", np.float64,
             lambda b, w: sharded[:, b]),
            ("ShardedEvaluator.evaluate", np.float64,
             lambda b, w: evaluator.evaluate(w).doses),
            ("ShardedEvaluator.evaluate_multi", np.float64,
             lambda b, w: evaluated[:, b]),
        )
        for b, w in enumerate(vectors):
            for name, out_dtype, result in checks:
                _assert_bits(result(b, w), want[b], out_dtype,
                             f"{name}, vector {b}", same_nan=infinities)

        # The adjoint: A^T @ r through the transpose plan, against the
        # per-call kernel on the explicit transpose.
        tplan = compile_transpose_plan(matrix, kernel.plan_family, accum)
        transposed = matrix.transposed()
        for b, r in enumerate(
            _weights(rng, matrix.n_rows, batch, special_fraction, specials)
        ):
            _assert_bits(execute_transpose_plan(tplan, r),
                         exact(transposed, r, accum), accum,
                         f"execute_transpose_plan, residual {b}",
                         same_nan=infinities)

    def test_zero_nnz_and_signed_zero_rows(self):
        # A row of stored -0.0 values sums to +0.0 in the kernel (lane
        # accumulators start at +0.0); an all-empty matrix stays +0.0.
        matrix = CSRMatrix(
            (3, 4),
            np.array([-0.0, -0.0], dtype=np.float16),
            np.array([0, 3], dtype=np.int32),
            np.array([0, 2, 2, 2]),
        )
        empty = CSRMatrix((2, 4), np.zeros(0, np.float16),
                          np.zeros(0, np.int32), np.zeros(3, np.int64))
        w = np.array([1.0, np.nan, np.inf, 2.0])
        for m in (matrix, empty):
            plan = compile_plan(m, "vector", np.float64)
            want = warp_csr_spmv_exact(m, w, np.float64)
            _assert_bits(execute_plan(plan, w), want, np.float64, "single")
            _assert_bits(execute_plan_multi(plan, [w, -w])[:, 0], want,
                         np.float64, "multi")


class TestCompactLayout:
    def test_lanes_hold_each_row_in_warp_order(self, rng):
        m = _matrix(rng, [5, 0, 40, 1, 3, 17, 0, 64, 2, 9, 16, 33, 200, 6,
                          2, 1, 32], 20, np.float16)
        plan = compile_plan(m, "vector", np.float64)
        lengths = m.row_lengths()
        widths = [min(32, 1 << (int(n) - 1).bit_length())
                  for n in lengths[plan.rows]]
        # Groups run narrowest first, rows ascending within each group.
        assert [w for w, _ in plan.lane_groups] == sorted(set(widths))
        assert widths == sorted(widths)
        assert sorted(plan.rows.tolist()) == np.flatnonzero(lengths).tolist()
        for w, count in plan.lane_groups:
            assert w in LANE_WIDTHS
            group_rows = [r for r, rw in zip(plan.rows, widths) if rw == w]
            assert len(group_rows) == count and group_rows == sorted(group_rows)
        lanes = plan.operator
        assert lanes.indices.dtype == lanes.indptr.dtype == np.int32
        assert lanes.data.dtype == np.float64
        assert lanes.shape == (sum(widths), m.n_cols)
        # Lane-major: virtual row ``group start + l * rows + r`` holds the
        # group's r-th row's elements l, l + 32, ... in order.
        group_start = first_row = 0
        for w, count in plan.lane_groups:
            for r in range(count):
                row = plan.rows[first_row + r]
                start, end = m.indptr[row], m.indptr[row + 1]
                for lane in range(w):
                    v = group_start + lane * count + r
                    got = slice(lanes.indptr[v], lanes.indptr[v + 1])
                    want = slice(start + lane, end, 32)
                    assert lanes.indices[got].tolist() == (
                        m.indices[want].tolist())
                    assert _bits(lanes.data[got], np.float64) == _bits(
                        m.data[want], np.float64)
            group_start += w * count
            first_row += count
        assert group_start == lanes.shape[0]
        assert lanes.indptr[-1] == m.nnz
        for arr in (plan.rows, lanes.data, lanes.indices, lanes.indptr):
            assert not arr.flags.writeable

    def test_cast_weights_is_batch_minor_and_contiguous(self):
        w = np.array([-1.0, np.nan, -0.0])
        xa = cast_weights(w, np.float32)
        assert xa.shape == (3,) and xa.dtype == np.float32
        assert _bits(xa, np.float32) == _bits(w, np.float32)
        block = cast_weights([w, w], np.float64)
        assert block.shape == (3, 2) and block.flags.c_contiguous
        assert _bits(block[:, 1], np.float64) == _bits(w, np.float64)
        stacked = cast_weights(np.stack([w, w], axis=1), np.float64)
        assert stacked.flags.c_contiguous
        assert _bits(stacked, np.float64) == _bits(block, np.float64)

    def test_into_executors_reject_a_wrong_dtype_or_shape(self, rng):
        m = make_random_csr(rng, n_rows=10, n_cols=8).astype(np.float16)
        plan = compile_plan(m, "vector", np.float64)
        scalar = compile_plan(m.astype(np.float32), "scalar", np.float32)
        # A float64 operand would make a float32 plan accumulate in float64.
        with pytest.raises(DTypeError):
            execute_plan_into(scalar, np.ones(8), np.zeros(10))
        with pytest.raises(DTypeError):
            execute_plan_multi_into(scalar, np.ones((8, 2)), np.zeros((10, 2)))
        with pytest.raises(DTypeError):
            execute_plan_into(plan, np.ones(8, np.float32), np.zeros(10))
        with pytest.raises(ShapeError):
            execute_plan_into(plan, np.ones(9), np.zeros(10))
        with pytest.raises(ShapeError):
            execute_plan_into(plan, np.ones((8, 1)), np.zeros(10))
        with pytest.raises(ShapeError):
            execute_plan_multi_into(plan, np.ones((9, 2)), np.zeros((10, 2)))
        with pytest.raises(ShapeError):
            execute_plan_multi_into(plan, np.ones(8), np.zeros((10, 1)))

    def test_index_dtype_widens_past_int32(self):
        limit = np.iinfo(np.int32).max

        def one_element(n_cols):
            return CSRMatrix((1, n_cols), np.ones(1, np.float16),
                             np.array([n_cols - 1], np.int64),
                             np.array([0, 1], np.int64))

        wide = compile_plan(one_element(limit + 1), "vector", np.float64)
        assert wide.operator.indices.dtype == np.int64
        assert wide.operator.indptr.dtype == np.int64
        fits = compile_plan(one_element(limit), "vector", np.float64)
        assert fits.operator.indices.dtype == np.int32
        assert fits.operator.indptr.dtype == np.int32
        assert fits.nnz == 1


class TestExecutorMemory:
    """The butterfly runs in place on the product's output: an execute
    allocates the lane sums, the output and the cast operand, and no
    temporary of a lane group's size."""

    SLACK = 64 * 1024

    @pytest.fixture
    def plan(self, rng):
        # Row lengths 0-199: most rows fill the 32-lane group.
        m = _matrix(rng, rng.integers(0, 200, size=2000), 300, np.float16)
        plan = compile_plan(m, "vector", np.float64)
        assert plan.lane_groups[-1][0] == 32
        assert plan.lane_groups[-1][1] > 0.8 * m.n_rows
        return plan

    def peak_bytes(self, call):
        call()  # first-call allocations are not the executor's
        tracemalloc.start()
        try:
            result = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, result

    def test_batched_execute_peaks_at_its_lane_sums_and_output(self, rng,
                                                               plan):
        batch = 8
        weights = np.ascontiguousarray(rng.random((plan.n_cols, batch)))
        peak, doses = self.peak_bytes(lambda: execute_plan_multi(plan, weights))
        item = np.dtype(plan.accum_dtype).itemsize
        lane_sums = plan.operator.shape[0] * batch * item
        assert peak <= (lane_sums + doses.nbytes + weights.nbytes
                        + self.SLACK), peak / (lane_sums + doses.nbytes)

    def test_single_execute_peaks_at_its_lane_sums_and_output(self, rng,
                                                              plan):
        x = rng.random(plan.n_cols)
        peak, y = self.peak_bytes(lambda: execute_plan(plan, x))
        lane_sums = plan.operator.shape[0] * np.dtype(plan.accum_dtype).itemsize
        assert peak <= lane_sums + y.nbytes + x.nbytes + self.SLACK, (
            peak / (lane_sums + y.nbytes))


class TestWorkDoneOnce:
    def test_multi_counters_prices_the_gather_once(self, rng, monkeypatch):
        # Once per matrix: the one pass over the column indices is the
        # structure summary's, and no later pricing makes another.
        m = make_random_csr(rng, n_rows=60, n_cols=30).astype(np.float16)
        kernel = HalfDoubleKernel()
        calls = []
        original = CSRStructure.of

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(CSRStructure, "of", staticmethod(counting))
        first = kernel.multi_counters(m, A100, 1)
        assert len(calls) == 1
        for batch in (1, 2, 8):
            kernel.multi_counters(m, A100, batch)
        kernel.run(m, 0.5 + rng.random(30))
        kernel.model_timing(m, A100, batch=4)
        kernel.multi_counters(m, V100, 8)
        assert len(calls) == 1
        assert kernel.multi_counters(m, A100, 1) == first

    def test_spmm_receives_every_vector_but_the_first(self, rng,
                                                      monkeypatch):
        m = make_random_csr(rng, n_rows=60, n_cols=30).astype(np.float16)
        kernel = HalfDoubleKernel()
        received = []
        original = batched_module.execute_plan_multi

        def recording(plan, weights):
            received.append(len(weights))
            return original(plan, weights)

        monkeypatch.setattr(batched_module, "execute_plan_multi", recording)
        for batch in (1, 2, 5):
            received.clear()
            vectors = [0.5 + rng.random(30) for _ in range(batch)]
            result = run_multi_spmv(kernel, m, vectors)
            assert received == ([batch - 1] if batch > 1 else [])
            for dose, w in zip(result.doses, vectors):
                _assert_bits(dose, kernel.run(m, w).y, np.float64, "dose")
