"""The structure summary a CSR matrix is priced from, and the frozen
memory it rests on.

``CSRMatrix.structure`` is built the first time the matrix is priced and
held by the matrix.  Pricing from it must equal the sort-based pricing of
the raw arrays on every counter field and modeled second, on any
structure, device and batch width; eight threads pricing a fresh matrix
at once must agree; and no caller may change the arrays it derives from.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.device import A100, P100, V100
from repro.kernels.csr_scalar import ScalarCSRKernel
from repro.kernels.csr_vector import (
    HalfDoubleKernel,
    SingleKernel,
    warp_csr_spmv_exact,
)
from repro.kernels.plan import compile_plan, execute_plan
from repro.precision.types import SINGLE
import repro.sparse.csr as csr_module
from repro.sparse.csr import CSRMatrix
from repro.sparse.partition import extract_row_block
from repro.util.errors import ReproError
from tests.conftest import make_random_csr
from tests.test_gpu_accounting_exact import (
    SMALL_L2,
    fields,
    fresh_copy,
    use_reference_accounting,
)

#: the refetch branch needs SMALL_L2's two-sector L2.
DEVICES = (A100, V100, P100, SMALL_L2)
#: both sides of one and two warps, and the narrow lane widths.
ROW_LENGTHS = (0, 1, 2, 31, 32, 33, 63, 64, 65)


@st.composite
def csr_structures(draw):
    """A float32 CSR matrix of drawn row lengths and index dtype."""
    n_cols = draw(st.integers(1, 400))
    index_dtype = draw(st.sampled_from([np.uint16, np.int32, np.int64]))
    kind = draw(st.sampled_from(["mixed", "all_empty", "no_rows"]))
    if kind == "mixed":
        lengths = draw(st.lists(st.sampled_from(ROW_LENGTHS), min_size=1,
                                max_size=30))
    elif kind == "all_empty":
        lengths = [0] * draw(st.integers(1, 20))
    else:
        lengths = []
    # Columns drawn from a prefix of the vector: a narrow one shares
    # sectors, a wide one spreads over many.
    span = draw(st.integers(1, n_cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nnz = int(sum(lengths))
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    return CSRMatrix(
        (len(lengths), n_cols),
        (0.5 + rng.random(nnz)).astype(np.float32),
        rng.integers(0, span, nnz).astype(index_dtype),
        indptr,
    )


def rejected(exc):
    return ("rejected", type(exc).__name__)


def priced(master):
    """Every counter field and modeled second of the vector kernel (batch
    1, 2 and 8) and the scalar kernel on fresh copies of ``master``, one
    copy priced on every device in turn."""
    vector, scalar = HalfDoubleKernel(), ScalarCSRKernel(SINGLE)
    half, single = fresh_copy(master).astype(np.float16), fresh_copy(master)
    x = np.linspace(0.5, 1.5, master.n_cols)
    record = []
    for device in DEVICES:
        for kernel, matrix in ((vector, half), (scalar, single)):
            try:
                result = kernel.run(matrix, x, device=device)
                record.append((fields(result.counters), result.timing.time_s))
                record.append(kernel.model_timing(matrix, device).time_s)
            except ReproError as exc:
                record.append(rejected(exc))
        for batch in (1, 2, 8):
            try:
                record.append(fields(vector.multi_counters(half, device,
                                                           batch)))
                record.append(
                    vector.model_timing(half, device, batch=batch).time_s)
            except ReproError as exc:
                record.append(rejected(exc))
    return record


class TestPricingFromTheSummary:
    @settings(max_examples=120, deadline=None)
    @given(csr_structures())
    def test_equals_sort_based_pricing(self, master):
        linear = priced(master)
        with pytest.MonkeyPatch.context() as mp:
            use_reference_accounting(mp)
            assert linear == priced(master)

    def test_summary_by_hand(self):
        m = CSRMatrix(
            (4, 300),
            np.ones(98, np.float32),
            np.array([5, 5, 299] + [7] * 32 + [0] * 63, np.uint16),
            np.array([0, 3, 3, 35, 98]),
        )
        s = m.structure
        assert s.row_length_counts.tolist()[:4] == [1, 0, 0, 1]
        assert s.row_length_counts[32] == 1 and s.row_length_counts[63] == 1
        assert s.row_length_counts.sum() == m.n_rows
        assert s.n_nonempty_rows == 3
        assert s.mean_row_length == pytest.approx(98 / 3)
        assert s.touched_columns.tolist() == [0, 5, 7, 299]


class TestSummaryUnderThreads:
    def test_eight_threads_price_one_fresh_matrix(self, rng):
        master = make_random_csr(rng, n_rows=400, n_cols=90)
        matrix = fresh_copy(master).astype(np.float16)
        kernel = HalfDoubleKernel()
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads
        errors = []

        def price(slot):
            try:
                barrier.wait(timeout=10)
                results[slot] = (
                    fields(kernel.multi_counters(matrix, A100, 8)),
                    kernel.model_timing(matrix, V100, batch=8).time_s,
                )
            except Exception as exc:  # reported by the asserts below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=price, args=(i,))
                       for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        alone = fresh_copy(master).astype(np.float16)
        want = (fields(kernel.multi_counters(alone, A100, 8)),
                kernel.model_timing(alone, V100, batch=8).time_s)
        assert results == [want] * n_threads
        summary = matrix.structure
        assert matrix.structure is summary
        assert not summary.row_length_counts.flags.writeable
        assert not summary.touched_columns.flags.writeable
        with pytest.raises(ValueError):
            summary.touched_columns[0] = 1


class TestConstructionOwnsItsMemory:
    """Freezing a view leaves its base writeable; the constructor copies
    any array another owner can still write, so the matrix, its compiled
    plans and its summary cannot change under it."""

    def views(self):
        base_data = np.linspace(1.0, 2.0, 96).astype(np.float16)
        base_indices = np.arange(96, dtype=np.int32) % 32
        base_indptr = np.array([0, 40, 96], np.int64)
        matrix = CSRMatrix((2, 64), base_data[:], base_indices[:],
                           base_indptr[:])
        return matrix, (base_data, base_indices, base_indptr)

    def test_writing_the_bases_changes_nothing(self):
        matrix, (base_data, base_indices, base_indptr) = self.views()
        kept = [a.copy() for a in (matrix.data, matrix.indices,
                                   matrix.indptr)]
        kernel = HalfDoubleKernel()
        plan = compile_plan(matrix, "vector", np.float64)
        x = np.linspace(0.5, 1.5, 64)
        dose = execute_plan(plan, x)
        timing = kernel.model_timing(matrix, A100).time_s
        base_data[:] = 7.0
        base_indices[:] = np.arange(96) * 7 % 64
        base_indptr[1] = 10
        for got, want in zip((matrix.data, matrix.indices, matrix.indptr),
                             kept):
            np.testing.assert_array_equal(got, want)
        assert execute_plan(plan, x).tobytes() == dose.tobytes()
        assert warp_csr_spmv_exact(matrix, x, np.float64).tobytes() == (
            dose.tobytes())
        assert kernel.model_timing(matrix, A100).time_s == timing
        assert kernel.model_timing(fresh_copy(matrix), A100).time_s == timing

    def test_owned_and_frozen_memory_is_not_copied(self):
        data = np.ones(6, np.float32)
        indices = np.array([0, 1, 2, 3, 4, 5], np.int32)
        indptr = np.array([0, 2, 6], np.int64)
        for arr in (data, indices, indptr):
            arr.setflags(write=False)
        owned = CSRMatrix((2, 8), data, indices, indptr)
        assert owned.data is data and owned.indices is indices
        assert owned.indptr is indptr
        block = CSRMatrix((1, 8), owned.data[2:], owned.indices[2:],
                          np.array([0, 4], np.int64))
        assert np.shares_memory(block.indices, owned.indices)
        assert np.shares_memory(block.data, owned.data)

    def test_writeable_arrays_are_copied(self):
        arrays = (np.ones(6, np.float32), np.arange(6, dtype=np.int32),
                  np.array([0, 2, 6], np.int64))
        matrix = CSRMatrix((2, 8), *arrays)
        for got, given in zip((matrix.data, matrix.indices, matrix.indptr),
                              arrays):
            assert not np.shares_memory(got, given)
            assert not got.flags.writeable and given.flags.writeable

    def test_a_view_taken_before_construction_changes_nothing(self):
        a = np.array([0, 1, 2, 3], np.int32)
        early = a[:]
        matrix = CSRMatrix((1, 8), np.ones(4, np.float32), a,
                           np.array([0, 4]))
        kernel = SingleKernel()
        plan = compile_plan(matrix, "vector", np.float32)
        x = np.linspace(0.5, 1.5, 8)
        dose = execute_plan(plan, x)
        timing = kernel.model_timing(matrix, A100).time_s
        early[0] = 7
        assert matrix.indices.tolist() == [0, 1, 2, 3]
        assert execute_plan(plan, x).tobytes() == dose.tobytes()
        assert kernel.model_timing(matrix, A100).time_s == timing
        assert kernel.model_timing(fresh_copy(matrix), A100).time_s == timing

    def test_fresh_arrays_are_handed_over_without_a_copy(self, rng,
                                                         monkeypatch):
        matrix = make_random_csr(rng, n_rows=40, n_cols=30)
        kept = []
        original = csr_module._frozen_private

        def recording(arr):
            frozen = original(arr)
            kept.append(frozen is arr)
            return frozen

        monkeypatch.setattr(csr_module, "_frozen_private", recording)
        derived = [
            matrix.astype(np.float16),
            matrix.transposed(),
            matrix.with_index_dtype(np.uint16),
            matrix.sorted_indices(),
            CSRMatrix.from_dense(matrix.to_dense()),
            extract_row_block(matrix, 5, 31),
        ]
        assert kept == [True] * 3 * len(derived)
        for m in derived:
            for arr in (m.data, m.indices, m.indptr):
                assert arr.base is None and not arr.flags.writeable

    def test_astype_allocates_each_array_once(self, rng):
        matrix = make_random_csr(rng, n_rows=2000, n_cols=300, density=0.3)
        matrix.astype(np.float16)
        tracemalloc.start()
        try:
            converted = matrix.astype(np.float16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        made = converted.nbytes()
        assert converted.indices.nbytes > 64 * 1024
        assert peak <= made + 64 * 1024, peak / made

    def test_view_of_writeable_memory_is_copied(self):
        matrix, (base_data, base_indices, base_indptr) = self.views()
        for got, base in zip((matrix.data, matrix.indices, matrix.indptr),
                             (base_data, base_indices, base_indptr)):
            assert not np.shares_memory(got, base)
            assert not got.flags.writeable
            assert base.flags.writeable
