"""The linear-time accounting half prices exactly what the sort-based one did.

``gather_traffic``/``scatter_traffic`` count a footprint with a bincount
instead of ``np.unique``, ``warp_work`` counts idle lanes in closed form,
and CSR kernels price from the matrix's structure summary
(``CSRMatrix.structure``).  The modeled clock must not move: the
reference formulas below are the sort-based ones, computed from the raw
arrays, and every counter field and modeled time is compared with ``==``
against them, down to whole kernels on every registered kernel, matrix
shape and device.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import convert_for_kernel
from repro.gpu.device import A100, CPU_I9_7940X, GPU_DEVICES, P100, V100
from repro.gpu.executor import WarpWork, warp_work
from repro.gpu.memory import (
    GatherTraffic,
    ScatterTraffic,
    gather_traffic,
    scatter_traffic,
)
from repro.gpu.timing import WorkloadProfile
from repro.kernels import (
    baseline,
    csr_scalar,
    csr_vector,
    cusparse_model,
    format_kernels,
    ginkgo_model,
)
from repro.kernels.batched import run_multi_spmv
from repro.kernels.csr_vector import VectorCSRKernel
from repro.kernels.dispatch import kernel_names, make_kernel
from repro.sparse.csr import CSRMatrix, CSRStructure
from repro.util.errors import ReproError, ShapeError
from repro.workloads import generate_robust_ensemble

#: an L2 of two sectors, so even tiny footprints take the refetch branch.
SMALL_L2 = dataclasses.replace(A100, name="small-l2", l2_bytes=64)
#: the paper's GPUs, plus the CPU the clinical kernel runs on.
DEVICES = GPU_DEVICES + (CPU_I9_7940X,)


# --------------------------------------------------------------------- #
# The sort-based formulas, as the accounting half computed them before.
# --------------------------------------------------------------------- #


def reference_gather_traffic(
    indices, elem_bytes, vector_length, device, accesses=None
):
    sector = device.sector_bytes
    idx = np.asarray(indices)
    n_accesses = int(accesses if accesses is not None else idx.size)
    if idx.size == 0 or vector_length == 0:
        return GatherTraffic(0, 0, 0)
    touched_sectors = np.unique(idx.astype(np.int64) * elem_bytes // sector)
    footprint = int(touched_sectors.size) * sector
    l2_bytes = n_accesses * elem_bytes
    capacity = device.l2_bytes
    if footprint <= capacity:
        return GatherTraffic(footprint, 0, l2_bytes)
    miss_rate = 1.0 - capacity / footprint
    refetch = int(miss_rate * n_accesses) * sector
    return GatherTraffic(footprint, refetch, l2_bytes)


def reference_scatter_traffic(
    indices, elem_bytes, vector_length, device, accesses=None,
    read_modify_write=False,
):
    sector = device.sector_bytes
    idx = np.asarray(indices)
    n_accesses = int(accesses if accesses is not None else idx.size)
    if idx.size == 0:
        return ScatterTraffic(0, 0)
    touched_sectors = np.unique(idx.astype(np.int64) * elem_bytes // sector)
    footprint = int(touched_sectors.size) * sector
    per_access = elem_bytes * (2 if read_modify_write else 1)
    l2_bytes = n_accesses * per_access
    dram = footprint
    if footprint > device.l2_bytes:
        miss_rate = 1.0 - device.l2_bytes / footprint
        dram += int(miss_rate * n_accesses) * sector
    return ScatterTraffic(dram, l2_bytes)


def reference_warp_work(matrix, warp_size=32):
    lengths = matrix.row_lengths().astype(np.int64)
    iterations = int(np.sum((lengths + warp_size - 1) // warp_size))
    remainder = lengths % warp_size
    idle = int(
        np.sum(np.where(lengths > 0, (warp_size - remainder) % warp_size, 0))
    )
    return WarpWork(
        iterations=iterations, idle_lane_slots=idle, n_warps=matrix.n_rows
    )


def reference_workload_profile(matrix):
    lengths = matrix.row_lengths().astype(np.float64)
    nonempty = lengths[lengths > 0]
    if nonempty.size == 0:
        return WorkloadProfile(avg_row_len=0.0, rowlen_cv=0.0)
    mean = float(nonempty.mean())
    std = float(nonempty.std())
    return WorkloadProfile(
        avg_row_len=mean, rowlen_cv=std / mean if mean else 0.0
    )


def reference_csr_gather_traffic(matrix, elem_bytes, device):
    return reference_gather_traffic(
        matrix.indices, elem_bytes, matrix.n_cols, device
    )


def reference_structure(indices, indptr, n_cols):
    """Every quantity of the structure summary, by sorting the raw arrays."""
    lengths = np.diff(indptr).astype(np.int64)
    values, rows_per_value = np.unique(lengths, return_counts=True)
    counts = np.zeros(int(lengths.max(initial=0)) + 1, np.int64)
    counts[values] = rows_per_value
    nonempty = lengths[lengths > 0].astype(np.float64)
    return CSRStructure(
        row_length_counts=counts,
        n_nonempty_rows=int(np.count_nonzero(lengths)),
        mean_row_length=float(nonempty.mean()) if nonempty.size else 0.0,
        std_row_length=float(nonempty.std()) if nonempty.size else 0.0,
        touched_columns=np.unique(np.asarray(indices, np.int64)),
    )


#: the references each kernel's pricing runs, by kernel class.
_CSR_WARP_PER_ROW = {
    "structure", "warp_work", "workload_profile", "csr_gather_traffic",
}
REFERENCES_RUN = {
    "VectorCSRKernel": _CSR_WARP_PER_ROW,
    "CuSparseLikeKernel": _CSR_WARP_PER_ROW,
    "GinkgoLikeKernel": _CSR_WARP_PER_ROW,
    "ScalarCSRKernel": {"workload_profile", "csr_gather_traffic"},
    "ELLPACKKernel": {"gather_traffic"},
    "SellCSigmaKernel": {"gather_traffic"},
    "GPUBaselineKernel": {"scatter_traffic"},
    "CPURayStationKernel": set(),
}


def use_reference_accounting(monkeypatch):
    """Route every kernel module's accounting through the references.

    Returns a counter of the references' calls by name.
    """
    ran = Counter()

    def counted(name, reference):
        def call(*args, **kwargs):
            ran[name] += 1
            return reference(*args, **kwargs)
        return call

    monkeypatch.setattr(
        CSRStructure, "of",
        staticmethod(counted("structure", reference_structure)),
    )
    monkeypatch.setattr(csr_vector, "warp_work",
                        counted("warp_work", reference_warp_work))
    for module in (csr_vector, csr_scalar, cusparse_model, ginkgo_model):
        monkeypatch.setattr(
            module, "workload_profile",
            counted("workload_profile", reference_workload_profile),
        )
    for module in (csr_vector, csr_scalar):
        monkeypatch.setattr(
            module, "csr_gather_traffic",
            counted("csr_gather_traffic", reference_csr_gather_traffic),
        )
    monkeypatch.setattr(format_kernels, "gather_traffic",
                        counted("gather_traffic", reference_gather_traffic))
    monkeypatch.setattr(baseline, "scatter_traffic",
                        counted("scatter_traffic", reference_scatter_traffic))
    return ran


def fields(record):
    """Every field of a traffic/work/counter record, typed as stored."""
    return [(f.name, getattr(record, f.name))
            for f in dataclasses.fields(record)]


# --------------------------------------------------------------------- #
# Footprints: property against the reference.
# --------------------------------------------------------------------- #


@st.composite
def accesses_case(draw):
    """(indices, elem_bytes, vector_length, accesses, device)."""
    elem_bytes = draw(st.sampled_from([2, 4, 8]))
    dtype = draw(st.sampled_from([np.int32, np.int64, np.uint16]))
    vector_length = draw(st.integers(1, 400))
    in_range = st.integers(0, vector_length - 1)
    shape = draw(st.sampled_from(
        ["random", "empty", "all_duplicate", "single_sector", "every_element"]
    ))
    if shape == "empty":
        idx = []
    elif shape == "all_duplicate":
        idx = [draw(in_range)] * draw(st.integers(1, 40))
    elif shape == "single_sector":
        per_sector = 32 // elem_bytes
        first = draw(in_range) // per_sector * per_sector
        last = min(first + per_sector, vector_length) - 1
        idx = draw(st.lists(st.integers(first, last), min_size=1,
                            max_size=40))
    elif shape == "every_element":
        idx = list(draw(st.permutations(range(vector_length))))
        idx += draw(st.lists(in_range, max_size=40))
    else:
        idx = draw(st.lists(in_range, max_size=300))
    accesses = draw(st.none() | st.integers(0, 10**7))
    device = draw(st.sampled_from([A100, V100, P100, SMALL_L2]))
    return np.array(idx, dtype=dtype), elem_bytes, vector_length, accesses, \
        device


class TestFootprintMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(accesses_case())
    def test_gather_every_field(self, case):
        idx, elem_bytes, vector_length, accesses, device = case
        got = gather_traffic(idx, elem_bytes, vector_length, device, accesses)
        want = reference_gather_traffic(
            idx, elem_bytes, vector_length, device, accesses
        )
        assert fields(got) == fields(want)
        assert got.dram_bytes == want.dram_bytes

    @settings(max_examples=300, deadline=None)
    @given(accesses_case(), st.booleans())
    def test_scatter_every_field(self, case, rmw):
        idx, elem_bytes, vector_length, accesses, device = case
        got = scatter_traffic(idx, elem_bytes, vector_length, device,
                              accesses, read_modify_write=rmw)
        want = reference_scatter_traffic(
            idx, elem_bytes, vector_length, device, accesses, rmw
        )
        assert fields(got) == fields(want)

    def test_refetch_branch_is_exercised(self):
        idx = np.arange(64, dtype=np.int32)
        got = gather_traffic(idx, 8, 64, SMALL_L2)
        assert got.refetch_dram_bytes > 0
        assert got == reference_gather_traffic(idx, 8, 64, SMALL_L2)


class TestIndexRangeContract:
    @pytest.mark.parametrize("traffic", [gather_traffic, scatter_traffic])
    @pytest.mark.parametrize(
        "indices, bad, position",
        [([-1, 5], -1, 0), ([3, 1000], 1000, 1), ([2, 10, -4], 10, 1)],
    )
    def test_out_of_range_raises_shape_error(
        self, traffic, indices, bad, position
    ):
        with pytest.raises(ShapeError) as info:
            traffic(np.array(indices), 8, 10, A100)
        message = str(info.value)
        assert f"[{position}] = {bad}" in message
        assert "[0, 10)" in message

    @pytest.mark.parametrize("traffic", [gather_traffic, scatter_traffic])
    def test_unsigned_indices_checked_against_the_length(self, traffic):
        with pytest.raises(ShapeError, match=r"\[0, 10\)"):
            traffic(np.array([9, 10], np.uint16), 8, 10, A100)

    @pytest.mark.parametrize("traffic", [gather_traffic, scatter_traffic])
    def test_bounds_are_inclusive_exclusive(self, traffic):
        traffic(np.array([0, 9], np.int64), 8, 10, A100)  # no raise

    @pytest.mark.parametrize("traffic", [gather_traffic, scatter_traffic])
    def test_empty_indices_need_no_vector(self, traffic):
        assert traffic(np.array([], np.int64), 8, 0, A100).l2_bytes == 0


# --------------------------------------------------------------------- #
# Warp work: closed form against the reference.
# --------------------------------------------------------------------- #


def csr_with_row_lengths(lengths, n_cols=None):
    lengths = np.asarray(lengths, dtype=np.int64)
    n_cols = n_cols if n_cols is not None else int(lengths.max(initial=0)) + 1
    indices = np.concatenate(
        [np.arange(n, dtype=np.int32) for n in lengths]
        + [np.empty(0, np.int32)]
    )
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    data = np.ones(indices.size, np.float32)
    return CSRMatrix((lengths.size, n_cols), data, indices, indptr)


class TestWarpWorkMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.sampled_from([0, 1, 31, 32, 33, 64, 65]) | st.integers(0, 200),
        max_size=60,
    ), st.sampled_from([32, 16]))
    def test_every_field(self, lengths, warp_size):
        matrix = csr_with_row_lengths(lengths)
        got = warp_work(matrix, warp_size)
        want = reference_warp_work(matrix, warp_size)
        assert fields(got) == fields(want)

    def test_idle_lanes_by_hand(self):
        work = warp_work(csr_with_row_lengths([0, 1, 31, 32, 33, 64, 65]))
        assert work.iterations == 0 + 1 + 1 + 1 + 2 + 2 + 3
        assert work.idle_lane_slots == 0 + 31 + 1 + 0 + 31 + 0 + 31


# --------------------------------------------------------------------- #
# Whole kernels: differential against the references.
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def masters(tiny_liver_case):
    ensemble = generate_robust_ensemble(seed=0, preset="probe")
    n_cols = 12
    return {
        "liver1_tiny": tiny_liver_case.matrix,
        "robust_scenario_1": ensemble.scenarios[1].matrix,
        "all_empty_rows": CSRMatrix(
            (30, n_cols), np.empty(0, np.float32), np.empty(0, np.int32),
            np.zeros(31, np.int64),
        ),
        "zero_nnz_no_rows": CSRMatrix(
            (0, n_cols), np.empty(0, np.float32), np.empty(0, np.int32),
            np.zeros(1, np.int64),
        ),
    }


def fresh_copy(master):
    """``master`` with new arrays, so no structure summary carries over."""
    return CSRMatrix(master.shape, master.data.copy(), master.indices.copy(),
                     master.indptr.copy())


def priced(kernel_name, master):
    """Counters and modeled times of one kernel on a fresh copy of one
    matrix, by device, or the type of the error it rejects the matrix
    with.  One converted matrix is priced on every device in turn."""
    kernel = make_kernel(kernel_name)
    x = np.linspace(0.5, 1.5, master.n_cols)
    try:
        matrix = convert_for_kernel(fresh_copy(master), kernel_name)
    except (ReproError, ValueError) as exc:
        return {d.name: ("rejected", type(exc).__name__) for d in DEVICES}
    records = {}
    for device in DEVICES:
        try:
            result = kernel.run(matrix, x, device=device, rng=0)
        except (ReproError, ValueError) as exc:
            records[device.name] = ("rejected", type(exc).__name__)
            continue
        record = [fields(result.counters), result.timing.time_s]
        if isinstance(kernel, VectorCSRKernel):
            for batch in (1, 2, 8):
                record.append(
                    fields(kernel.multi_counters(matrix, device, batch))
                )
                record.append(
                    kernel.model_timing(matrix, device, batch=batch).time_s
                )
        records[device.name] = record
    return records


@pytest.mark.parametrize("kernel_name", kernel_names())
def test_kernel_pricing_equals_sort_based_pricing(
    kernel_name, masters, monkeypatch
):
    linear = {case: priced(kernel_name, master)
              for case, master in masters.items()}
    ran = use_reference_accounting(monkeypatch)
    for case, master in masters.items():
        assert linear[case] == priced(kernel_name, master), (
            kernel_name, case)
    # The reference leg ran every reference this kernel's pricing reads,
    # and nothing it priced came from a summary the linear leg built.
    assert set(ran) == REFERENCES_RUN[type(make_kernel(kernel_name)).__name__]
    # Liver 1 prices on all three GPUs (the clinical CPU kernel: the CPU).
    for case in ("liver1_tiny", "robust_scenario_1"):
        priced_on = {name for name, record in linear[case].items()
                     if record[0] != "rejected"}
        assert priced_on in (
            {d.name for d in GPU_DEVICES}, {CPU_I9_7940X.name}
        ), (case, priced_on)


def test_run_multi_spmv_sorts_nothing(tiny_liver_case, monkeypatch):
    kernel = make_kernel("half_double")
    matrix = convert_for_kernel(tiny_liver_case.matrix, "half_double")
    plan = kernel.prepare_plan(matrix)
    weights = [np.full(matrix.n_cols, 1.0 + b) for b in range(3)]

    def no_sort(*args, **kwargs):
        raise AssertionError("numpy.unique called while pricing a batch")

    monkeypatch.setattr(np, "unique", no_sort)
    result = run_multi_spmv(kernel, matrix, weights, device=A100, plan=plan)
    assert result.batched_time_s > 0
    assert len(result.per_vector) == 3


def test_pricing_a_matrix_again_counts_nothing(tiny_liver_case, monkeypatch):
    kernel = make_kernel("half_double")
    matrix = convert_for_kernel(tiny_liver_case.matrix, "half_double")
    plan = kernel.prepare_plan(matrix)
    weights = [np.full(matrix.n_cols, 1.0 + b) for b in range(3)]
    first = run_multi_spmv(kernel, matrix, weights, device=A100, plan=plan)

    def no_count(*args, **kwargs):
        raise AssertionError("numpy.bincount called while pricing again")

    monkeypatch.setattr(np, "bincount", no_count)
    again = run_multi_spmv(kernel, matrix, weights, device=A100, plan=plan)
    assert again.batched_time_s == first.batched_time_s
    assert kernel.model_timing(matrix, V100, batch=4).time_s > 0
    assert kernel.run(matrix, weights[0], device=P100).timing.time_s > 0
