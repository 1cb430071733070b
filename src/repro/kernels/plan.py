"""Precompiled, immutable SpMV execution plans and the batched SpMM path.

The paper's workload evaluates ``d = A @ w`` thousands of times per
optimization against a *fixed* deposition matrix, yet the per-call
functional kernels re-derive everything that depends only on ``A`` on
every evaluation.  An :class:`SpMVPlan` hoists that into a one-time
compile (the structure-exploiting preprocessing Ginkgo and cuSPARSE
apply on ``Analysis``/``apply`` splits).

A plan stores the warp kernel's summation order as data (DESIGN.md §16).
Lane ``l`` of row ``r`` adds the row's elements ``l, l + 32, ...`` from
``+0.0``; each such lane is a *virtual row* of one lane-expanded CSR
operator with pre-widened values.  SciPy's CSR product sums every row in
stored order from ``+0.0``, so ``operator @ W`` gives every lane sum bit
for bit.  Rows of one lane width form a lane-major group (lane 0 of
every row, then lane 1, ...), so the butterfly of
:meth:`WarpTile.reduce_add_in_place` finishes each row in place on the
product's output, adding contiguous halves.  A row shorter than 32 gets
the smallest power-of-two lane count that covers it: the butterfly
rounds it skips would add ``+0.0`` to sums that are never ``-0.0``.  The
scalar family is the same operator with one lane per row.
:func:`probe_summation_order` checks SciPy's loop once, at import.

Two executors consume a plan: :func:`execute_plan` (one weight vector)
and :func:`execute_plan_multi` (the SpMM path: all ``B`` vectors of a
micro-batch in one product, batch-minor).  Each output column is
bitwise identical to the per-call kernel of the plan's family
(:func:`repro.kernels.csr_vector.warp_csr_spmv_exact` /
:func:`repro.kernels.csr_scalar.scalar_csr_spmv_exact`): batching never
changes a result bit, which is what lets the serving layer batch
clinical traffic at all.

Plans are immutable: every array a plan holds is frozen with
``writeable=False`` (rule RA105 checks this statically), so a compiled
plan can be shared across worker threads without locks.  A
process-global :class:`PlanCache` (LRU, single-flight) deduplicates
compilation; it reports ``plan.cache.{hit,miss,evictions}`` counters and
compilation runs under a ``plan.compile`` span.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy
from scipy.sparse import csr_matrix

from repro.gpu.coop import WarpTile
from repro.obs import artifact, metrics
from repro.obs.lockwitness import guarded_lock
from repro.obs.trace import span as trace_span
from repro.sparse.csr import CSRMatrix
from repro.util.errors import (
    DTypeError,
    PlanMismatchError,
    ShapeError,
    SummationOrderError,
)

WARP = 32

#: kernel families a plan can target (one warp per row / one thread per
#: row — the two deterministic reduction orders in the kernel library).
PLAN_FAMILIES: Tuple[str, ...] = ("vector", "scalar")

#: lane counts a row can get, narrowest first: powers of two up to a warp.
LANE_WIDTHS: Tuple[int, ...] = (1, 2, 4, 8, 16, WARP)


def _freeze_arrays(obj: object) -> None:
    """Set ``writeable=False`` on every ndarray field of a dataclass."""
    for f in fields(obj):  # type: ignore[arg-type]
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


def _lane_sums(operator: csr_matrix, operand: np.ndarray) -> np.ndarray:
    """Every virtual row's sum, by SciPy's compiled CSR row loop."""
    return operator @ operand


#: (dtype, contraction nudge ``e``, order unit ``u``) per probed dtype.
_PROBE_CONSTANTS = (
    (np.float64, 2.0**-30, 2.0**-53),
    (np.float32, 2.0**-13, 2.0**-24),
)
#: each probe row's name and its sum under stored-order multiply-then-add.
_PROBE_ROWS = (("contraction", 0.0), ("order", 1.0))


def probe_summation_order(
    product: Callable[[csr_matrix, np.ndarray], np.ndarray] = _lane_sums,
) -> Tuple[str, ...]:
    """Check that ``product`` sums CSR rows the way compiled plans need.

    Two probe rows (DESIGN.md §16), in float64 and float32, against a 1-D
    and a 2-D ``B = 8`` operand.  *contraction*: ``-1`` at ``x = 1``, then
    ``1 + e`` at ``x = 1 - e``; a multiply, then an add, give ``+0.0``, a
    fused multiply-add ``-e**2``.  *order*: ``1``, then 63 × ``u`` at
    ``x = 1``; each ``1 + u`` is a tie that rounds back to ``1``, so only
    stored order gives exactly ``1``.  Returns the failed probes' names.
    """
    failed: List[str] = []
    for dtype, nudge, unit in _PROBE_CONSTANTS:
        data = np.concatenate(
            [[-1.0, 1.0 + nudge, 1.0], np.full(63, unit)]
        ).astype(dtype)
        indices = np.zeros(data.size, dtype=np.int32)
        indices[1] = 1
        operator = csr_matrix(
            (data, indices, np.array([0, 2, data.size], dtype=np.int32)),
            shape=(2, 2),
        )
        x = np.array([1.0, 1.0 - nudge], dtype=dtype)
        for operand in (x, np.repeat(x[:, None], 8, axis=1)):
            sums = np.asarray(product(operator, operand))
            for row, (probe, want) in enumerate(_PROBE_ROWS):
                expected = np.full(operand.shape[1:], want, dtype=dtype)
                if sums[row].tobytes() != expected.tobytes():
                    name = np.dtype(dtype).name
                    failed.append(f"{probe} ({name}, {operand.ndim}-D operand)")
    return tuple(failed)


#: the import-time probe of this process's SciPy; compile_plan reads it.
_PROBE_FAILURES: Tuple[str, ...] = probe_summation_order()


@dataclass(frozen=True)
class SpMVPlan:
    """An immutable compiled execution plan for one (matrix, family,
    accumulation precision) triple.

    ``operator`` is the lane-expanded CSR (values in the accumulation
    dtype).  Its virtual rows come in lane groups, narrowest first;
    ``lane_groups`` lists each group's ``(width, row count)``, and
    ``rows`` lists the output rows group after group, ascending within a
    group (empty rows have none).  A group is lane-major: its virtual
    row ``l * count + r`` is lane ``l`` of its ``r``-th row, so its lane
    sums reshape to ``(width, count, *batch)``.

    The plan keeps strong references to the source matrix's ``data`` and
    ``indices`` arrays: :meth:`matches` is an identity check, and the
    references guarantee the identity stays unambiguous for the plan's
    lifetime (an ``id`` cannot be recycled while the plan is alive).
    """

    family: str
    n_rows: int
    n_cols: int
    nnz: int
    value_dtype: np.dtype
    accum_dtype: np.dtype
    operator: csr_matrix
    rows: np.ndarray  # (active rows,) intp, in lane-group order
    lane_groups: Tuple[Tuple[int, int], ...]
    #: identity anchors into the source matrix (see class docstring).
    source_data: np.ndarray
    source_indices: np.ndarray

    def __post_init__(self) -> None:
        _freeze_arrays(self)
        op = self.operator
        for array in (op.data, op.indices, op.indptr):
            array.setflags(write=False)

    def matches(self, matrix: CSRMatrix) -> bool:
        """True when this plan was compiled from exactly ``matrix``."""
        return (
            self.source_data is matrix.data
            and self.source_indices is matrix.indices
        )

    @property
    def nbytes(self) -> int:
        """Resident size of the compiled arrays (excluding the source)."""
        op = self.operator
        arrays = (op.data, op.indices, op.indptr, self.rows)
        return int(sum(a.nbytes for a in arrays))


# --------------------------------------------------------------------- #
# compilation
# --------------------------------------------------------------------- #


def _lane_operator(
    matrix: CSRMatrix, accum_dtype: np.dtype, lanes: int
) -> Tuple[csr_matrix, np.ndarray, Tuple[Tuple[int, int], ...]]:
    """The lane-expanded CSR of ``matrix`` at ``lanes`` lanes per row.

    A row of length ``n`` gets the narrowest width in ``LANE_WIDTHS`` that
    is at least ``min(n, lanes)`` (none when empty); its lane ``l`` holds
    the stored elements ``l, l + lanes, ...``.  A group of ``k`` rows at
    width ``w`` is lane-major: its virtual row ``l * k + r`` is lane ``l``
    of its ``r``-th row.  Each element's source position is computed from
    its virtual row; no element is sorted.
    """
    widths = np.array(LANE_WIDTHS[: LANE_WIDTHS.index(lanes) + 1])
    lengths = np.diff(matrix.indptr)
    active = np.flatnonzero(lengths)
    # uint8 group ids let the stable argsort run as a radix sort.
    group = np.searchsorted(
        widths, np.minimum(lengths[active], lanes)).astype(np.uint8)
    sizes = np.bincount(group, minlength=widths.size)
    rows = active[np.argsort(group, kind="stable")]
    lane_groups = tuple((int(w), int(n)) for w, n in zip(widths, sizes) if n)

    # One index dtype for the operator and the offset arithmetic below:
    # int32 whenever every offset fits (``lanes * nnz`` bounds them).
    # SciPy then picks int32 as well and copies neither index array.
    n_virtual = int(sizes @ widths)
    fits = max(lanes * matrix.nnz + n_virtual, matrix.n_cols) <= np.iinfo(
        np.int32).max
    index_dtype = np.int32 if fits else np.int64

    # Lane l of a row starts at ``indptr[row] + l`` and holds
    # ``ceil((len - l) / lanes)`` elements; each group fills its
    # ``(width, rows)`` block of both arrays by broadcasting.
    row_first = matrix.indptr[rows].astype(index_dtype)
    row_count = (lengths[rows] + (lanes - 1)).astype(index_dtype)
    first = np.empty(n_virtual, dtype=index_dtype)
    count = np.empty(n_virtual, dtype=index_dtype)
    v = r = 0
    for width, n in lane_groups:
        lane = np.arange(width, dtype=index_dtype)[:, None]
        block = slice(v, v + width * n)
        np.add(row_first[r:r + n], lane, out=first[block].reshape(width, n))
        np.subtract(row_count[r:r + n], lane,
                    out=count[block].reshape(width, n))
        v += width * n
        r += n
    count //= lanes
    indptr = np.empty(n_virtual + 1, dtype=index_dtype)
    indptr[0] = 0
    np.cumsum(count, out=indptr[1:])
    # Element p of virtual row v: first[v] + lanes * (p - indptr[v]).
    first -= lanes * indptr[:-1]
    src = np.repeat(first.astype(np.intp), count)
    src += np.arange(0, lanes * matrix.nnz, lanes)
    operator = csr_matrix(
        (
            matrix.data.take(src).astype(accum_dtype, copy=False),
            matrix.indices.take(src).astype(index_dtype, copy=False),
            indptr,
        ),
        shape=(n_virtual, matrix.n_cols),
    )
    return operator, rows, lane_groups


def compile_plan(
    matrix: CSRMatrix,
    family: str = "vector",
    accum_dtype: Union[np.dtype, type] = np.float64,
) -> SpMVPlan:
    """Compile an immutable execution plan for ``matrix``.

    Everything that depends only on the matrix — lane layout, element
    order, value widening — is done here, once; the executors below never
    touch the source matrix again.
    """
    if family not in PLAN_FAMILIES:
        raise ValueError(
            f"unknown plan family {family!r}; expected one of {PLAN_FAMILIES}"
        )
    if not isinstance(matrix, CSRMatrix):
        raise DTypeError(
            f"plans compile from CSR matrices, got {type(matrix).__name__}"
        )
    if _PROBE_FAILURES:
        raise SummationOrderError(
            f"SciPy {scipy.__version__} failed the summation-order "
            f"probe(s) {'; '.join(_PROBE_FAILURES)}: its CSR product does "
            "not multiply, then add, in stored order, so a compiled plan "
            "would not reproduce the kernels' bits (the per-call kernels "
            "still run)"
        )
    accum = np.dtype(accum_dtype)
    with trace_span(
        "plan.compile",
        family=family,
        accum=accum.name,
        rows=matrix.n_rows,
        nnz=matrix.nnz,
    ) as sp:
        operator, rows, lane_groups = _lane_operator(
            matrix, accum, WARP if family == "vector" else 1
        )
        plan = SpMVPlan(
            family=family,
            n_rows=matrix.n_rows,
            n_cols=matrix.n_cols,
            nnz=matrix.nnz,
            value_dtype=np.dtype(matrix.value_dtype),
            accum_dtype=accum,
            operator=operator,
            rows=rows,
            lane_groups=lane_groups,
            source_data=matrix.data,
            source_indices=matrix.indices,
        )
        sp.set_attrs(lane_groups=len(lane_groups),
                     virtual_rows=operator.shape[0], plan_bytes=plan.nbytes)
    metrics.counter("plan.compiled").inc()
    if artifact.enabled():
        artifact.record(
            "plan_compile",
            family=family, accum=accum.name,
            n_rows=matrix.n_rows, n_cols=matrix.n_cols, nnz=matrix.nnz,
            value_dtype=np.dtype(matrix.value_dtype).name,
            lane_groups=len(lane_groups), virtual_rows=operator.shape[0],
            plan_bytes=plan.nbytes,
            matrix_fingerprint=artifact.matrix_fingerprint(matrix),
        )
    return plan


def validate_plan_for(
    plan: SpMVPlan,
    matrix: CSRMatrix,
    family: str,
    accum_dtype: Union[np.dtype, type],
) -> None:
    """Raise :class:`PlanMismatchError` unless ``plan`` fits the call."""
    if plan.family != family:
        raise PlanMismatchError(
            f"plan was compiled for the {plan.family!r} family, kernel "
            f"needs {family!r}"
        )
    if plan.accum_dtype != np.dtype(accum_dtype):
        raise PlanMismatchError(
            f"plan accumulates in {plan.accum_dtype}, kernel needs "
            f"{np.dtype(accum_dtype)}"
        )
    if not plan.matches(matrix):
        raise PlanMismatchError(
            "plan was compiled from a different matrix object; recompile "
            "with compile_plan(matrix) or fetch via the plan cache"
        )


# --------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------- #


def cast_weights(
    weights: Union[np.ndarray, Sequence[np.ndarray]],
    accum_dtype: Union[np.dtype, type],
) -> np.ndarray:
    """Cast the weights of one evaluation into the operand executors read.

    One vector of length ``n_cols`` gives a C-contiguous vector; a
    ``(n_cols, B)`` array or a sequence of ``B`` vectors gives a
    C-contiguous, batch-minor ``(n_cols, B)`` block, so each stored
    element multiplies ``B`` contiguous values.  Callers validate shapes
    first and cast once per evaluation: every slice of a sharded plan
    reads the same operand.
    """
    if isinstance(weights, np.ndarray):
        return np.ascontiguousarray(weights, dtype=accum_dtype)
    operand = np.empty((len(weights[0]), len(weights)), dtype=accum_dtype)
    for b, w in enumerate(weights):
        operand[:, b] = w
    return operand


def _weight_columns(
    weights: Union[np.ndarray, Sequence[np.ndarray]], n_cols: int
) -> List[np.ndarray]:
    """The ``B`` weight vectors of a batch, each checked to be ``(n_cols,)``."""
    if isinstance(weights, np.ndarray) and weights.ndim == 2:
        columns = [weights[:, b] for b in range(weights.shape[1])]
    else:
        columns = [np.asarray(w) for w in weights]
    if not columns:
        raise ShapeError("need at least one weight vector")
    for i, w in enumerate(columns):
        if w.shape != (n_cols,):
            raise ShapeError(
                f"vector {i}: expected shape ({n_cols},), got {w.shape}"
            )
    return columns


def _check_operand(plan: SpMVPlan, operand: np.ndarray, ndim: int) -> None:
    """The ``_into`` operand contract.  The dtype must be the plan's: a
    product accumulates in the wider of its two operands' dtypes."""
    if operand.dtype != plan.accum_dtype:
        raise DTypeError(f"cast weights are {operand.dtype}, the plan "
                         f"accumulates in {plan.accum_dtype}: use cast_weights")
    if operand.ndim != ndim or operand.shape[0] != plan.n_cols:
        expected = f"({plan.n_cols},)" if ndim == 1 else f"({plan.n_cols}, B)"
        raise ShapeError(
            f"cast weights have shape {operand.shape}, expected {expected}"
        )


def _execute(plan: SpMVPlan, operand: np.ndarray, out: np.ndarray) -> None:
    """Run ``plan`` on a cast operand of shape ``(n_cols, *batch)``.

    ``batch`` is ``()`` or ``(B,)``.  One product gives every lane sum in
    the kernel's order.  A lane group is lane-major, so its sums reshape
    to ``(width, rows, *batch)`` and :meth:`WarpTile.reduce_add_in_place`
    runs the butterfly in place on the product's own output, each round
    over two contiguous halves; the batch axis only broadcasts.  The
    product's output is private to this call, and nothing else is
    allocated.
    """
    lane_sums = _lane_sums(plan.operator, operand)
    batch = operand.shape[1:]
    lane = row = 0
    for width, count in plan.lane_groups:
        sums = lane_sums[lane:lane + width * count]
        out[plan.rows[row:row + count]] = WarpTile(width).reduce_add_in_place(
            sums.reshape((width, count) + batch)
        )
        lane += width * count
        row += count


def execute_plan_into(plan: SpMVPlan, xa: np.ndarray, out: np.ndarray) -> None:
    """Evaluate one plan into a caller-owned output view.

    ``xa`` is the ``(n_cols,)`` vector :func:`cast_weights` returns, in
    the plan's accumulation dtype (the sharded executors cast once per
    evaluation, not once per shard); ``out`` is a zero-initialized 1-D
    view of length ``plan.n_rows``.  Every accumulation happens in the
    plan's accumulation dtype; only the final per-row assignment stores
    into ``out``, so a float64 output buffer receives bitwise the same
    values ``execute_plan`` returns (float32 accumulators embed exactly).
    """
    _check_operand(plan, xa, 1)
    _execute(plan, xa, out)


def execute_plan(plan: SpMVPlan, x: np.ndarray) -> np.ndarray:
    """Evaluate ``A @ x`` from a compiled plan, bitwise identical to the
    per-call kernel of the plan's family."""
    x = np.asarray(x)
    if x.shape != (plan.n_cols,):
        raise ShapeError(f"x has shape {x.shape}, expected ({plan.n_cols},)")
    y = np.zeros(plan.n_rows, dtype=plan.accum_dtype)
    execute_plan_into(plan, cast_weights(x, plan.accum_dtype), y)
    return y


def execute_plan_multi(
    plan: SpMVPlan,
    weights: Union[np.ndarray, Sequence[np.ndarray]],
) -> np.ndarray:
    """The SpMM path: evaluate all ``B`` weight vectors in one product.

    ``weights`` is a sequence of ``B`` vectors of length ``n_cols`` (or a
    ``(n_cols, B)`` array).  Returns the dose matrix ``(n_rows, B)``;
    column ``b`` is bitwise identical to ``execute_plan(plan, W[:, b])``.
    The columns are contiguous, so splitting the batch into per-request
    doses copies contiguous memory.

    Each stored element multiplies the ``B`` contiguous weights of its
    column: every column gets the single-vector multiply, add and
    butterfly, in the same order.
    """
    columns = _weight_columns(weights, plan.n_cols)
    out = np.zeros((len(columns), plan.n_rows), dtype=plan.accum_dtype).T
    execute_plan_multi_into(plan, cast_weights(columns, plan.accum_dtype), out)
    return out


def execute_plan_multi_into(
    plan: SpMVPlan, X: np.ndarray, out: np.ndarray
) -> None:
    """The SpMM path into a caller-owned ``(n_rows, B)`` view.

    ``X`` is the batch-minor ``(n_cols, B)`` block :func:`cast_weights`
    returns, in the plan's accumulation dtype (one cast per evaluation,
    shared across shards); ``out`` is zero-initialized.  Arithmetic is
    identical to :func:`execute_plan_multi`; only the destination
    differs.
    """
    _check_operand(plan, X, 2)
    _execute(plan, X, out)


# --------------------------------------------------------------------- #
# transpose plans (the adjoint product A^T @ r)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class TransposePlan:
    """A compiled plan for the adjoint product ``A^T @ r``.

    The optimizer's backward pass evaluates ``grad_w = A^T grad_d``
    every iteration — the same traffic volume as the forward dose
    calculation, previously served only by the exact-but-unplanned
    :meth:`repro.sparse.csr.CSRMatrix.transpose_matvec`.  A transpose
    plan materializes ``A^T`` in CSR layout once (a deterministic
    counting sort, so the transpose's bits are a pure function of
    ``A``'s) and compiles a regular :class:`SpMVPlan` for it, making the
    adjoint a first-class planned operation with the same bitwise
    contract as the forward path: each output component is reduced by
    one warp (or one sequential row walk) in a fixed order.

    ``matrix`` is the explicit transpose (``A^T`` as CSR, same value
    dtype as ``A``); ``plan`` is its compiled plan.  The identity
    anchors reference the *source* matrix ``A``, so :meth:`matches`
    answers "was this transpose plan built from exactly that forward
    matrix" — the question callers holding ``A`` actually ask.
    """

    matrix: CSRMatrix
    plan: SpMVPlan
    #: identity anchors into the forward (source) matrix ``A``.
    source_data: np.ndarray
    source_indices: np.ndarray

    def __post_init__(self) -> None:
        _freeze_arrays(self)

    @property
    def n_rows(self) -> int:
        """Rows of ``A^T`` == columns (spots) of the forward matrix."""
        return self.plan.n_rows

    @property
    def n_cols(self) -> int:
        """Columns of ``A^T`` == rows (voxels) of the forward matrix."""
        return self.plan.n_cols

    def matches(self, matrix: CSRMatrix) -> bool:
        """True when this plan was compiled from exactly ``matrix``."""
        return (
            self.source_data is matrix.data
            and self.source_indices is matrix.indices
        )


def compile_transpose_plan(
    matrix: CSRMatrix,
    family: str = "vector",
    accum_dtype: Union[np.dtype, type] = np.float64,
) -> TransposePlan:
    """Compile a plan evaluating ``A^T @ r`` for the forward matrix ``A``.

    The transpose is materialized via :meth:`CSRMatrix.transposed`
    (stable counting sort — bitwise deterministic) and compiled through
    the ordinary :func:`compile_plan` machinery, so the adjoint inherits
    every plan property: immutability (RA105), the bitwise equivalence
    with the per-call kernels, and the SpMM fast path.
    """
    if not isinstance(matrix, CSRMatrix):
        raise DTypeError(
            f"plans compile from CSR matrices, got {type(matrix).__name__}"
        )
    with trace_span(
        "plan.compile_transpose",
        family=family,
        rows=matrix.n_rows,
        nnz=matrix.nnz,
    ):
        transposed = matrix.transposed()
        plan = compile_plan(transposed, family, accum_dtype)
    metrics.counter("plan.transpose_compiled").inc()
    return TransposePlan(
        matrix=transposed,
        plan=plan,
        source_data=matrix.data,
        source_indices=matrix.indices,
    )


def execute_transpose_plan(tplan: TransposePlan, r: np.ndarray) -> np.ndarray:
    """Evaluate ``A^T @ r`` from a compiled transpose plan.

    Bitwise identical to running the plan's family kernel on the
    explicitly transposed matrix — the contract test pins this.
    """
    r = np.asarray(r)
    if r.shape != (tplan.n_cols,):
        raise ShapeError(
            f"r has shape {r.shape}, expected ({tplan.n_cols},) — the "
            "adjoint consumes a residual over the forward matrix's rows"
        )
    return execute_plan(tplan.plan, r)


# --------------------------------------------------------------------- #
# sharded plans (fused multi-shard dispatch)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class PlanSlice:
    """One shard of a :class:`ShardedPlan`: a compiled plan plus the row
    range its output occupies in the merged dose vector."""

    index: int
    row_start: int
    row_end: int
    plan: SpMVPlan

    @property
    def n_rows(self) -> int:
        return self.row_end - self.row_start


@dataclass(frozen=True)
class ShardedPlan:
    """All per-shard plans of one sharded matrix, compiled once, with
    merge-ordered output slices.

    The fused executors below allocate the full dose array once and let
    every slice write directly into its ``[row_start, row_end)`` view —
    the tree merge degenerates to a zero-copy index-ordered write.  The
    bitwise argument is unchanged from the concatenating merge: slices
    are disjoint contiguous row blocks, each row's bits are produced by
    the same fixed-order reduction as in the full matrix, and no
    floating-point arithmetic happens between a slice's reduction and
    its resting place in the output (writes are ordered by the explicit
    slice index, never by completion or container order — rule RA106).

    Identity anchors reference the *source* matrix the sharding was cut
    from, so :meth:`matches` answers whether the plan was cut from it.
    """

    family: str
    n_rows: int
    n_cols: int
    nnz: int
    accum_dtype: np.dtype
    slices: Tuple[PlanSlice, ...]
    #: identity anchors into the source (unsharded) matrix.
    source_data: np.ndarray
    source_indices: np.ndarray

    def __post_init__(self) -> None:
        _freeze_arrays(self)

    @property
    def n_slices(self) -> int:
        return len(self.slices)

    def matches(self, matrix: CSRMatrix) -> bool:
        """True when this plan was compiled from exactly ``matrix``."""
        return (
            self.source_data is matrix.data
            and self.source_indices is matrix.indices
        )

    @property
    def nbytes(self) -> int:
        """Resident size of all compiled slice plans."""
        return sum(s.plan.nbytes for s in self.slices)


def compile_sharded_plan(
    source: CSRMatrix,
    blocks: Sequence[Tuple[int, int, CSRMatrix]],
    family: str = "vector",
    accum_dtype: Union[np.dtype, type] = np.float64,
) -> ShardedPlan:
    """Compile one :class:`ShardedPlan` from contiguous row blocks.

    ``blocks`` is a sequence of ``(row_start, row_end, block)`` triples
    ordered by shard index; the ranges must tile ``[0, source.n_rows)``
    exactly — gaps, overlaps or reorderings are structural errors, not
    merge-time surprises.
    """
    if not blocks:
        raise ShapeError("sharded plan needs at least one row block")
    accum = np.dtype(accum_dtype)
    expected_start = 0
    slices: List[PlanSlice] = []
    with trace_span(
        "plan.compile_sharded",
        family=family,
        shards=len(blocks),
        rows=source.n_rows,
        nnz=source.nnz,
    ):
        for k, (start, end, block) in enumerate(blocks):
            if start != expected_start:
                raise ShapeError(
                    f"slice {k} starts at row {start}, expected "
                    f"{expected_start}; slices must tile the source rows "
                    "in ascending shard order"
                )
            if block.n_rows != end - start or block.n_cols != source.n_cols:
                raise ShapeError(
                    f"slice {k} block shape ({block.n_rows}, {block.n_cols}) "
                    f"does not match range [{start}, {end}) over "
                    f"{source.n_cols} columns"
                )
            expected_start = end
            slices.append(
                PlanSlice(
                    index=k,
                    row_start=start,
                    row_end=end,
                    plan=compile_plan(block, family, accum),
                )
            )
        if expected_start != source.n_rows:
            raise ShapeError(
                f"slices cover rows [0, {expected_start}) of a "
                f"{source.n_rows}-row matrix"
            )
    metrics.counter("plan.sharded_compiled").inc()
    return ShardedPlan(
        family=family,
        n_rows=source.n_rows,
        n_cols=source.n_cols,
        nnz=source.nnz,
        accum_dtype=accum,
        slices=tuple(slices),
        source_data=source.data,
        source_indices=source.indices,
    )


def execute_sharded_plan(
    splan: ShardedPlan, x: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Evaluate ``A @ x`` through every slice of a sharded plan.

    One input cast, one output allocation, one in-order pass over the
    slices — bitwise identical to ``execute_plan`` on the full matrix
    (each row is reduced by the same fixed-order kernel arithmetic; the
    slice write is pure placement).  ``out`` may be a caller-owned
    float64 buffer of shape ``(n_rows,)`` for allocation-free repeats.
    """
    x = np.asarray(x)
    if x.shape != (splan.n_cols,):
        raise ShapeError(f"x has shape {x.shape}, expected ({splan.n_cols},)")
    if out is None:
        out = np.zeros(splan.n_rows, dtype=np.float64)
    else:
        if out.shape != (splan.n_rows,):
            raise ShapeError(
                f"out has shape {out.shape}, expected ({splan.n_rows},)"
            )
        out[:] = 0.0
    xa = cast_weights(x, splan.accum_dtype)
    for s in splan.slices:
        execute_plan_into(s.plan, xa, out[s.row_start:s.row_end])
    return out


def execute_sharded_plan_multi(
    splan: ShardedPlan,
    weights: Union[np.ndarray, Sequence[np.ndarray]],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The sharded SpMM path: all ``B`` vectors through every slice in
    one dispatch.

    Returns ``(n_rows, B)``; column ``b`` is bitwise identical to
    ``execute_sharded_plan(splan, W[:, b])`` — and therefore to the
    single-device per-call kernel — by the same broadcast argument as
    :func:`execute_plan_multi`.
    """
    columns = _weight_columns(weights, splan.n_cols)
    batch = len(columns)
    X = cast_weights(columns, splan.accum_dtype)
    if out is None:
        out = np.zeros((splan.n_rows, batch), dtype=np.float64)
    else:
        if out.shape != (splan.n_rows, batch):
            raise ShapeError(
                f"out has shape {out.shape}, expected "
                f"({splan.n_rows}, {batch})"
            )
        out[:] = 0.0
    for s in splan.slices:
        execute_plan_multi_into(s.plan, X, out[s.row_start:s.row_end])
    return out


# --------------------------------------------------------------------- #
# process-global plan cache
# --------------------------------------------------------------------- #


class PlanCache:
    """Bounded LRU of compiled plans, keyed by matrix identity.

    The key is ``(id(matrix.data), family, accum dtype)``; because every
    cached plan holds a strong reference to its source arrays, a key's
    ``id`` cannot be recycled while its entry is alive, and
    :meth:`SpMVPlan.matches` re-verifies identity on every hit anyway.
    Compilation runs under the cache lock, so concurrent requests for
    one matrix compile exactly once (single-flight).

    Reports ``plan.cache.{hit,miss,evictions}`` counters and a
    ``plan.cache.size`` gauge.
    """

    def __init__(self, capacity: int = 16):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = guarded_lock(  # analyze: lock-guards[_plans]
            "kernels.plan.PlanCache"
        )
        self._plans: "OrderedDict[Tuple[int, str, str], SpMVPlan]" = (
            OrderedDict()
        )

    def get_or_compile(
        self,
        matrix: CSRMatrix,
        family: str,
        accum_dtype: Union[np.dtype, type],
    ) -> SpMVPlan:
        accum = np.dtype(accum_dtype)
        key = (id(matrix.data), family, accum.str)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None and plan.matches(matrix):
                self._plans.move_to_end(key)
                metrics.counter("plan.cache.hit").inc()
                return plan
            metrics.counter("plan.cache.miss").inc()
            plan = compile_plan(matrix, family, accum)  # analyze: allow[RL504] -- deliberate single-flight: compiling under the lock is what guarantees one compilation per key; plan compilation is bounded CPU work, not unbounded blocking
            # cache bookkeeping, not a plan-array mutation
            self._plans[key] = plan  # analyze: allow[RA105]
            self._plans.move_to_end(key)
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                metrics.counter("plan.cache.evictions").inc()
            metrics.gauge("plan.cache.size").set(len(self._plans))
            return plan

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            metrics.gauge("plan.cache.size").set(0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


_PLAN_CACHE = PlanCache()


def get_plan_cache() -> PlanCache:
    """The process-global plan cache shared by kernels/harness/serving."""
    return _PLAN_CACHE


def clear_plan_cache() -> None:
    """Drop every cached plan (tests and the bench harness use this)."""
    _PLAN_CACHE.clear()
