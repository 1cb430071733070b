"""Precompiled, immutable SpMV execution plans and the batched SpMM path.

The paper's workload evaluates ``d = A @ w`` thousands of times per
optimization against a *fixed* deposition matrix, yet the per-call
functional kernels re-derive everything that depends only on ``A`` on
every evaluation: row-length bucketing, ``ceil(len/32)`` iteration
counts, gather-position arithmetic, tail masks, and the half->double
widening of every stored value.  An :class:`SpMVPlan` hoists all of that
into a one-time compile (the structure-exploiting preprocessing Ginkgo
and cuSPARSE apply on ``Analysis``/``apply`` splits), so a repeated
evaluation only gathers, multiplies, and reduces.

The vector-family layout is compact and mask-free.  Each warp chunk
holds an int32 column and a pre-widened value per lane, chunk-major, so
chunk ``j`` of every row in a group is one contiguous slice.  A lane
past the end of its row stores value ``+0.0`` and the sentinel column
``n_cols``.  Every executor reads the weights through one cast per
evaluation (:func:`cast_weights`), which appends that sentinel slot,
fixed at ``+0.0``.  A padded lane therefore adds ``+0.0 * +0.0 = +0.0``,
the same ``+0.0`` the per-call kernel's tail mask substitutes, and it
never reads a real weight, so ±inf or NaN weights cannot leak into it.

Two executors consume a plan:

* :func:`execute_plan` — one weight vector, bitwise identical to the
  per-call kernels (:func:`repro.kernels.csr_vector.warp_csr_spmv_exact`
  / :func:`repro.kernels.csr_scalar.scalar_csr_spmv_exact`);
* :func:`execute_plan_multi` — the SpMM path: all ``B`` weight vectors
  of a micro-batch are evaluated per chunk.  The weights are batch-minor
  (``(n_cols + 1, B)``), so one gather fetches ``B`` contiguous values
  per column index, and the lane accumulators carry a trailing batch
  axis.  Every arithmetic step stays an elementwise broadcast of the
  single-vector step, so each output column is bitwise identical to a
  stand-alone ``A @ w``.  Batching never changes a result bit, which is
  what lets the serving layer batch clinical traffic at all.

Plans are immutable: every ndarray a plan holds is frozen with
``writeable=False`` at construction (rule RA105 checks this statically),
so a compiled plan can be shared across worker threads without locks.

A process-global :class:`PlanCache` (LRU, single-flight) deduplicates
compilation; it reports ``plan.cache.{hit,miss,evictions}`` counters and
compilation runs under a ``plan.compile`` span.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.gpu.coop import WarpTile
from repro.obs import artifact, metrics
from repro.obs.lockwitness import guarded_lock
from repro.obs.trace import span as trace_span
from repro.sparse.csr import CSRMatrix
from repro.util.errors import DTypeError, PlanMismatchError, ShapeError

WARP = 32

#: kernel families a plan can target (one warp per row / one thread per
#: row — the two deterministic reduction orders in the kernel library).
PLAN_FAMILIES: Tuple[str, ...] = ("vector", "scalar")


def _freeze_arrays(obj: object) -> None:
    """Set ``writeable=False`` on every ndarray field of a dataclass."""
    for f in fields(obj):  # type: ignore[arg-type]
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


@dataclass(frozen=True)
class WarpRowGroup:
    """All rows sharing one inner-loop iteration count, fully precomputed.

    For ``n`` rows needing ``iterations`` chunks of 32, the arrays hold
    chunk ``j`` of row ``r`` at ``[j, r, :]``, so chunk ``j`` of the
    whole group is the contiguous slice ``[j]``.  They are exactly the
    operands the per-call kernel recomputes from ``indptr`` on every
    evaluation:

    * ``cols``   — int32 gather positions into the cast weights;
    * ``values`` — stored values pre-widened to the accumulation dtype
      (the half->double ``astype`` that dominates the per-call cost).

    A lane past the end of its row holds column ``n_cols`` (the
    sentinel slot :func:`cast_weights` appends) and value ``+0.0``;
    there is no tail mask.
    """

    iterations: int
    rows: np.ndarray  # (n,) int64 row indices
    cols: np.ndarray  # (iterations, n, WARP) int32 column indices
    values: np.ndarray  # (iterations, n, WARP) accumulation dtype

    def __post_init__(self) -> None:
        _freeze_arrays(self)


@dataclass(frozen=True)
class ScalarStep:
    """Step ``k`` of the scalar kernel's sequential row walk.

    ``live`` indexes the rows (within the plan's active-row array) whose
    length exceeds ``k``; ``values``/``cols`` are the pre-widened element
    and its gather position for each live row.
    """

    live: np.ndarray  # (m,) int64 indices into the active-row accumulator
    values: np.ndarray  # (m,) accumulation dtype
    cols: np.ndarray  # (m,) int32 column indices

    def __post_init__(self) -> None:
        _freeze_arrays(self)


@dataclass(frozen=True)
class SpMVPlan:
    """An immutable compiled execution plan for one (matrix, family,
    accumulation precision) triple.

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
    #: vector family: one group per distinct iteration count.
    groups: Tuple[WarpRowGroup, ...]
    #: scalar family: one step per inner-loop trip, plus the active rows.
    scalar_steps: Tuple[ScalarStep, ...]
    scalar_rows: np.ndarray
    #: identity anchors into the source matrix (see class docstring).
    source_data: np.ndarray
    source_indices: np.ndarray

    def __post_init__(self) -> None:
        _freeze_arrays(self)

    def matches(self, matrix: CSRMatrix) -> bool:
        """True when this plan was compiled from exactly ``matrix``."""
        return (
            self.source_data is matrix.data
            and self.source_indices is matrix.indices
        )

    @property
    def nbytes(self) -> int:
        """Resident size of the compiled arrays (excluding the source)."""
        total = int(self.scalar_rows.nbytes)
        for g in self.groups:
            total += g.rows.nbytes + g.cols.nbytes + g.values.nbytes
        for s in self.scalar_steps:
            total += s.live.nbytes + s.values.nbytes + s.cols.nbytes
        return total


# --------------------------------------------------------------------- #
# compilation
# --------------------------------------------------------------------- #


def _compile_vector_groups(
    matrix: CSRMatrix, accum_dtype: np.dtype
) -> Tuple[WarpRowGroup, ...]:
    """Replicate the warp kernel's bucketing with chunk operands hoisted."""
    lengths = matrix.row_lengths().astype(np.int64)
    indptr = matrix.indptr.astype(np.int64)
    iters = (lengths + WARP - 1) // WARP
    nnz = matrix.nnz
    # Sentinel-extended copies of the CSR arrays: element ``nnz`` is the
    # padded lane, column n_cols with value +0.0.
    ext_cols = np.empty(nnz + 1, dtype=np.int32)
    ext_cols[:nnz] = matrix.indices
    ext_cols[nnz] = matrix.n_cols
    ext_values = np.empty(nnz + 1, dtype=accum_dtype)
    ext_values[:nnz] = matrix.data
    ext_values[nnz] = 0
    lane_ids = np.arange(WARP, dtype=np.int64)
    groups: List[WarpRowGroup] = []
    for j_count in np.unique(iters):
        if j_count == 0:
            continue  # empty rows: the warp writes y[i] = 0 (already zero)
        rows = np.flatnonzero(iters == j_count)
        # offsets[j, 0, lane] = j*WARP + lane, the in-row element index
        # each lane touches on iteration j — the quantity the per-call
        # kernel recomputes inside its chunk loop.
        offsets = (
            np.arange(int(j_count), dtype=np.int64)[:, None] * WARP
            + lane_ids[None, :]
        )[:, None, :]
        pos = np.where(
            offsets < lengths[rows][:, None],
            indptr[rows][:, None] + offsets,
            nnz,
        )
        groups.append(
            WarpRowGroup(
                iterations=int(j_count),
                rows=rows,
                cols=ext_cols[pos],
                values=ext_values[pos],
            )
        )
    return tuple(groups)


def _compile_scalar_steps(
    matrix: CSRMatrix, accum_dtype: np.dtype
) -> Tuple[Tuple[ScalarStep, ...], np.ndarray]:
    """Precompute the scalar kernel's per-step live sets and operands."""
    lengths = matrix.row_lengths().astype(np.int64)
    indptr = matrix.indptr.astype(np.int64)
    active_rows = np.flatnonzero(lengths > 0)
    active_lens = lengths[active_rows]
    active_base = indptr[active_rows]
    steps: List[ScalarStep] = []
    for k in range(int(lengths.max(initial=0))):
        live = np.flatnonzero(active_lens > k)
        if live.size == 0:
            break
        pos = active_base[live] + k
        steps.append(
            ScalarStep(
                live=live,
                values=matrix.data[pos].astype(accum_dtype),
                cols=matrix.indices[pos].astype(np.int32),
            )
        )
    return tuple(steps), active_rows


def compile_plan(
    matrix: CSRMatrix,
    family: str = "vector",
    accum_dtype: Union[np.dtype, type] = np.float64,
) -> SpMVPlan:
    """Compile an immutable execution plan for ``matrix``.

    Everything that depends only on the matrix — bucketing, gather
    positions, tail padding, value widening — is done here, once; the
    executors below never touch ``indptr`` again.
    """
    if family not in PLAN_FAMILIES:
        raise ValueError(
            f"unknown plan family {family!r}; expected one of {PLAN_FAMILIES}"
        )
    if not isinstance(matrix, CSRMatrix):
        raise DTypeError(
            f"plans compile from CSR matrices, got {type(matrix).__name__}"
        )
    if matrix.n_cols + 1 > np.iinfo(np.int32).max:
        raise ShapeError(
            f"{matrix.n_cols} columns: plan columns are int32 and must also "
            f"reach the padded-lane sentinel column {matrix.n_cols}"
        )
    accum = np.dtype(accum_dtype)
    with trace_span(
        "plan.compile",
        family=family,
        accum=accum.name,
        rows=matrix.n_rows,
        nnz=matrix.nnz,
    ) as sp:
        if family == "vector":
            groups = _compile_vector_groups(matrix, accum)
            steps: Tuple[ScalarStep, ...] = ()
            active = np.empty(0, dtype=np.int64)
        else:
            groups = ()
            steps, active = _compile_scalar_steps(matrix, accum)
        plan = SpMVPlan(
            family=family,
            n_rows=matrix.n_rows,
            n_cols=matrix.n_cols,
            nnz=matrix.nnz,
            value_dtype=np.dtype(matrix.value_dtype),
            accum_dtype=accum,
            groups=groups,
            scalar_steps=steps,
            scalar_rows=active,
            source_data=matrix.data,
            source_indices=matrix.indices,
        )
        sp.set_attrs(groups=len(groups), steps=len(steps),
                     plan_bytes=plan.nbytes)
    metrics.counter("plan.compiled").inc()
    if artifact.enabled():
        artifact.record(
            "plan_compile",
            family=family, accum=accum.name,
            n_rows=matrix.n_rows, n_cols=matrix.n_cols, nnz=matrix.nnz,
            value_dtype=np.dtype(matrix.value_dtype).name,
            groups=len(plan.groups), steps=len(plan.scalar_steps),
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

    One vector of length ``n_cols`` gives a vector of length
    ``n_cols + 1``; a ``(n_cols, B)`` array or a sequence of ``B``
    vectors gives a batch-minor ``(n_cols + 1, B)`` block.  The extra
    slot ``n_cols`` is the padded-lane sentinel, fixed at ``+0.0``.
    Callers validate shapes first and cast once per evaluation: every
    slice of a sharded plan reads the same operand.
    """
    if isinstance(weights, np.ndarray):
        operand = np.empty(
            (weights.shape[0] + 1,) + weights.shape[1:], dtype=accum_dtype
        )
        operand[:-1] = weights
    else:
        operand = np.empty(
            (len(weights[0]) + 1, len(weights)), dtype=accum_dtype
        )
        for b, w in enumerate(weights):
            operand[:-1, b] = w
    operand[-1] = 0
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


def _execute(plan: SpMVPlan, operand: np.ndarray, out: np.ndarray) -> None:
    """Run ``plan`` on a cast operand of shape ``(n_cols + 1, *batch)``.

    ``batch`` is ``()`` or ``(B,)``.  Per-(row, lane) arithmetic is the
    per-call kernel's, in its order: lane sums in ascending chunk order,
    then the butterfly of :meth:`WarpTile.reduce_add` over the lane axis.
    The batch axis only broadcasts each step.  Scratch arrays are reused
    across chunks; indices are in range by construction, so the gather
    uses ``mode="clip"``, NumPy's unbuffered ``take``.
    """
    batch = operand.shape[1:]
    accum = plan.accum_dtype
    if plan.family == "vector":
        tile = WarpTile(WARP)
        for g in plan.groups:
            shape = (g.rows.size, WARP) + batch
            lane_acc = np.zeros(shape, dtype=accum)
            chunk = np.empty(shape, dtype=accum)
            for j in range(g.iterations):
                values = g.values[j] if not batch else g.values[j][:, :, None]
                np.take(operand, g.cols[j], axis=0, out=chunk, mode="clip")
                np.multiply(values, chunk, out=chunk)
                np.add(lane_acc, chunk, out=lane_acc)
            out[g.rows] = tile.reduce_add(lane_acc, axis=1)
    else:
        acc = np.zeros((plan.scalar_rows.size,) + batch, dtype=accum)
        for step in plan.scalar_steps:
            values = step.values if not batch else step.values[:, None]
            acc[step.live] = acc[step.live] + values * operand[step.cols]
        out[plan.scalar_rows] = acc


def execute_plan_into(plan: SpMVPlan, xa: np.ndarray, out: np.ndarray) -> None:
    """Evaluate one plan into a caller-owned output view.

    ``xa`` is the ``(n_cols + 1,)`` vector :func:`cast_weights` returns
    (the sharded executors cast once per evaluation, not once per
    shard); ``out`` is a zero-initialized 1-D view of length
    ``plan.n_rows``.  Every accumulation happens in the plan's
    accumulation dtype; only the final per-row assignment stores into
    ``out``, so a float64 output buffer receives bitwise the same values
    ``execute_plan`` returns (float32 accumulators embed exactly).
    """
    if xa.shape != (plan.n_cols + 1,):
        raise ShapeError(
            f"cast weights have shape {xa.shape}, expected "
            f"({plan.n_cols + 1},): use cast_weights"
        )
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
    """The SpMM path: evaluate all ``B`` weight vectors per chunk.

    ``weights`` is a sequence of ``B`` vectors of length ``n_cols`` (or a
    ``(n_cols, B)`` array).  Returns the dose matrix ``(n_rows, B)``;
    column ``b`` is bitwise identical to ``execute_plan(plan, W[:, b])``.
    The columns are contiguous, so splitting the batch into per-request
    doses copies contiguous memory.

    Per chunk one gather fetches the ``B`` contiguous weights of each
    column index, and each per-(row, lane) operation is an elementwise
    broadcast of the single-vector operation — same multiply, same add,
    same 5-round butterfly, in the same order, for every column.
    """
    columns = _weight_columns(weights, plan.n_cols)
    out = np.zeros((len(columns), plan.n_rows), dtype=plan.accum_dtype).T
    execute_plan_multi_into(plan, cast_weights(columns, plan.accum_dtype), out)
    return out


def execute_plan_multi_into(
    plan: SpMVPlan, X: np.ndarray, out: np.ndarray
) -> None:
    """The SpMM path into a caller-owned ``(n_rows, B)`` view.

    ``X`` is the batch-minor ``(n_cols + 1, B)`` block
    :func:`cast_weights` returns (one cast per evaluation, shared across
    shards); ``out`` is zero-initialized.  Arithmetic is identical to
    :func:`execute_plan_multi`; only the destination differs.
    """
    if X.ndim != 2 or X.shape[0] != plan.n_cols + 1:
        raise ShapeError(
            f"cast weights have shape {X.shape}, expected "
            f"({plan.n_cols + 1}, B): use cast_weights"
        )
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
