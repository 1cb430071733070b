"""Row partitioning for chunked and multi-worker SpMV.

Two consumers need balanced row partitions of a deposition matrix:

* the memory planner's chunked execution (each chunk must fit the device
  and take comparable time -> balance by *non-zeros*, not rows — the
  heavy-tailed row lengths make equal-row chunks wildly unbalanced);
* the CPU implementation's thread decomposition.

:func:`partition_rows_balanced` is the greedy prefix partitioner (optimal
for contiguous chunks); :func:`partition_quality` quantifies the imbalance
so benches can show the equal-rows vs equal-nnz difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.util.errors import ShapeError


@dataclass(frozen=True)
class RowCostModel:
    """A named per-row work model: ``cost(i) = nnz_cost*len(i) + row_cost``.

    Both coefficients are in equivalent bytes, mirroring the timing
    model's DRAM channel: ``nnz_cost`` prices the per-element value +
    index stream, ``row_cost`` the fixed per-row work (row-pointer read,
    warp reduction, output write, sector-alignment slack).  Different
    sparsity families weight these differently — banded photon FPB rows
    are long and dense (stream-dominated), VMAT aperture columns make
    short contiguous runs (row-overhead-dominated) — so the model is a
    *registration*, not a constant: every workload registers its own and
    partitioners resolve coefficients by name.
    """

    name: str
    nnz_cost: float
    row_cost: float
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ShapeError("cost model name must be non-empty")
        if self.nnz_cost < 0 or self.row_cost < 0:
            raise ShapeError(
                f"cost model {self.name!r}: coefficients must be "
                f"non-negative, got nnz_cost={self.nnz_cost}, "
                f"row_cost={self.row_cost}"
            )

    def row_costs(self, matrix: CSRMatrix) -> np.ndarray:
        """Modeled cost of every row (float64, length ``n_rows``)."""
        lengths = np.diff(matrix.indptr).astype(np.float64)
        return lengths * self.nnz_cost + self.row_cost


#: the proton-PBS default: half value (2 B) + int32 index (4 B) per
#: stored element, 200 B-equivalent fixed work per row.  These are the
#: historical hard-coded constants, now the *named* default rather than
#: an implicit assumption baked into every partitioner call.
PBS_COST_MODEL = RowCostModel(
    name="pbs",
    nnz_cost=6.0,  # analyze: allow[cost-literal] -- the named PBS default itself
    row_cost=200.0,  # analyze: allow[cost-literal] -- the named PBS default itself
    description="proton pencil-beam scanning (paper Table I structure)",
)

_COST_MODELS: Dict[str, RowCostModel] = {}


def register_cost_model(model: RowCostModel,
                        replace: bool = False) -> RowCostModel:
    """Register a named row-cost model (workloads call this at import)."""
    if model.name in _COST_MODELS and not replace:
        existing = _COST_MODELS[model.name]
        if (existing.nnz_cost, existing.row_cost) != (
            model.nnz_cost, model.row_cost
        ):
            raise ShapeError(
                f"cost model {model.name!r} already registered with "
                f"different coefficients; pass replace=True to overwrite"
            )
        return existing
    _COST_MODELS[model.name] = model
    return model


def get_cost_model(name: str) -> RowCostModel:
    """Look up a registered cost model by name."""
    try:
        return _COST_MODELS[name]
    except KeyError:
        raise ShapeError(
            f"no cost model named {name!r}; registered: "
            f"{sorted(_COST_MODELS)}"
        ) from None


def cost_model_names() -> Tuple[str, ...]:
    return tuple(sorted(_COST_MODELS))


register_cost_model(PBS_COST_MODEL)


@dataclass(frozen=True)
class RowPartition:
    """Contiguous row ranges covering a matrix."""

    #: boundaries, length n_parts + 1; part k is rows [bounds[k], bounds[k+1]).
    bounds: np.ndarray
    #: non-zeros per part.
    nnz_per_part: np.ndarray

    @property
    def n_parts(self) -> int:
        return int(self.bounds.shape[0]) - 1

    def part(self, k: int) -> Tuple[int, int]:
        """Row range ``[start, end)`` of part ``k``."""
        if not 0 <= k < self.n_parts:
            raise IndexError(f"part {k} out of range [0, {self.n_parts})")
        return int(self.bounds[k]), int(self.bounds[k + 1])

    @property
    def imbalance(self) -> float:
        """max part nnz / mean part nnz (1.0 == perfectly balanced)."""
        mean = self.nnz_per_part.mean()
        return float(self.nnz_per_part.max() / mean) if mean else 1.0


def partition_rows_equal(matrix: CSRMatrix, n_parts: int) -> RowPartition:
    """Equal-ROW-count partition (the naive decomposition)."""
    _check_parts(matrix, n_parts)
    bounds = np.linspace(0, matrix.n_rows, n_parts + 1).astype(np.int64)
    return _with_counts(matrix, bounds)


def partition_rows_balanced(matrix: CSRMatrix, n_parts: int) -> RowPartition:
    """Equal-NNZ partition: boundaries at nnz quantiles of ``indptr``.

    Each contiguous chunk gets as close to ``nnz / n_parts`` stored values
    as row granularity allows — the right decomposition for the dose
    matrices, whose row lengths span four orders of magnitude.
    """
    _check_parts(matrix, n_parts)
    targets = np.linspace(0, matrix.nnz, n_parts + 1)
    bounds = np.searchsorted(matrix.indptr, targets, side="left").astype(np.int64)
    bounds[0] = 0
    bounds[-1] = matrix.n_rows
    # Guarantee monotonicity if many empty rows share an indptr value.
    np.maximum.accumulate(bounds, out=bounds)
    return _with_counts(matrix, bounds)


def partition_rows_by_cost(
    matrix: CSRMatrix,
    n_parts: int,
    nnz_cost: Optional[float] = None,
    row_cost: Optional[float] = None,
    cost_model: Union[str, RowCostModel] = "pbs",
) -> RowPartition:
    """Partition on a *modeled per-row cost*, not raw non-zeros.

    Equal-nnz boundaries balance the value/index stream but ignore the
    fixed per-row work every processed row pays (row-pointer read, the
    warp reduction, the output write, sector-alignment slack) — on
    matrices with many short rows that fixed term dominates, and an
    nnz-balanced chunk holding most of the *rows* becomes the straggler.
    Each row ``i`` is charged ``nnz_cost * len(i) + row_cost`` (both in
    equivalent bytes, mirroring the timing model's DRAM channel) and
    boundaries sit at quantiles of the cumulative cost.

    Coefficients come from a registered :class:`RowCostModel` — the
    ``"pbs"`` default reproduces the historical hard-coded constants —
    and explicit ``nnz_cost``/``row_cost`` arguments override the model
    coefficient-wise (kept for callers that sweep coefficients).

    Like every contiguous row partition, this cannot change a result
    bit: each row's reduction is self-contained, so only *where* rows
    are computed moves, never *what* they compute.
    """
    _check_parts(matrix, n_parts)
    model = (
        cost_model if isinstance(cost_model, RowCostModel)
        else get_cost_model(cost_model)
    )
    if nnz_cost is None:
        nnz_cost = model.nnz_cost
    if row_cost is None:
        row_cost = model.row_cost
    if nnz_cost < 0 or row_cost < 0:
        raise ShapeError(
            f"costs must be non-negative, got nnz_cost={nnz_cost}, "
            f"row_cost={row_cost}"
        )
    lengths = np.diff(matrix.indptr).astype(np.float64)
    cum = np.zeros(matrix.n_rows + 1, dtype=np.float64)
    np.cumsum(lengths * nnz_cost + row_cost, out=cum[1:])
    targets = np.linspace(0.0, cum[-1], n_parts + 1)
    bounds = np.searchsorted(cum, targets, side="left").astype(np.int64)
    bounds[0] = 0
    bounds[-1] = matrix.n_rows
    np.maximum.accumulate(bounds, out=bounds)
    return _with_counts(matrix, bounds)


def partition_quality(partition: RowPartition) -> dict:
    """Summary statistics for reporting/benching."""
    nnz = partition.nnz_per_part
    return {
        "n_parts": partition.n_parts,
        "imbalance": partition.imbalance,
        "max_nnz": int(nnz.max(initial=0)),
        "min_nnz": int(nnz.min(initial=0)),
    }


def extract_row_block(matrix: CSRMatrix, start: int, end: int) -> CSRMatrix:
    """Materialize one contiguous row block as its own CSR matrix.

    The block shares the column space (the input vector is reused across
    chunks), so chunked SpMV concatenates block outputs to reconstruct
    the full result bit-for-bit.
    """
    if not 0 <= start <= end <= matrix.n_rows:
        raise ShapeError(
            f"block [{start}, {end}) outside matrix rows [0, {matrix.n_rows})"
        )
    lo = int(matrix.indptr[start])
    hi = int(matrix.indptr[end])
    indptr = matrix.indptr[start : end + 1].astype(np.int64) - lo
    return CSRMatrix._adopt(
        (end - start, matrix.n_cols),
        matrix.data[lo:hi].copy(),
        matrix.indices[lo:hi].copy(),
        indptr,
    )


def _check_parts(matrix: CSRMatrix, n_parts: int) -> None:
    if n_parts <= 0:
        raise ShapeError(f"n_parts must be positive, got {n_parts}")
    if n_parts > max(matrix.n_rows, 1):
        raise ShapeError(
            f"cannot split {matrix.n_rows} rows into {n_parts} parts"
        )


def _with_counts(matrix: CSRMatrix, bounds: np.ndarray) -> RowPartition:
    nnz = matrix.indptr[bounds[1:]] - matrix.indptr[bounds[:-1]]
    return RowPartition(bounds=bounds, nnz_per_part=nnz.astype(np.int64))
