"""Memory-transaction accounting: coalescing, sectors and the L2 model.

The quantity the whole paper revolves around is DRAM<->L2 traffic.  This
module converts the *access patterns* of the simulated kernels into sector
counts the way Nsight Compute's ``dram_bytes`` metric would:

* streaming arrays (matrix values, column indices, ``indptr``) are read
  exactly once — compulsory traffic equals their footprint, rounded up to
  32-byte sectors per row segment (a row may start mid-sector);
* gathers from the input vector are filtered by the L2 cache: if the
  vector's touched footprint fits in L2 (it does for every paper case —
  the paper makes this argument explicitly for the A100's 40 MB L2), DRAM
  sees only the compulsory footprint, and all reuse is L2 traffic;
* if the footprint exceeds L2, a streaming-random miss model charges
  refetches proportional to the capacity shortfall.

Footprints are counted without sorting: a ``bincount`` marks the touched
elements and the distinct sectors are the increases along the ascending
touched ids, so pricing raw indices costs O(accesses + vector length)
host time.  A CSR matrix's touched columns are part of its structure
summary, so pricing its gather again costs O(distinct columns)
(DESIGN.md §17).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gpu.device import DeviceSpec
from repro.util.validation import check_index_range


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division."""
    return -(-a // b)


def contiguous_stream_bytes(n_elements: int, elem_bytes: int, sector: int = 32) -> int:
    """Sector-rounded bytes for streaming one contiguous array once."""
    if n_elements <= 0:
        return 0
    return ceil_div(n_elements * elem_bytes, sector) * sector


def segmented_stream_bytes(
    segment_lengths: np.ndarray, elem_bytes: int, sector: int = 32
) -> int:
    """Sector-rounded bytes for streaming many contiguous segments.

    Each non-empty segment may start mid-sector, costing up to one extra
    sector; we charge the expected one-half extra sector per segment,
    rounded into whole sectors at the end.
    """
    lengths = np.asarray(segment_lengths, dtype=np.int64)
    lengths = lengths[lengths > 0]
    if lengths.size == 0:
        return 0
    payload = int(lengths.sum()) * elem_bytes
    # Expected alignment slack: half a sector per segment boundary.
    slack = (lengths.size * sector) // 2
    return ceil_div(payload + slack, sector) * sector


def _touched_ids(idx: np.ndarray, vector_length: int) -> np.ndarray:
    """The distinct ids in ``idx``, ascending, without a sort.

    Raises :class:`ShapeError` naming the first index outside
    ``[0, vector_length)``.
    """
    check_index_range(idx, vector_length, "indices")
    return np.flatnonzero(
        np.bincount(
            idx.ravel().astype(np.intp, copy=False), minlength=vector_length
        )
    )


def _touched_sectors(touched: np.ndarray, elem_bytes: int, sector: int) -> int:
    """Distinct ``sector``-byte sectors holding a touched element.

    ``touched`` is non-empty and ascending, so ``id*elem_bytes // sector``
    is non-decreasing and each distinct sector after the first is one
    increase.
    """
    sectors = touched * elem_bytes // sector
    return 1 + int(np.count_nonzero(sectors[1:] != sectors[:-1]))


@dataclass(frozen=True)
class GatherTraffic:
    """Traffic produced by gathering from a cached vector."""

    #: unique bytes touched (sector-rounded) — compulsory DRAM traffic.
    compulsory_dram_bytes: int
    #: additional DRAM bytes due to capacity misses (0 if vector fits L2).
    refetch_dram_bytes: int
    #: total L2 transaction bytes the gathers generate.
    l2_bytes: int

    @property
    def dram_bytes(self) -> int:
        return self.compulsory_dram_bytes + self.refetch_dram_bytes


def gather_traffic(
    indices: np.ndarray,
    elem_bytes: int,
    vector_length: int,
    device: DeviceSpec,
    accesses: Optional[int] = None,
) -> GatherTraffic:
    """Model gathers ``vector[indices]`` through the device's L2.

    Costs O(``indices.size`` + ``vector_length``) host time and
    8 B x ``vector_length`` scratch, with no sort.

    Parameters
    ----------
    indices:
        element indices accessed (with repetitions, or a representative
        sample; ``accesses`` overrides the total count).  Every index must
        lie in ``[0, vector_length)``; :class:`ShapeError` names the first
        that does not.
    elem_bytes:
        width of one vector element (8 for the double input vector).
    vector_length:
        length of the gathered vector (its full footprint bound).
    device:
        provides sector size and L2 capacity.
    accesses:
        true number of accesses if ``indices`` is a sample.
    """
    idx = np.asarray(indices)
    n_accesses = int(accesses if accesses is not None else idx.size)
    return touched_gather_traffic(
        _touched_ids(idx, vector_length), elem_bytes, device, n_accesses
    )


def touched_gather_traffic(
    touched: np.ndarray, elem_bytes: int, device: DeviceSpec, accesses: int
) -> GatherTraffic:
    """Model ``accesses`` gathers whose distinct ids are ``touched``.

    ``touched`` lists the distinct accessed ids in ascending order (a
    CSR matrix's ``structure.touched_columns``); the cost is
    O(``touched.size``).  An empty ``touched`` prices zero traffic.
    """
    if touched.size == 0:
        return GatherTraffic(0, 0, 0)
    sector = device.sector_bytes
    footprint = _touched_sectors(touched, elem_bytes, sector) * sector
    # Every access is an L2 transaction of one sector worth of data;
    # consecutive lanes hitting the same sector coalesce, which we model by
    # charging element bytes (the dose matrices gather mostly consecutive
    # columns, so intra-warp coalescing is near-perfect).
    l2_bytes = accesses * elem_bytes
    capacity = device.l2_bytes
    if footprint <= capacity:
        return GatherTraffic(footprint, 0, l2_bytes)
    # Streaming-random capacity model: the resident fraction of the
    # footprint hits, the rest misses and refetches a sector.
    miss_rate = 1.0 - capacity / footprint
    refetch = int(miss_rate * accesses) * sector
    return GatherTraffic(footprint, refetch, l2_bytes)


@dataclass(frozen=True)
class ScatterTraffic:
    """Traffic produced by scattered writes / atomics into a vector."""

    #: DRAM write-back bytes (dirty footprint, sector-rounded).
    dram_bytes: int
    #: L2 transaction bytes (every write or atomic visits L2).
    l2_bytes: int


def scatter_traffic(
    indices: np.ndarray,
    elem_bytes: int,
    vector_length: int,
    device: DeviceSpec,
    accesses: Optional[int] = None,
    read_modify_write: bool = False,
) -> ScatterTraffic:
    """Model scattered writes (or atomic RMWs) through L2.

    The dirty footprint is written back to DRAM once; all intermediate
    traffic stays in L2 if the target fits (the paper explains the GPU
    Baseline's DRAM-bandwidth dip exactly this way: the atomic traffic to
    the output vector lives in the 40 MB L2).

    Same cost and index contract as :func:`gather_traffic`: O(accesses +
    ``vector_length``) with no sort, and every index in
    ``[0, vector_length)``.
    """
    sector = device.sector_bytes
    idx = np.asarray(indices)
    n_accesses = int(accesses if accesses is not None else idx.size)
    if idx.size == 0:
        return ScatterTraffic(0, 0)
    footprint = (
        _touched_sectors(_touched_ids(idx, vector_length), elem_bytes, sector)
        * sector
    )
    per_access = elem_bytes * (2 if read_modify_write else 1)
    l2_bytes = n_accesses * per_access
    dram = footprint
    if footprint > device.l2_bytes:
        # Thrashing: lines are evicted and refetched between RMWs.
        miss_rate = 1.0 - device.l2_bytes / footprint
        dram += int(miss_rate * n_accesses) * sector
    return ScatterTraffic(dram, l2_bytes)


def output_write_bytes(n_rows: int, elem_bytes: int, sector: int = 32) -> int:
    """DRAM bytes for writing the dense output vector once (8 per row in
    the paper's analytic model)."""
    return contiguous_stream_bytes(n_rows, elem_bytes, sector)
