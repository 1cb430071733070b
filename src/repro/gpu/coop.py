"""CUDA cooperative-groups emulation at warp granularity.

The paper's kernel partitions each thread block into 32-thread tiles
(``cg::tiled_partition<32>``) and combines per-lane partial sums with
``cg::reduce``.  What matters for bitwise reproducibility is the *exact
combination order*: ``cg::reduce`` on a warp performs a 5-round butterfly
(shuffle) tree.  This module implements that order, both for a single warp
and vectorized across many warps at once (how the simulator executes all
rows of the matrix efficiently).  :class:`WarpTile` is the one place the
round order lives: compiled plans run it in place over a leading lane
axis, the per-call kernels on a copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import LaunchConfigError


@dataclass(frozen=True)
class WarpTile:
    """A ``tiled_partition<width>`` handle.

    Only the collective used by the paper's kernel (``reduce`` with plus)
    is provided; ``shfl_down`` is exposed for completeness and tests.
    """

    width: int = 32

    def __post_init__(self) -> None:
        if self.width <= 0 or (self.width & (self.width - 1)) != 0:
            raise LaunchConfigError(
                f"tile width must be a power of two, got {self.width}"
            )

    def shfl_down(self, lanes: np.ndarray, delta: int) -> np.ndarray:
        """``tile.shfl_down(v, delta)``: lane ``i`` receives lane ``i+delta``.

        Lanes shifted in from beyond the tile keep their own value,
        matching CUDA's behaviour for out-of-range source lanes.
        """
        lanes = np.asarray(lanes)
        self._check_lanes(lanes.shape[-1])
        out = lanes.copy()
        if delta <= 0:
            return out
        out[..., : self.width - delta] = lanes[..., delta:]
        return out

    def _check_lanes(self, n_lanes: int) -> None:
        if n_lanes != self.width:
            raise LaunchConfigError(
                f"lane axis has {n_lanes} entries, tile width is {self.width}"
            )

    def reduce_add(self, lanes: np.ndarray, axis: int = -1) -> np.ndarray:
        """``cg::reduce(tile, v, plus)`` — butterfly tree sum.

        ``axis`` is the lane axis of ``lanes`` (the last one by default);
        the reduction is vectorized over every other axis, so one call
        reduces every warp of a launch — and every column of a batch —
        simultaneously *in the identical per-warp order* hardware would
        use.  ``lanes`` is left untouched: the rounds of
        :meth:`reduce_add_in_place` run on a private copy.

        Returns the reduced values with the lane axis removed.
        """
        lanes = np.asarray(lanes)
        axis = axis % lanes.ndim
        self._check_lanes(lanes.shape[axis])
        return self.reduce_add_in_place(np.moveaxis(lanes, axis, 0).copy()).copy()

    def reduce_add_in_place(self, lanes: np.ndarray) -> np.ndarray:
        """:meth:`reduce_add` over the leading axis, in place.

        Round ``h`` (``width/2``, ..., 1) adds lane ``i + h`` into lane
        ``i`` for every ``i < h``, with ``np.add(..., out=...)`` over two
        halves of ``lanes`` (contiguous when ``lanes`` is C-contiguous).
        Every lane of ``lanes`` is overwritten with an intermediate sum,
        and nothing is allocated.  Returns lane 0, a view of ``lanes``
        (a scalar when ``lanes`` is 1-D).
        """
        self._check_lanes(lanes.shape[0])
        stride = self.width // 2
        while stride >= 1:
            # shuffle-down round: lane i += lane i+stride.  Lanes at or
            # above ``stride`` are never read again, so each round touches
            # only the lanes that still feed lane 0.
            np.add(lanes[:stride], lanes[stride:2 * stride],
                   out=lanes[:stride])
            stride //= 2
        return lanes[0]

    @property
    def reduce_rounds(self) -> int:
        """Number of shuffle rounds one reduce costs (log2(width))."""
        return int(self.width).bit_length() - 1


def thread_rank_linear(block_dim: int, warp_size: int = 32) -> np.ndarray:
    """Lane ids 0..warp_size-1 for each warp of a block (test helper)."""
    if block_dim % warp_size:
        raise LaunchConfigError(
            f"block of {block_dim} threads is not a whole number of warps"
        )
    return np.tile(np.arange(warp_size), block_dim // warp_size)
