"""CUDA cooperative-groups emulation at warp granularity.

The paper's kernel partitions each thread block into 32-thread tiles
(``cg::tiled_partition<32>``) and combines per-lane partial sums with
``cg::reduce``.  What matters for bitwise reproducibility is the *exact
combination order*: ``cg::reduce`` on a warp performs a 5-round butterfly
(shuffle) tree.  This module implements that order, both for a single warp
and vectorized across many warps at once (how the simulator executes all
rows of the matrix efficiently).
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
        if lanes.shape[-1] != self.width:
            raise LaunchConfigError(
                f"lane axis has {lanes.shape[-1]} entries, tile width is "
                f"{self.width}"
            )
        out = lanes.copy()
        if delta <= 0:
            return out
        out[..., : self.width - delta] = lanes[..., delta:]
        return out

    def reduce_add(self, lanes: np.ndarray, axis: int = -1) -> np.ndarray:
        """``cg::reduce(tile, v, plus)`` — butterfly tree sum.

        ``axis`` is the lane axis of ``lanes`` (the last one by default);
        the reduction is vectorized over every other axis, so one call
        reduces every warp of a launch — and every column of a batch —
        simultaneously *in the identical per-warp order* hardware would
        use.

        Returns the reduced values with the lane axis removed.
        """
        lanes = np.asarray(lanes)
        axis = axis % lanes.ndim
        if lanes.shape[axis] != self.width:
            raise LaunchConfigError(
                f"lane axis has {lanes.shape[axis]} entries, tile width is "
                f"{self.width}"
            )

        def lane_range(start: int, stop: int) -> tuple:
            index = [slice(None)] * lanes.ndim
            index[axis] = slice(start, stop)
            return tuple(index)

        acc = lanes
        stride = self.width // 2
        while stride >= 1:
            # shuffle-down round: lane i += lane i+stride.  Lanes at or
            # above ``stride`` are never read again, so each round keeps
            # only the lanes that still feed lane 0.
            acc = acc[lane_range(0, stride)] + acc[lane_range(stride, 2 * stride)]
            stride //= 2
        return np.take(acc, 0, axis=axis)

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
