"""Cooperative-groups emulation and the atomics model."""

import tracemalloc

import numpy as np
import pytest

from repro.gpu.atomics import (
    atomic_conflict_degree,
    atomic_scatter_add,
    expected_ulp_nondeterminism,
)
from repro.gpu.coop import WarpTile, thread_rank_linear
from repro.precision.reproducibility import tree_reduce
from repro.util.errors import LaunchConfigError


class TestWarpTile:
    def test_width_must_be_power_of_two(self):
        with pytest.raises(LaunchConfigError):
            WarpTile(24)

    def test_reduce_matches_tree_reduce(self, rng):
        # The vectorized butterfly must agree bit-for-bit with the scalar
        # reference order in precision.reproducibility.
        tile = WarpTile(32)
        lanes = rng.random((100, 32))
        vec = tile.reduce_add(lanes)
        for i in range(100):
            assert float(vec[i]) == float(tree_reduce(lanes[i], width=32))

    def test_reduce_exact_on_integers(self):
        tile = WarpTile(32)
        lanes = np.arange(32, dtype=np.float64)[None, :]
        assert float(tile.reduce_add(lanes)[0]) == float(lanes.sum())

    def test_reduce_multi_warp_batch(self, rng):
        tile = WarpTile(8)
        lanes = rng.random((5, 7, 8))
        out = tile.reduce_add(lanes)
        assert out.shape == (5, 7)
        want = [[tree_reduce(lanes[i, j], width=8) for j in range(7)]
                for i in range(5)]
        assert out.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("width", [1, 2, 4, 8, 16, 32])
    def test_every_width_and_lane_axis_matches_tree_reduce(self, rng, width):
        # Magnitudes spread over 16 decades make every regrouping visible.
        leading = rng.normal(size=(width, 6, 3)) * 10.0 ** rng.integers(
            -8, 8, size=(width, 6, 3))
        want = np.array([[tree_reduce(leading[:, i, b], width=width)
                          for b in range(3)] for i in range(6)])
        tile = WarpTile(width)
        trailing = np.ascontiguousarray(np.moveaxis(leading, 0, -1))
        for lanes, axis in ((leading, 0), (trailing, -1), (trailing, 2)):
            got = tile.reduce_add(lanes, axis=axis)
            assert got.shape == (6, 3)
            assert got.tobytes() == want.tobytes(), (width, axis)
        in_place = tile.reduce_add_in_place(leading.copy())
        assert in_place.tobytes() == want.tobytes()

    def test_reduce_add_leaves_its_input_untouched(self, rng):
        for width in (2, 32):
            lanes = rng.random((4, width, 3))
            kept = lanes.tobytes()
            WarpTile(width).reduce_add(lanes, axis=1)
            assert lanes.tobytes() == kept
            lanes.setflags(write=False)
            WarpTile(width).reduce_add(lanes, axis=1)

    def test_in_place_form_writes_only_the_array_it_was_handed(self, rng):
        tile = WarpTile(16)
        buffer = rng.random((48, 50, 8))
        around = buffer.copy()
        handed = buffer[16:32]
        want = tile.reduce_add(handed, axis=0)
        tracemalloc.start()
        try:
            got = tile.reduce_add_in_place(handed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096  # no temporary the size of a lane
        assert np.shares_memory(got, handed)
        assert got.tobytes() == want.tobytes()
        assert buffer[:16].tobytes() == around[:16].tobytes()
        assert buffer[32:].tobytes() == around[32:].tobytes()
        with pytest.raises(LaunchConfigError):
            tile.reduce_add_in_place(buffer)

    def test_reduce_rejects_wrong_lane_count(self):
        with pytest.raises(LaunchConfigError):
            WarpTile(32).reduce_add(np.zeros((4, 16)))

    def test_reduce_rounds(self):
        assert WarpTile(32).reduce_rounds == 5
        assert WarpTile(4).reduce_rounds == 2

    def test_shfl_down(self):
        tile = WarpTile(4)
        lanes = np.array([10.0, 20.0, 30.0, 40.0])
        shifted = tile.shfl_down(lanes, 1)
        np.testing.assert_array_equal(shifted, [20.0, 30.0, 40.0, 40.0])

    def test_shfl_down_zero_delta(self):
        tile = WarpTile(4)
        lanes = np.arange(4.0)
        np.testing.assert_array_equal(tile.shfl_down(lanes, 0), lanes)


class TestThreadRank:
    def test_lane_ids(self):
        ranks = thread_rank_linear(64, warp_size=32)
        assert ranks.shape == (64,)
        np.testing.assert_array_equal(ranks[:32], np.arange(32))
        np.testing.assert_array_equal(ranks[32:], np.arange(32))

    def test_partial_warp_block_rejected(self):
        with pytest.raises(LaunchConfigError):
            thread_rank_linear(40, warp_size=32)


class TestAtomicScatterAdd:
    def test_total_preserved(self, rng):
        out = np.zeros(10)
        idx = rng.integers(0, 10, size=100)
        vals = rng.random(100)
        atomic_scatter_add(out, idx, vals, rng=0)
        assert out.sum() == pytest.approx(vals.sum())

    def test_per_target_sums(self, rng):
        out = np.zeros(5)
        idx = np.array([0, 0, 3, 3, 3])
        vals = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        atomic_scatter_add(out, idx, vals, rng=1)
        np.testing.assert_allclose(out, [3.0, 0, 0, 28.0, 0])

    def test_seeded_commit_order_reproducible(self, rng):
        idx = rng.integers(0, 50, size=2000)
        vals = rng.random(2000) * 10.0 ** rng.integers(-6, 6, size=2000)
        a = atomic_scatter_add(np.zeros(50), idx, vals, rng=7)
        b = atomic_scatter_add(np.zeros(50), idx, vals, rng=7)
        np.testing.assert_array_equal(a, b)

    def test_different_orders_differ_in_bits(self, rng):
        idx = rng.integers(0, 3, size=3000)
        vals = rng.random(3000) * 10.0 ** rng.integers(-8, 8, size=3000)
        results = {
            atomic_scatter_add(np.zeros(3), idx, vals, rng=s).tobytes()
            for s in range(10)
        }
        assert len(results) > 1

    def test_spread_within_bound(self, rng):
        idx = np.zeros(5000, dtype=np.int64)
        vals = rng.random(5000) * 10.0 ** rng.integers(-8, 8, size=5000)
        sums = [
            float(atomic_scatter_add(np.zeros(1), idx, vals, rng=s)[0])
            for s in range(10)
        ]
        assert max(sums) - min(sums) <= expected_ulp_nondeterminism(vals)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            atomic_scatter_add(np.zeros(2), np.array([0]), np.array([1.0, 2.0]))

    def test_empty_noop(self):
        out = np.ones(3)
        atomic_scatter_add(out, np.array([], np.int64), np.array([]))
        np.testing.assert_array_equal(out, np.ones(3))


class TestConflictDegree:
    def test_conflict_free(self):
        assert atomic_conflict_degree(np.arange(100)) == 1.0

    def test_all_same_address(self):
        assert atomic_conflict_degree(np.zeros(50, np.int64)) == 50.0

    def test_empty(self):
        assert atomic_conflict_degree(np.array([], np.int64)) == 1.0

    def test_intermediate(self):
        deg = atomic_conflict_degree(np.array([0, 0, 1]))
        assert 1.0 < deg < 3.0
