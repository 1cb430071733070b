"""Sharding, device pools, placement, and the shard retry budget."""

import pytest

from repro.dist.executor import (
    DeviceFailure,
    FailureInjector,
    RetryBudget,
    ShardExecutionError,
    run_shard_with_retry,
)
from repro.dist.pool import (
    DevicePool,
    Placement,
    SimulatedDevice,
    place_memory_aware,
    place_round_robin,
    place_shards,
)
from repro.dist.sharding import ShardSpec, ShardedMatrix, shard_matrix
from repro.gpu.device import A100, get_device
from repro.util.errors import ShapeError


class TestShardMatrix:
    def test_shards_cover_source_rows(self, heavy_tail_csr):
        sharded = shard_matrix(heavy_tail_csr, 5)
        assert sharded.n_shards == 5
        assert sharded.specs[0].row_start == 0
        assert sharded.specs[-1].row_end == heavy_tail_csr.n_rows
        for prev, cur in zip(sharded.specs, sharded.specs[1:]):
            assert prev.row_end == cur.row_start

    def test_blocks_match_specs(self, heavy_tail_csr):
        sharded = shard_matrix(heavy_tail_csr, 4)
        for spec, block in zip(sharded.specs, sharded.blocks):
            assert block.n_rows == spec.n_rows
            assert block.n_cols == heavy_tail_csr.n_cols
            assert block.nnz == spec.nnz

    def test_nnz_conserved(self, heavy_tail_csr):
        sharded = shard_matrix(heavy_tail_csr, 7)
        assert sum(sharded.nnz_per_shard) == heavy_tail_csr.nnz

    def test_balanced_beats_equal_rows(self, heavy_tail_csr):
        bal = shard_matrix(heavy_tail_csr, 8, policy="balanced")
        eq = shard_matrix(heavy_tail_csr, 8, policy="equal_rows")
        assert bal.imbalance <= eq.imbalance

    def test_unknown_policy_rejected(self, small_csr):
        with pytest.raises(ShapeError):
            shard_matrix(small_csr, 2, policy="random")

    def test_single_shard(self, small_csr):
        sharded = shard_matrix(small_csr, 1)
        assert sharded.n_shards == 1
        assert sharded.specs[0].n_rows == small_csr.n_rows

    def test_spec_validation(self):
        with pytest.raises(ShapeError):
            ShardSpec(index=-1, row_start=0, row_end=5, nnz=3)
        with pytest.raises(ShapeError):
            ShardSpec(index=0, row_start=5, row_end=2, nnz=3)

    def test_specs_must_be_ordered_by_index(self, small_csr):
        good = shard_matrix(small_csr, 2)
        with pytest.raises(ShapeError):
            ShardedMatrix(
                source=small_csr,
                specs=(good.specs[1], good.specs[0]),
                blocks=(good.blocks[1], good.blocks[0]),
                policy="balanced",
            )


class TestDevicePool:
    def test_homogeneous_pool_names(self):
        pool = DevicePool.homogeneous(3)
        assert pool.n_devices == 3
        assert [d.name for d in pool.devices] == [
            "A100:0", "A100:1", "A100:2",
        ]

    def test_of_uses_catalogue_device(self):
        pool = DevicePool.of(2, "V100")
        assert pool.devices[0].spec == get_device("V100")

    def test_empty_pool_rejected(self):
        with pytest.raises(ShapeError):
            DevicePool(devices=())
        with pytest.raises(ShapeError):
            DevicePool.homogeneous(0)

    def test_devices_must_be_ordered(self):
        with pytest.raises(ShapeError):
            DevicePool(
                devices=(
                    SimulatedDevice(device_id=1, spec=A100),
                    SimulatedDevice(device_id=0, spec=A100),
                )
            )


class TestPlacement:
    def test_round_robin_assignments(self, heavy_tail_csr):
        sharded = shard_matrix(heavy_tail_csr, 6)
        placement = place_round_robin(sharded, DevicePool.homogeneous(2))
        assert placement.assignments == (0, 1, 0, 1, 0, 1)
        assert placement.shards_on(0) == (0, 2, 4)
        assert placement.shards_on(1) == (1, 3, 5)

    def test_memory_aware_is_deterministic(self, heavy_tail_csr):
        sharded = shard_matrix(heavy_tail_csr, 8)
        pool = DevicePool.homogeneous(3)
        a = place_memory_aware(sharded, pool)
        b = place_memory_aware(sharded, pool)
        assert a.assignments == b.assignments
        assert len(a.assignments) == 8
        # every device gets at least one of 8 shards on 3 devices
        assert set(a.assignments) == {0, 1, 2}

    def test_place_shards_dispatch(self, heavy_tail_csr):
        sharded = shard_matrix(heavy_tail_csr, 4)
        pool = DevicePool.homogeneous(2)
        assert place_shards(sharded, pool, "round_robin").policy == "round_robin"
        assert place_shards(sharded, pool, "memory").policy == "memory"
        with pytest.raises(ShapeError):
            place_shards(sharded, pool, "zebra")

    def test_assignment_bounds_validated(self):
        with pytest.raises(ShapeError):
            Placement(policy="round_robin", assignments=(0, 2), n_devices=2)


class TestRetry:
    def test_injector_fails_then_succeeds(self):
        injector = FailureInjector.fail_once(1)
        with pytest.raises(DeviceFailure):
            injector.maybe_fail(1)
        injector.maybe_fail(1)  # second attempt clean
        injector.maybe_fail(0)  # untargeted shard never fails

    def test_retry_recovers_within_budget(self):
        injector = FailureInjector.fail_once(0)
        budget = RetryBudget(total=2)
        calls = []

        def fn():
            calls.append(1)
            return "ok"

        assert run_shard_with_retry(0, "A100:0", fn, budget, injector) == "ok"
        assert budget.spent == 1
        assert len(calls) == 1  # the injector fires before fn runs

    def test_budget_exhaustion_raises(self):
        injector = FailureInjector(failures={0: 10})
        budget = RetryBudget(total=1)
        with pytest.raises(ShardExecutionError):
            run_shard_with_retry(0, "A100:0", lambda: "ok", budget, injector)

    def test_zero_budget_fails_on_first_failure(self):
        injector = FailureInjector.fail_once(3)
        with pytest.raises(ShardExecutionError):
            run_shard_with_retry(
                3, "A100:1", lambda: "ok", RetryBudget(total=0), injector
            )
