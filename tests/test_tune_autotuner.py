"""The execution autotuner: candidate space, bitwise audit, cache flow.

The tuner's contract has three legs: every candidate it even considers
is validated bitwise against the kernel's own reference run; a warm
cache entry short-circuits the sweep entirely (``cache_hit``); and the
consult-only lookup used by the serving/optimization layers never tunes.
"""

import numpy as np
import pytest

from repro.bench.harness import convert_for_kernel
from repro.dist.evaluator import ShardedEvaluator
from repro.kernels.dispatch import make_kernel
from repro.obs import metrics
from repro.tune import (
    ExecutionConfig,
    TuningCache,
    autotune,
    candidate_space,
    tuned_config_for,
)
from repro.util.errors import ReproError
from repro.util.rng import make_rng, stable_seed
from tests.conftest import make_random_csr


@pytest.fixture(scope="module")
def kernel():
    return make_kernel("half_double")


@pytest.fixture(scope="module")
def matrix(kernel):
    rng = make_rng(stable_seed("tune-autotuner-test", 0))
    m = make_random_csr(rng, n_rows=350, n_cols=50, density=0.15)
    return convert_for_kernel(m, kernel.name)


#: a small candidate slate so sweeps stay sub-second in unit tests.
SMALL_SPACE = (
    ExecutionConfig(threads_per_block=256, n_shards=1),
    ExecutionConfig(threads_per_block=256, n_shards=4),
    ExecutionConfig(threads_per_block=512, n_shards=4, shard_policy="cost"),
    ExecutionConfig(threads_per_block=512, n_shards=2, dispatch="launch"),
)


class TestCandidateSpace:
    def test_dedupes_single_shard_policies(self):
        space = candidate_space(n_rows=1000, n_devices=4)
        singles = [c for c in space if c.n_shards == 1]
        # One representative per block size: policy/placement are inert.
        assert len(singles) == len({c.threads_per_block for c in singles})

    def test_drops_shard_counts_above_rows(self):
        space = candidate_space(n_rows=3, n_devices=4)
        assert all(c.n_shards <= 3 for c in space)

    def test_all_candidates_valid_configs(self):
        for config in candidate_space(n_rows=1000, n_devices=8):
            assert config.threads_per_block >= 1
            assert config.n_shards >= 1


class TestAutotune:
    def test_winner_is_modeled_minimum_and_validated(self, matrix, kernel):
        cache = TuningCache()
        result = autotune(
            matrix, kernel, cache=cache, candidates=SMALL_SPACE
        )
        assert not result.cache_hit
        entry = result.entry
        assert entry.bitwise_validated
        assert entry.candidates_tried == len(SMALL_SPACE)
        assert len(result.outcomes) == len(SMALL_SPACE)
        assert entry.modeled_wall_s == min(
            o.modeled_wall_s for o in result.outcomes
        )
        assert all(o.bitwise_identical for o in result.outcomes)

    def test_warm_cache_skips_sweep(self, matrix, kernel):
        cache = TuningCache()
        first = autotune(matrix, kernel, cache=cache, candidates=SMALL_SPACE)
        skipped_before = metrics.counter("tune.sweeps_skipped").value
        second = autotune(matrix, kernel, cache=cache, candidates=SMALL_SPACE)
        assert second.cache_hit
        assert second.outcomes == ()
        assert second.entry == first.entry
        assert metrics.counter("tune.sweeps_skipped").value \
            == skipped_before + 1

    def test_tuned_config_bitwise_equals_default(
        self, matrix, kernel
    ):
        cache = TuningCache()
        entry = autotune(
            matrix, kernel, cache=cache, candidates=SMALL_SPACE
        ).entry
        config = entry.config
        weights = make_rng(stable_seed("tune-bitwise", 1)).random(
            matrix.n_cols
        )
        reference = kernel.run(
            matrix, weights, plan=kernel.prepare_plan(matrix)
        )
        tuned = ShardedEvaluator(
            matrix,
            kernel,
            config.n_shards,
            placement=config.placement,
            shard_policy=config.shard_policy,
            dispatch=config.dispatch,
            threads_per_block=config.threads_per_block,
        ).evaluate(weights)
        assert np.array_equal(tuned.doses, reference.y)

    def test_device_and_pool_width_key_separately(self, matrix, kernel):
        cache = TuningCache()
        autotune(matrix, kernel, n_devices=2, cache=cache,
                 candidates=SMALL_SPACE)
        assert len(cache) == 1
        autotune(matrix, kernel, n_devices=8, cache=cache,
                 candidates=SMALL_SPACE)
        assert len(cache) == 2

    def test_plan_free_kernel_rejected(self, matrix):
        with pytest.raises(ReproError):
            autotune(matrix, make_kernel("cusparse"), cache=TuningCache())


class TestConsultOnly:
    def test_cold_cache_returns_none(self, matrix, kernel):
        assert tuned_config_for(
            matrix, kernel, cache=TuningCache()
        ) is None

    def test_warm_cache_returns_config(self, matrix, kernel):
        cache = TuningCache()
        entry = autotune(
            matrix, kernel, cache=cache, candidates=SMALL_SPACE
        ).entry
        config = tuned_config_for(matrix, kernel, cache=cache)
        assert config == entry.config

    def test_plan_free_kernel_returns_none(self, matrix):
        assert tuned_config_for(
            matrix, make_kernel("cusparse"), cache=TuningCache()
        ) is None

    def test_lookup_never_populates(self, matrix, kernel):
        cache = TuningCache()
        tuned_config_for(matrix, kernel, cache=cache)
        assert len(cache) == 0


class TestWiring:
    def test_serve_backend_uses_warm_entry(self, matrix, kernel):
        from repro.dist.backend import ShardedServeBackend
        from repro.tune import set_tune_cache

        backend = ShardedServeBackend(shards=2)
        cache = TuningCache()
        set_tune_cache(cache)
        entry = autotune(
            matrix,
            kernel,
            n_devices=backend.pool.n_devices,
            cache=cache,
            candidates=SMALL_SPACE,
        ).entry
        evaluator = backend.forward_evaluator(matrix, kernel)
        assert evaluator.n_shards == entry.config.n_shards

    def test_serve_backend_cold_cache_uses_defaults(self, matrix, kernel):
        from repro.dist.backend import ShardedServeBackend

        backend = ShardedServeBackend(shards=3)
        evaluator = backend.forward_evaluator(matrix, kernel)
        assert evaluator.n_shards == 3
