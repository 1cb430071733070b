"""The resumable loop: checkpoints, terminals, kill/resume bitwise."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.dispatch import make_kernel
from repro.opt.dist import (
    CHECKPOINT_SCHEMA,
    OBJECTIVE_PRESETS,
    CheckpointError,
    DistributedObjectiveEvaluator,
    LocalObjectiveEvaluator,
    TerminalState,
    build_objective,
    checkpoint_dict,
    initial_state,
    restore_state,
    run_to_completion,
    warm_start,
)
from tests.conftest import make_random_csr


def _problem(seed=0, n_rows=40, n_cols=16, preset="uniform"):
    rng = np.random.default_rng(seed)
    matrix = make_random_csr(
        rng, n_rows=n_rows, n_cols=n_cols, density=0.35
    ).astype(np.float16)
    specs = OBJECTIVE_PRESETS[preset]
    return matrix, specs, build_objective(specs, matrix)


def _local(matrix):
    return LocalObjectiveEvaluator(matrix, make_kernel("half_double"))


class TestTerminals:
    def test_converged_immediately_with_loose_tolerance(self):
        matrix, _, objective = _problem()
        evaluator = _local(matrix)
        state = initial_state(
            evaluator, objective, warm_start(0, matrix.n_cols)
        )
        outcome = run_to_completion(
            evaluator, objective, state, tolerance=1.0
        )
        assert outcome.terminal is TerminalState.CONVERGED
        assert [p.iteration for p in outcome.points] == [0]

    def test_budget_exhausted(self):
        matrix, _, objective = _problem()
        evaluator = _local(matrix)
        state = initial_state(
            evaluator, objective, warm_start(0, matrix.n_cols)
        )
        outcome = run_to_completion(
            evaluator, objective, state,
            tolerance=1e-12, max_iterations=3,
        )
        assert outcome.terminal is TerminalState.BUDGET_EXHAUSTED
        assert outcome.state.iteration == 3
        assert [p.iteration for p in outcome.points] == [0, 1, 2, 3]

    def test_preempted_by_halt_after(self):
        matrix, _, objective = _problem()
        evaluator = _local(matrix)
        state = initial_state(
            evaluator, objective, warm_start(0, matrix.n_cols)
        )
        outcome = run_to_completion(
            evaluator, objective, state,
            tolerance=1e-12, max_iterations=8, halt_after=2,
        )
        assert outcome.terminal is TerminalState.PREEMPTED
        assert outcome.state.iteration == 2

    def test_failed_is_typed_not_raised(self):
        matrix, _, objective = _problem()

        class Exploding:
            n_weights = matrix.n_cols
            n_shards = 1

            def value_and_gradient(self, w, objective):
                raise RuntimeError("device lost")

        evaluator = _local(matrix)
        state = initial_state(
            evaluator, objective, warm_start(0, matrix.n_cols)
        )
        outcome = run_to_completion(
            Exploding(), objective, state,
            tolerance=1e-12, max_iterations=5,
        )
        assert outcome.terminal is TerminalState.FAILED
        assert "device lost" in outcome.detail

    def test_objective_monotonically_nonincreasing(self):
        matrix, _, objective = _problem(preset="clinical")
        evaluator = _local(matrix)
        state = initial_state(
            evaluator, objective, warm_start(0, matrix.n_cols)
        )
        outcome = run_to_completion(
            evaluator, objective, state,
            tolerance=1e-12, max_iterations=6,
        )
        values = [p.objective for p in outcome.points]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestWarmStartChecks:
    @pytest.mark.parametrize("step", [0.0, -1.0, np.nan, np.inf])
    def test_bad_initial_step_refused(self, step):
        matrix, _, objective = _problem()
        with pytest.raises(ValueError, match="initial_step"):
            initial_state(
                _local(matrix), objective, warm_start(0, matrix.n_cols),
                initial_step=step,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_w0_refused(self, bad):
        # -inf would otherwise be projected to a silent 0.
        matrix, _, objective = _problem()
        w0 = warm_start(0, matrix.n_cols)
        w0[5] = bad
        with pytest.raises(ValueError, match=r"w0\[5\]"):
            initial_state(_local(matrix), objective, w0)


class TestCheckpointSerialization:
    def test_round_trip_is_bitwise(self):
        matrix, _, objective = _problem()
        evaluator = _local(matrix)
        state = initial_state(
            evaluator, objective, warm_start(0, matrix.n_cols)
        )
        outcome = run_to_completion(
            evaluator, objective, state,
            tolerance=1e-12, max_iterations=4,
        )
        data = checkpoint_dict(outcome.state, seed=0)
        assert data["schema"] == CHECKPOINT_SCHEMA
        assert data["rng"] == {
            "kind": "stable_seed", "seed": 0,
            "draws_after_warm_start": 0,
        }
        # Through JSON: the artifact is the transport, so the encoding
        # must survive serialization without losing a bit.
        restored = restore_state(json.loads(json.dumps(data)))
        assert restored.iteration == outcome.state.iteration
        assert restored.value == outcome.state.value
        assert (
            float(restored.step).hex()
            == float(outcome.state.step).hex()
        )
        np.testing.assert_array_equal(restored.w, outcome.state.w)
        np.testing.assert_array_equal(restored.grad, outcome.state.grad)

    def test_unknown_schema_rejected(self):
        with pytest.raises(CheckpointError):
            restore_state({"schema": "repro.opt-checkpoint/v0"})

    def test_malformed_checkpoint_rejected(self):
        with pytest.raises(CheckpointError):
            restore_state({"schema": CHECKPOINT_SCHEMA, "iteration": 1})

    def test_wrong_typed_checkpoint_fields_rejected(self):
        # Wrong-typed fields must surface as the documented typed
        # CheckpointError, not a raw TypeError.
        import base64

        arr = {
            "dtype": "<f8",
            "shape": [2],
            "data_b64": base64.b64encode(
                np.zeros(2).tobytes()
            ).decode("ascii"),
        }
        valid = {
            "schema": CHECKPOINT_SCHEMA,
            "iteration": 1,
            "n_evals": 2,
            "value": 0.5,
            "value_hex": (0.5).hex(),
            "pg_norm_hex": (0.1).hex(),
            "step_hex": (1.0).hex(),
            "initial_norm_hex": (1.0).hex(),
            "w": arr,
            "grad": arr,
        }
        restore_state(dict(valid))  # the baseline really is restorable
        for field, bad in (
            ("w", 42),  # array payload not a dict
            ("w", {**arr, "shape": 2}),  # shape not a list
            ("grad", None),
            ("iteration", None),
        ):
            corrupted = dict(valid)
            corrupted[field] = bad
            with pytest.raises(CheckpointError):
                restore_state(corrupted)


class TestKillResumeProperty:
    """Satellite invariant: kill at ANY iteration boundary, resume from
    the checkpoint — the stitched trajectory is bitwise identical to the
    uninterrupted run, at any shard count, for any objective preset
    (including the non-smooth DVH terms)."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        kill_at=st.integers(min_value=1, max_value=5),
        shards=st.integers(min_value=1, max_value=4),
        preset=st.sampled_from(sorted(OBJECTIVE_PRESETS)),
    )
    def test_stitched_equals_uninterrupted(
        self, seed, kill_at, shards, preset
    ):
        matrix, _, objective = _problem(
            seed=seed, n_rows=30, n_cols=12, preset=preset
        )
        w0 = warm_start(seed, matrix.n_cols)

        def evaluator():
            return DistributedObjectiveEvaluator(
                matrix, make_kernel("half_double"), shards
            )

        kwargs = dict(tolerance=1e-12, max_iterations=6)
        uninterrupted = run_to_completion(
            evaluator(), objective,
            initial_state(evaluator(), objective, w0), **kwargs
        )
        halt = min(kill_at, uninterrupted.state.iteration)
        halted = run_to_completion(
            evaluator(), objective,
            initial_state(evaluator(), objective, w0),
            halt_after=halt, **kwargs
        )
        # Serialize through JSON — exactly what the artifact round-trip
        # does — then resume from the restored state.
        checkpoint = json.loads(
            json.dumps(checkpoint_dict(halted.state, seed=seed))
        )
        resumed = run_to_completion(
            evaluator(), objective, restore_state(checkpoint), **kwargs
        )
        stitched = list(halted.points) + list(resumed.points)
        assert [p.iteration for p in stitched] == [
            p.iteration for p in uninterrupted.points
        ]
        assert [p.key() for p in stitched] == [
            p.key() for p in uninterrupted.points
        ]
        assert resumed.terminal == uninterrupted.terminal
