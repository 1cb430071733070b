"""Scenario-based robust optimization."""

import numpy as np
import pytest

from repro.opt.robust import RobustPlanProblem, setup_error_scenarios
from repro.opt.solver import solve_projected_gradient
from repro.util.errors import ReproError


class TestScenarioGeneration:
    def test_seven_point_set(self):
        scenarios = setup_error_scenarios(5.0)
        assert len(scenarios) == 7
        assert scenarios[0].name == "nominal"
        shifts = {s.shift_mm for s in scenarios}
        assert (5.0, 0.0, 0.0) in shifts and (0.0, 0.0, -5.0) in shifts

    def test_probabilities_sum_to_one(self):
        scenarios = setup_error_scenarios(3.0)
        assert sum(s.probability for s in scenarios) == pytest.approx(1.0)

    def test_diagonal_corners(self):
        scenarios = setup_error_scenarios(3.0, diagonal=True)
        assert len(scenarios) == 15
        corner = next(s for s in scenarios if s.name.startswith("corner"))
        assert np.linalg.norm(corner.shift_mm) == pytest.approx(3.0)

    def test_without_nominal(self):
        assert len(setup_error_scenarios(3.0, include_nominal=False)) == 6

    def test_rejects_nonpositive_magnitude(self):
        with pytest.raises(ReproError):
            setup_error_scenarios(0.0)


class TestScenarioMatrices:
    def test_one_matrix_set_per_scenario(self, scenario_setup):
        _, scenarios, matrices, _ = scenario_setup
        assert set(matrices) == {s.name for s in scenarios}

    def test_shared_column_space(self, scenario_setup):
        _, _, matrices, _ = scenario_setup
        spot_counts = {m[0].n_spots for m in matrices.values()}
        assert len(spot_counts) == 1  # frozen nominal spot map

    def test_shift_changes_dose_pattern(self, scenario_setup):
        _, _, matrices, _ = scenario_setup
        w = np.ones(matrices["nominal"][0].n_spots)
        d_nom = matrices["nominal"][0].dose(w)
        d_shift = matrices["x+"][0].dose(w)
        # Same total-ish energy, different voxels.
        assert np.linalg.norm(d_nom - d_shift) > 0.05 * np.linalg.norm(d_nom)


class TestRobustProblem:
    def test_expected_aggregation_is_mean(self, scenario_setup):
        _, scenarios, matrices, objective = scenario_setup
        prob = RobustPlanProblem(matrices, scenarios, objective, "expected")
        w = np.ones(prob.n_weights)
        v, _ = prob.value_and_gradient(w)
        per = prob.scenario_objectives(w)
        probs = np.asarray([s.probability for s in scenarios])
        probs /= probs.sum()
        expected = float(
            probs @ np.asarray([per[s.name] for s in scenarios])
        )
        assert v == pytest.approx(expected, rel=1e-9)

    def test_worst_case_upper_bounds_max(self, scenario_setup):
        _, scenarios, matrices, objective = scenario_setup
        prob = RobustPlanProblem(matrices, scenarios, objective, "worst_case")
        w = np.ones(prob.n_weights)
        v, _ = prob.value_and_gradient(w)
        _, worst = prob.worst_case_value(w)
        assert v >= worst - 1e-9
        # logsumexp overshoot is bounded by T*log(S).
        assert v <= worst * (1 + 0.25)

    def test_gradient_finite_difference(self, scenario_setup):
        _, scenarios, matrices, objective = scenario_setup
        prob = RobustPlanProblem(matrices, scenarios, objective, "expected")
        rng = np.random.default_rng(3)
        w = 1.0 + rng.random(prob.n_weights)
        v, g = prob.value_and_gradient(w)
        d = rng.random(prob.n_weights) - 0.5
        eps = 1e-4
        vp, _ = prob.value_and_gradient(w + eps * d)
        vm, _ = prob.value_and_gradient(w - eps * d)
        assert float(g @ d) == pytest.approx((vp - vm) / (2 * eps), rel=1e-3)

    def test_accounting_multiplies_by_scenarios(self, scenario_setup):
        _, scenarios, matrices, objective = scenario_setup
        prob = RobustPlanProblem(matrices, scenarios, objective, "expected")
        before = prob.accounting.n_forward
        prob.value_and_gradient(np.ones(prob.n_weights))
        # one forward per scenario per beam (1 beam here, 3 scenarios).
        assert prob.accounting.n_forward - before == 3

    def test_solver_compatible(self, scenario_setup):
        _, scenarios, matrices, objective = scenario_setup
        prob = RobustPlanProblem(matrices, scenarios, objective, "worst_case")
        w0 = np.ones(prob.n_weights)
        v0, _ = prob.value_and_gradient(w0)
        result = solve_projected_gradient(prob, w0=w0, max_iterations=12)
        assert result.objective < v0

    def test_robust_plan_improves_worst_case(self, scenario_setup):
        phantom, scenarios, matrices, objective = scenario_setup
        nominal_prob = RobustPlanProblem(
            {"nominal": matrices["nominal"]}, scenarios[:1], objective,
            "expected",
        )
        robust_prob = RobustPlanProblem(matrices, scenarios, objective,
                                        "worst_case")
        w0 = np.ones(nominal_prob.n_weights)
        d0 = nominal_prob.dose(w0)
        w0 *= 60.0 / max(d0[phantom.target.voxel_indices].mean(), 1e-9)
        nominal = solve_projected_gradient(nominal_prob, w0=w0, max_iterations=30)
        robust = solve_projected_gradient(robust_prob, w0=w0, max_iterations=30)
        _, nominal_worst = robust_prob.worst_case_value(nominal.weights)
        _, robust_worst = robust_prob.worst_case_value(robust.weights)
        assert robust_worst < nominal_worst

    def test_unknown_aggregation(self, scenario_setup):
        _, scenarios, matrices, objective = scenario_setup
        with pytest.raises(ReproError):
            RobustPlanProblem(matrices, scenarios, objective, "median")

    def test_nominal_dose_accessor(self, scenario_setup):
        _, scenarios, matrices, objective = scenario_setup
        prob = RobustPlanProblem(matrices, scenarios, objective)
        w = np.ones(prob.n_weights)
        np.testing.assert_allclose(
            prob.dose(w), prob.scenario_dose("nominal", w)
        )
