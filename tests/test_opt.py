"""Objectives, the optimization problem and the solvers."""

import numpy as np
import pytest

from repro.dose.grid import DoseGrid
from repro.dose.structures import sphere_mask
from repro.kernels.csr_vector import HalfDoubleKernel
from repro.opt.objectives import (
    CompositeObjective,
    MaxDoseObjective,
    MeanDoseObjective,
    MinDoseObjective,
    UniformDoseObjective,
)
from repro.opt.problem import PlanOptimizationProblem
from repro.opt.solver import (
    project_nonnegative,
    solve_lbfgs,
    solve_projected_gradient,
)
from repro.util.errors import ShapeError


@pytest.fixture(scope="module")
def roi():
    grid = DoseGrid((8, 8, 5), (8.0, 8.0, 10.0))
    return sphere_mask(grid, grid.center_mm, 18.0, "target")


def numeric_gradient(objective, dose, eps=1e-6):
    grad = np.zeros_like(dose)
    for i in np.flatnonzero(np.abs(objective.gradient(dose)) > 0)[:20]:
        d_plus = dose.copy()
        d_plus[i] += eps
        d_minus = dose.copy()
        d_minus[i] -= eps
        grad[i] = (objective.value(d_plus) - objective.value(d_minus)) / (2 * eps)
    return grad


class TestObjectives:
    def test_uniform_zero_at_prescription(self, roi):
        obj = UniformDoseObjective(roi, 60.0)
        dose = np.zeros(roi.grid.n_voxels)
        dose[roi.voxel_indices] = 60.0
        assert obj.value(dose) == pytest.approx(0.0)

    def test_uniform_gradient_finite_difference(self, roi, rng):
        obj = UniformDoseObjective(roi, 60.0, weight=3.0)
        dose = rng.random(roi.grid.n_voxels) * 70
        analytic = obj.gradient(dose)
        numeric = numeric_gradient(obj, dose)
        nz = numeric != 0
        np.testing.assert_allclose(analytic[nz], numeric[nz], rtol=1e-4)

    def test_max_dose_one_sided(self, roi):
        obj = MaxDoseObjective(roi, 30.0)
        below = np.full(roi.grid.n_voxels, 20.0)
        above = np.full(roi.grid.n_voxels, 40.0)
        assert obj.value(below) == 0.0
        assert obj.value(above) > 0.0
        assert not obj.gradient(below).any()

    def test_min_dose_one_sided(self, roi):
        obj = MinDoseObjective(roi, 50.0)
        below = np.full(roi.grid.n_voxels, 20.0)
        above = np.full(roi.grid.n_voxels, 60.0)
        assert obj.value(above) == 0.0
        assert obj.value(below) > 0.0
        # Deficit gradient pushes dose UP (negative gradient).
        assert obj.gradient(below)[roi.voxel_indices[0]] < 0

    def test_mean_dose_gradient_uniform(self, roi):
        obj = MeanDoseObjective(roi, 10.0)
        dose = np.full(roi.grid.n_voxels, 30.0)
        g = obj.gradient(dose)[roi.voxel_indices]
        assert np.allclose(g, g[0])
        assert g[0] > 0  # mean above goal -> push down

    def test_gradient_zero_outside_roi(self, roi, rng):
        obj = UniformDoseObjective(roi, 60.0)
        g = obj.gradient(rng.random(roi.grid.n_voxels) * 70)
        outside = np.setdiff1d(
            np.arange(roi.grid.n_voxels), roi.voxel_indices
        )
        assert not g[outside].any()

    def test_weight_scales_value(self, roi, rng):
        dose = rng.random(roi.grid.n_voxels) * 70
        v1 = UniformDoseObjective(roi, 60.0, weight=1.0).value(dose)
        v5 = UniformDoseObjective(roi, 60.0, weight=5.0).value(dose)
        assert v5 == pytest.approx(5 * v1)

    def test_composite_sums(self, roi, rng):
        dose = rng.random(roi.grid.n_voxels) * 70
        terms = [
            UniformDoseObjective(roi, 60.0),
            MaxDoseObjective(roi, 30.0, weight=2.0),
        ]
        comp = CompositeObjective(terms)
        assert comp.value(dose) == pytest.approx(
            sum(t.value(dose) for t in terms)
        )
        v, g = comp.value_and_gradient(dose)
        assert v == pytest.approx(comp.value(dose))
        np.testing.assert_allclose(g, comp.gradient(dose))

    def test_composite_needs_terms(self):
        with pytest.raises(ValueError):
            CompositeObjective([])

    def test_shape_check(self, roi):
        with pytest.raises(ShapeError):
            UniformDoseObjective(roi, 60.0).value(np.zeros(3))


class TestProblem:
    def test_dose_matches_reference(self, problem, rng):
        prob, _ = problem
        w = rng.random(prob.n_weights)
        np.testing.assert_allclose(
            prob.dose(w), prob.beams[0].dose(w), rtol=1e-12
        )

    def test_gradient_chain_rule(self, problem, rng):
        prob, _ = problem
        w = rng.random(prob.n_weights)
        v, g = prob.value_and_gradient(w)
        # Directional finite difference.
        d = rng.random(prob.n_weights) - 0.5
        # eps large enough that the difference is not lost to roundoff in
        # the O(1e3) objective value.
        eps = 1e-4
        v_plus, _ = prob.value_and_gradient(w + eps * d)
        v_minus, _ = prob.value_and_gradient(w - eps * d)
        fd = (v_plus - v_minus) / (2 * eps)
        assert float(g @ d) == pytest.approx(fd, rel=1e-3, abs=1e-8)

    def test_accounting_counts_forwards(self, problem, rng):
        prob, _ = problem
        before = prob.accounting.n_forward
        prob.dose(rng.random(prob.n_weights))
        assert prob.accounting.n_forward == before + 1

    def test_kernel_routing_accrues_time(self, tiny_liver_case, problem):
        _, roi = problem
        objective = CompositeObjective([UniformDoseObjective(roi, 60.0)])
        prob = PlanOptimizationProblem(
            [tiny_liver_case], objective, kernel=HalfDoubleKernel()
        )
        prob.dose(np.ones(prob.n_weights))
        assert prob.accounting.modelled_spmv_seconds > 0

    def test_kernel_dose_close_to_exact(self, tiny_liver_case, problem, rng):
        _, roi = problem
        objective = CompositeObjective([UniformDoseObjective(roi, 60.0)])
        prob = PlanOptimizationProblem(
            [tiny_liver_case], objective, kernel=HalfDoubleKernel()
        )
        w = rng.random(prob.n_weights)
        exact = tiny_liver_case.dose(w)
        via_kernel = prob.dose(w)
        err = np.linalg.norm(via_kernel - exact) / np.linalg.norm(exact)
        assert err < 1e-3

    def test_weight_split(self, problem):
        prob, _ = problem
        parts = prob.split_weights(np.arange(prob.n_weights, dtype=float))
        assert sum(p.size for p in parts) == prob.n_weights


class TestSolvers:
    def test_project_nonnegative(self):
        np.testing.assert_array_equal(
            project_nonnegative(np.array([-1.0, 2.0])), [0.0, 2.0]
        )

    @pytest.mark.parametrize("solver", [solve_projected_gradient, solve_lbfgs])
    def test_objective_decreases(self, problem, solver):
        prob, _ = problem
        w0 = np.ones(prob.n_weights)
        v0, _ = prob.value_and_gradient(w0)
        result = solver(prob, w0=w0, max_iterations=15)
        assert result.objective < v0
        assert np.all(result.weights >= 0)

    @pytest.mark.parametrize("solver", [solve_projected_gradient, solve_lbfgs])
    def test_history_monotone_overall(self, problem, solver):
        prob, _ = problem
        result = solver(prob, w0=np.ones(prob.n_weights), max_iterations=15)
        trace = result.objective_trace
        assert trace[-1] <= trace[0]

    def test_improves_target_uniformity(self, problem):
        prob, roi = problem
        w0 = np.ones(prob.n_weights)
        dose0 = prob.dose(w0)
        result = solve_projected_gradient(prob, w0=w0, max_iterations=40)
        dose1 = prob.dose(result.weights)
        dev0 = np.abs(dose0[roi.voxel_indices] - 60.0).mean()
        dev1 = np.abs(dose1[roi.voxel_indices] - 60.0).mean()
        assert dev1 < dev0

    def test_max_iterations_validated(self, problem):
        prob, _ = problem
        with pytest.raises(ValueError):
            solve_projected_gradient(prob, max_iterations=0)

    @pytest.mark.parametrize("solver", [solve_projected_gradient, solve_lbfgs])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_warm_start_refused(self, problem, solver, bad):
        prob, _ = problem
        w0 = np.ones(prob.n_weights)
        w0[3] = bad
        before = prob.accounting.n_forward
        with pytest.raises(ValueError, match=r"w0\[3\]"):
            solver(prob, w0=w0)
        assert prob.accounting.n_forward == before

    @pytest.mark.parametrize("step", [0.0, -1.0, np.nan, np.inf])
    def test_bad_initial_step_refused(self, problem, step):
        prob, _ = problem
        before = prob.accounting.n_forward
        with pytest.raises(ValueError, match="initial_step"):
            solve_projected_gradient(prob, initial_step=step)
        assert prob.accounting.n_forward == before

    def test_lbfgs_max_iterations_validated(self, problem):
        prob, _ = problem
        with pytest.raises(ValueError):
            solve_lbfgs(prob, max_iterations=0)

    def test_converged_flag_on_zero_gradient(self, problem):
        prob, roi = problem
        # Run long enough to converge on this small problem.
        result = solve_projected_gradient(
            prob, max_iterations=300, tolerance=1e-3
        )
        assert result.iterations <= 300
