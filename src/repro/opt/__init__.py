"""Plan-optimization application layer: objectives, problem, solvers."""

from repro.opt.dist.loop import project_nonnegative
from repro.opt.dvh_objectives import (
    MaxDVHObjective,
    MinDVHObjective,
    dvh_objective_satisfied,
)
from repro.opt.objectives import (
    CompositeObjective,
    DoseObjective,
    MaxDoseObjective,
    MeanDoseObjective,
    MinDoseObjective,
    UniformDoseObjective,
)
from repro.opt.problem import PlanOptimizationProblem, SpMVAccounting
from repro.opt.robust import (
    RobustPlanProblem,
    Scenario,
    build_scenario_matrices,
    setup_error_scenarios,
)
from repro.opt.solver import (
    IterationRecord,
    OptimizationResult,
    solve_lbfgs,
    solve_projected_gradient,
)

__all__ = [
    "CompositeObjective",
    "DoseObjective",
    "MaxDoseObjective",
    "MeanDoseObjective",
    "MinDoseObjective",
    "UniformDoseObjective",
    "MaxDVHObjective",
    "MinDVHObjective",
    "dvh_objective_satisfied",
    "PlanOptimizationProblem",
    "SpMVAccounting",
    "RobustPlanProblem",
    "Scenario",
    "build_scenario_matrices",
    "setup_error_scenarios",
    "IterationRecord",
    "OptimizationResult",
    "project_nonnegative",
    "solve_lbfgs",
    "solve_projected_gradient",
]
