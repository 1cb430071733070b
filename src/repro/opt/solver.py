"""Solvers for the spot-weight optimization problem.

Spot weights are physically non-negative, so the canonical solver is
projected gradient descent with Barzilai-Borwein step sizes: a caller
of the one loop of :mod:`repro.opt.dist.loop`, fed by the problem's
``value_and_gradient(w)``.  A projected L-BFGS (projection after the
two-loop update) is provided for faster convergence on the
better-conditioned prostate cases.  Both report per-iteration statistics
so the examples can show how many dose calculations a plan costs — the
quantity the paper's GPU port accelerates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.obs import metrics
from repro.obs.clock import Clock, get_clock
from repro.obs.trace import span as trace_span, traced
from repro.opt.dist.loop import (
    TerminalState,
    advance,
    feasible_start,
    initial_state,
    project_nonnegative,
    projected_gradient_norm,
    stop_reason,
)
from repro.opt.objectives import CompositeObjective
from repro.opt.problem import PlanOptimizationProblem
from repro.util.errors import ConvergenceError


def _eval(
    problem: PlanOptimizationProblem, w: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Objective/gradient evaluation, counted: each one is a dose
    calculation (SpMV + adjoint) — the quantity the paper's GPU port
    accelerates."""
    metrics.counter("opt.objective_evals").inc()
    return problem.value_and_gradient(w)


@dataclass
class IterationRecord:
    """One optimizer iteration's statistics."""

    iteration: int
    objective: float
    gradient_norm: float
    #: wall time of this iteration per the injected clock (0.0 when the
    #: clock stands still, e.g. a FakeClock in tests).
    wall_s: float = 0.0


@dataclass
class OptimizationResult:
    """Solution and convergence history."""

    weights: np.ndarray
    objective: float
    iterations: int
    converged: bool
    history: List[IterationRecord] = field(default_factory=list)
    #: total solve wall time per the injected clock.
    wall_s: float = 0.0

    @property
    def objective_trace(self) -> np.ndarray:
        return np.asarray([r.objective for r in self.history])


class _Evaluation(NamedTuple):
    value: float
    gradient: np.ndarray


@dataclass(frozen=True)
class _ProblemEvaluator:
    """A problem's ``value_and_gradient(w)`` as the loop's evaluator (the
    problem owns its objective, so the loop's is not read)."""

    problem: PlanOptimizationProblem
    n_shards = 1

    def value_and_gradient(
        self, w: np.ndarray, objective: CompositeObjective
    ) -> _Evaluation:
        return _Evaluation(*self.problem.value_and_gradient(w))


@traced("opt.solve", solver="projected_gradient")
def solve_projected_gradient(
    problem: PlanOptimizationProblem,
    w0: Optional[np.ndarray] = None,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
    initial_step: float = 1.0,
    raise_on_failure: bool = False,
    clock: Optional[Clock] = None,
) -> OptimizationResult:
    """Projected gradient with Barzilai-Borwein step adaptation.

    Converged when the projected-gradient norm falls below ``tolerance``
    times its initial value.  ``clock`` (injectable for tests; defaults
    to the process clock) times each iteration without touching the
    math: timing is observational, never part of the trajectory.
    Bad ``w0`` or ``initial_step``: see :func:`initial_state`.
    """
    if max_iterations <= 0:
        raise ValueError("max_iterations must be positive")
    clock = clock or get_clock()
    solve_start = clock.monotonic()
    evaluator = _ProblemEvaluator(problem)
    state = initial_state(
        evaluator, problem.objective,
        np.full(problem.n_weights, 1.0) if w0 is None else w0,
        initial_step=initial_step,
    )
    history: List[IterationRecord] = []
    while (stop := stop_reason(state, tolerance, max_iterations)) is None:
        iter_start = clock.monotonic()
        state = advance(
            evaluator, problem.objective, state, initial_step=initial_step
        )
        history.append(IterationRecord(
            state.iteration, state.value, state.pg_norm,
            wall_s=clock.monotonic() - iter_start,
        ))
    converged = stop[0] is TerminalState.CONVERGED
    if raise_on_failure and not converged:
        raise ConvergenceError(
            f"projected gradient did not converge in {max_iterations} iterations "
            f"(final projected-gradient norm {state.pg_norm:.3e})"
        )
    return OptimizationResult(
        state.w.copy(), state.value, state.iteration, converged, history,
        wall_s=clock.monotonic() - solve_start,
    )


@traced("opt.solve", solver="lbfgs")
def solve_lbfgs(
    problem: PlanOptimizationProblem,
    w0: Optional[np.ndarray] = None,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
    memory: int = 8,
    clock: Optional[Clock] = None,
) -> OptimizationResult:
    """Projected L-BFGS (two-loop recursion, projection after each step)."""
    if max_iterations <= 0:
        raise ValueError("max_iterations must be positive")
    clock = clock or get_clock()
    solve_start = clock.monotonic()

    def finish(result: OptimizationResult) -> OptimizationResult:
        result.wall_s = clock.monotonic() - solve_start
        return result

    w = np.full(problem.n_weights, 1.0) if w0 is None else feasible_start(w0)
    value, grad = _eval(problem, w)
    s_list: List[np.ndarray] = []
    y_list: List[np.ndarray] = []
    history: List[IterationRecord] = []
    initial_norm = projected_gradient_norm(w, grad)
    if initial_norm == 0.0:
        return finish(OptimizationResult(w, value, 0, True, history))
    for it in range(1, max_iterations + 1):
        with trace_span("opt.iteration", solver="lbfgs", iteration=it) as sp:
            iter_start = clock.monotonic()
            direction = -_two_loop(grad, s_list, y_list)
            step = 1.0 if s_list else min(1.0, 1.0 / max(initial_norm, 1e-12))
            w_new = project_nonnegative(w + step * direction)
            value_new, grad_new = _eval(problem, w_new)
            backtracks = 0
            while value_new > value - 1e-12 and backtracks < 25:
                step *= 0.5
                w_new = project_nonnegative(w + step * direction)
                value_new, grad_new = _eval(problem, w_new)
                backtracks += 1
            s = w_new - w
            y = grad_new - grad
            if float(s @ y) > 1e-12:
                s_list.append(s)
                y_list.append(y)
                if len(s_list) > memory:
                    s_list.pop(0)
                    y_list.pop(0)
            w, value, grad = w_new, value_new, grad_new
            pg_norm = projected_gradient_norm(w, grad)
            history.append(IterationRecord(
                it, value, pg_norm, wall_s=clock.monotonic() - iter_start,
            ))
            metrics.counter("opt.iterations").inc()
            sp.set_attrs(objective=value, gradient_norm=pg_norm,
                         backtracks=backtracks)
            if pg_norm <= tolerance * initial_norm:
                return finish(OptimizationResult(w, value, it, True, history))
    return finish(OptimizationResult(w, value, max_iterations, False, history))


def _two_loop(
    grad: np.ndarray, s_list: List[np.ndarray], y_list: List[np.ndarray]
) -> np.ndarray:
    """Standard L-BFGS two-loop recursion producing H*grad."""
    q = grad.copy()
    alphas = []
    for s, y in zip(reversed(s_list), reversed(y_list)):
        rho = 1.0 / float(y @ s)
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append((alpha, rho, s, y))
    if s_list:
        s, y = s_list[-1], y_list[-1]
        q *= float(s @ y) / float(y @ y)
    for alpha, rho, s, y in reversed(alphas):
        beta = rho * float(y @ q)
        q += (alpha - beta) * s
    return q

