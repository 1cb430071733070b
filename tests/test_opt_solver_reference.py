"""The classic solver drives the loop: its bits do not move.

``reference_projected_gradient`` is the iteration body
``solve_projected_gradient`` had before it became a thin caller of
:func:`repro.opt.dist.loop.advance`, without its spans, counters and
timing.  Through both, every configuration below must give the same
weight bytes, objective bits, iteration count, convergence flag and
history, and cost the problem the same number of dose calculations.

The stop-order tests pin the one stop rule all three projected-gradient
callers share: convergence is checked before the iteration budget.
"""

import numpy as np
import pytest

from repro.bench.harness import convert_for_kernel
from repro.opt.dist import (
    OBJECTIVE_PRESETS,
    OptimizationOutcome,
    OptimizationRequest,
    OptimizationService,
    OptServiceConfig,
    TerminalState,
    run_reference,
    warm_start,
)
from repro.opt.robust import RobustPlanProblem
from repro.opt.solver import solve_projected_gradient
from repro.util.errors import ConvergenceError
from tests.conftest import make_random_csr


def _pg_norm(w, grad):
    pg = grad.copy()
    pg[(w <= 0.0) & (grad > 0)] = 0.0
    return float(np.linalg.norm(pg))


def reference_projected_gradient(
    problem,
    w0=None,
    max_iterations=100,
    tolerance=1e-6,
    initial_step=1.0,
    raise_on_failure=False,
):
    """The pre-loop solver body.

    Returns ``(weights, objective, iterations, converged, history)``
    with ``history`` a list of ``(iteration, objective, gradient_norm)``.
    """
    if max_iterations <= 0:
        raise ValueError("max_iterations must be positive")
    w = (
        np.full(problem.n_weights, 1.0)
        if w0 is None
        else np.maximum(np.asarray(w0, dtype=np.float64).copy(), 0.0)
    )
    value, grad = problem.value_and_gradient(w)
    step = initial_step
    history = []
    initial_norm = _pg_norm(w, grad)
    if initial_norm == 0.0:
        return w, value, 0, True, history
    prev_w = None
    prev_grad = None
    for it in range(1, max_iterations + 1):
        w_new = np.maximum(w - step * grad, 0.0)
        value_new, grad_new = problem.value_and_gradient(w_new)
        # Backtrack if the step increased the objective.
        backtracks = 0
        while value_new > value and backtracks < 20:
            step *= 0.5
            w_new = np.maximum(w - step * grad, 0.0)
            value_new, grad_new = problem.value_and_gradient(w_new)
            backtracks += 1
        prev_w, prev_grad = w, grad
        w, value, grad = w_new, value_new, grad_new
        pg_norm = _pg_norm(w, grad)
        history.append((it, value, pg_norm))
        if pg_norm <= tolerance * initial_norm:
            return w, value, it, True, history
        # Barzilai-Borwein step for the next iteration.
        s = w - prev_w
        g = grad - prev_grad
        sg = float(s @ g)
        if sg > 1e-30:
            step = float(s @ s) / sg
        else:
            step = initial_step
    if raise_on_failure:
        raise ConvergenceError(
            f"projected gradient did not converge in {max_iterations} iterations "
            f"(final projected-gradient norm {history[-1][2]:.3e})"
        )
    return w, value, max_iterations, False, history


def _counted(problem, solve):
    """``solve()`` and the dose calculations it cost ``problem``."""
    before = problem.accounting.n_forward
    out = solve()
    return out, problem.accounting.n_forward - before


def _assert_same_bits(result, reference):
    weights, objective, iterations, converged, history = reference
    assert result.weights.tobytes() == weights.tobytes()
    assert float(result.objective).hex() == float(objective).hex()
    assert result.iterations == iterations
    assert result.converged is converged
    assert [
        (r.iteration, float(r.objective).hex(), float(r.gradient_norm).hex())
        for r in result.history
    ] == [(it, float(v).hex(), float(g).hex()) for it, v, g in history]


@pytest.fixture(params=["plain", "worst_case", "expected"])
def any_problem(request, problem, scenario_setup):
    if request.param == "plain":
        return problem[0]
    _, scenarios, matrices, objective = scenario_setup
    return RobustPlanProblem(matrices, scenarios, objective, request.param)


def _ramp(n):
    """A warm start with negative entries (projected away at the start)."""
    return np.linspace(-0.5, 1.5, n)


class TestSameBitsAsReference:
    @pytest.mark.parametrize("initial_step", [1.0, 1e-3])
    @pytest.mark.parametrize("max_iterations", [1, 15, 300])
    @pytest.mark.parametrize("start", ["none", "ramp"])
    def test_solver_matches_reference(
        self, any_problem, start, max_iterations, initial_step
    ):
        w0 = None if start == "none" else _ramp(any_problem.n_weights)
        kwargs = dict(
            w0=w0, max_iterations=max_iterations, tolerance=1e-3,
            initial_step=initial_step,
        )
        reference, ref_forwards = _counted(
            any_problem,
            lambda: reference_projected_gradient(any_problem, **kwargs),
        )
        result, forwards = _counted(
            any_problem,
            lambda: solve_projected_gradient(any_problem, **kwargs),
        )
        _assert_same_bits(result, reference)
        assert forwards == ref_forwards
        assert result.weights.flags.writeable

    def test_raise_on_failure_matches_reference(self, problem):
        prob, _ = problem
        with pytest.raises(ConvergenceError) as expected:
            reference_projected_gradient(
                prob, max_iterations=1, tolerance=1e-3, raise_on_failure=True
            )
        with pytest.raises(ConvergenceError) as got:
            solve_projected_gradient(
                prob, max_iterations=1, tolerance=1e-3, raise_on_failure=True
            )
        assert str(got.value) == str(expected.value)

    def test_raise_on_failure_returns_when_converged(self, problem):
        prob, _ = problem
        kwargs = dict(max_iterations=300, tolerance=1e-3,
                      raise_on_failure=True)
        reference = reference_projected_gradient(prob, **kwargs)
        assert reference[3] is True
        _assert_same_bits(solve_projected_gradient(prob, **kwargs), reference)


class TestStopOrder:
    """Convergence on the last allowed iteration reports convergence."""

    def test_classic_solver(self, problem):
        prob, _ = problem
        free = solve_projected_gradient(prob, max_iterations=300,
                                        tolerance=1e-3)
        assert free.converged
        k = free.iterations
        at_budget = solve_projected_gradient(prob, max_iterations=k,
                                             tolerance=1e-3)
        assert at_budget.converged and at_budget.iterations == k
        short = solve_projected_gradient(prob, max_iterations=k - 1,
                                         tolerance=1e-3)
        assert not short.converged and short.iterations == k - 1

    @pytest.fixture(scope="class")
    def plan(self):
        master = make_random_csr(np.random.default_rng(11), n_cols=25)
        specs = OBJECTIVE_PRESETS["uniform"]
        w0 = warm_start(0, master.n_cols)
        matrix = convert_for_kernel(master, "half_double")
        free = run_reference(matrix, "half_double", specs, w0,
                             tolerance=1e-3, max_iterations=300)
        assert free.terminal is TerminalState.CONVERGED
        return master, matrix, specs, w0, free.state.iteration

    def test_run_to_completion(self, plan):
        _, matrix, specs, w0, k = plan
        for budget, terminal in [
            (k, TerminalState.CONVERGED),
            (k - 1, TerminalState.BUDGET_EXHAUSTED),
        ]:
            outcome = run_reference(matrix, "half_double", specs, w0,
                                    tolerance=1e-3, max_iterations=budget)
            assert outcome.terminal is terminal
            assert outcome.state.iteration == budget

    def test_service(self, plan):
        master, _, specs, w0, k = plan
        service = OptimizationService(
            OptServiceConfig(n_workers=1, serve_workers=1, shards=1)
        )
        service.register_plan("p", master)
        with service:
            tickets = {
                budget: service.submit(OptimizationRequest(
                    opt_id=f"budget-{budget}", plan_id="p", objective=specs,
                    w0=w0, max_iterations=budget, tolerance=1e-3,
                ))
                for budget in (k, k - 1)
            }
            outcomes = {
                budget: ticket.outcome(timeout=60.0)
                for budget, ticket in tickets.items()
            }
        for budget, terminal in [
            (k, TerminalState.CONVERGED),
            (k - 1, TerminalState.BUDGET_EXHAUSTED),
        ]:
            outcome = outcomes[budget]
            assert isinstance(outcome, OptimizationOutcome)
            assert outcome.terminal is terminal
            assert outcome.iterations == budget
