"""Scenario-ensemble serving: one request, S scenario evaluations.

A robust-planning client asks one question — "what does this weight
vector do under every error scenario of this plan" — and expects one
answer: the ``(S, n_voxels)`` dose stack.  The service answers by
fanning a :class:`ScenarioEnsembleRequest` out into S ordinary
:class:`~repro.serve.request.EvaluationRequest` entries (one per
scenario plan), letting the existing micro-batch scheduler coalesce
them like any other traffic, and **merging the results strictly in
scenario-index order**.

The merge invariant: the stacked dose is
``np.stack([dose(s_0), dose(s_1), ...])`` by *explicit scenario index*
— never submission, completion, batch, or container order — so the
ensemble stack is bitwise identical across batching windows, worker
counts, shard counts, and any scenario submission order (the ensemble
audit in :mod:`repro.workloads.audit` proves exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import clock
from repro.serve.request import (
    EvaluationRequest,
    EvaluationResult,
    Rejected,
    RejectReason,
    ServeError,
    Ticket,
)

#: separator between an ensemble plan id and a scenario index; scenario
#: plans of ensemble ``pid`` are ``pid@s0, pid@s1, ...``.
SCENARIO_SEPARATOR = "@s"


def scenario_plan_id(plan_id: str, index: int) -> str:
    """The plan-store id of scenario ``index`` of ensemble ``plan_id``."""
    return f"{plan_id}{SCENARIO_SEPARATOR}{index}"


@dataclass(frozen=True)
class ScenarioEnsembleRequest:
    """One multi-matrix question: ``d_s = A_s @ weights`` for every s.

    ``plan_id`` names an ensemble registered with
    :func:`register_ensemble`; the request inherits the vocabulary of
    :class:`~repro.serve.request.EvaluationRequest` (precision is a
    kernel-registry name, ``deadline_s`` a relative queueing budget).
    """

    request_id: str
    plan_id: str
    weights: np.ndarray
    precision: str = "half_double"
    deadline_s: Optional[float] = None
    client_id: str = "default"

    def __post_init__(self) -> None:
        w = np.asarray(self.weights)
        if w.ndim != 1:
            raise ServeError(
                f"ensemble request {self.request_id!r}: weights must be "
                f"1-D, got shape {w.shape}"
            )
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class EnsembleResult:
    """A served ensemble evaluation: the index-ordered dose stack."""

    request_id: str
    plan_id: str
    precision: str
    #: ``(n_scenarios, n_voxels)`` — row s is scenario s's dose, bitwise
    #: equal to a stand-alone ``A_s @ w`` evaluation.
    doses: np.ndarray
    #: per-scenario results in scenario-index order (full provenance).
    scenario_results: Tuple[EvaluationResult, ...]
    #: max over scenarios (the client-visible latency of the stack).
    latency_s: float
    queue_wait_s: float

    @property
    def n_scenarios(self) -> int:
        return int(self.doses.shape[0])

    @property
    def batch_ids(self) -> Tuple[int, ...]:
        return tuple(r.batch_id for r in self.scenario_results)

    @property
    def shards(self) -> int:
        return self.scenario_results[0].shards if self.scenario_results else 1


EnsembleOutcome = Union[EnsembleResult, Rejected]


@dataclass
class EnsembleTicket:
    """In-flight handle: one sub-ticket per scenario, index-ordered.

    ``handles[s]`` is scenario ``s``'s :class:`Ticket` (or its immediate
    :class:`Rejected`).  The gather in :meth:`outcome` is where the merge
    invariant lives: results are stacked by position in ``handles`` —
    scenario-index order by construction — regardless of the order the
    scenarios were submitted or completed in.
    """

    request: ScenarioEnsembleRequest
    handles: Tuple[Union[Ticket, Rejected], ...]

    def done(self) -> bool:
        return all(
            isinstance(h, Rejected) or h.done() for h in self.handles
        )

    def outcome(self, timeout: Optional[float] = None) -> EnsembleOutcome:
        """Gather every scenario and merge in scenario-index order.

        ``timeout`` bounds the whole gather (``None`` waits forever).
        """
        deadline = None if timeout is None else clock.monotonic() + timeout
        results: List[EvaluationResult] = []
        for index, handle in enumerate(self.handles):
            out = handle if isinstance(handle, Rejected) else handle.outcome(
                None if deadline is None
                else max(0.0, deadline - clock.monotonic()))
            if isinstance(out, Rejected):
                return Rejected(
                    self.request.request_id,
                    out.reason,
                    f"scenario {index}: {out.detail}",
                )
            results.append(out)
        return EnsembleResult(
            request_id=self.request.request_id,
            plan_id=self.request.plan_id,
            precision=self.request.precision,
            doses=np.stack([r.dose for r in results]),
            scenario_results=tuple(results),
            latency_s=max(r.latency_s for r in results),
            queue_wait_s=max(r.queue_wait_s for r in results),
        )


def register_ensemble(
    service: "object",
    plan_id: str,
    ensemble: "object",
    source: str = "workload",
) -> Tuple[str, ...]:
    """Register every scenario of an ensemble as its own plan.

    Scenario ``s`` becomes plan ``plan_id@s{s}`` in the service's plan
    store; the scheduler then coalesces same-scenario requests across
    concurrent ensemble submissions exactly like ordinary plan traffic.
    Returns the scenario plan ids in scenario-index order.
    """
    plan_ids = []
    for scenario in ensemble.scenarios:
        pid = scenario_plan_id(plan_id, scenario.index)
        service.plans.register(pid, scenario.matrix, source=source)
        plan_ids.append(pid)
    return tuple(plan_ids)


def ensemble_scenario_ids(service: "object", plan_id: str) -> Tuple[str, ...]:
    """Scenario plan ids registered under ``plan_id`` (index order)."""
    plan_ids = []
    index = 0
    while service.plans.get(scenario_plan_id(plan_id, index)) is not None:
        plan_ids.append(scenario_plan_id(plan_id, index))
        index += 1
    return tuple(plan_ids)


def submit_ensemble(
    service: "object",
    request: ScenarioEnsembleRequest,
    submit_order: Optional[Sequence[int]] = None,
) -> Union[EnsembleTicket, Rejected]:
    """Fan one ensemble request out into S scenario submissions.

    ``submit_order`` permutes the *submission* order only (the ensemble
    audit uses it to prove order independence); the gather in
    :meth:`EnsembleTicket.outcome` always merges by scenario index.
    """
    scenario_ids = ensemble_scenario_ids(service, request.plan_id)
    if not scenario_ids:
        return Rejected(
            request.request_id,
            RejectReason.UNKNOWN_PLAN,
            f"no ensemble registered under plan {request.plan_id!r}",
        )
    order = list(range(len(scenario_ids)))
    if submit_order is not None:
        if sorted(submit_order) != order:
            raise ServeError(
                f"submit_order must permute 0..{len(scenario_ids) - 1}, "
                f"got {list(submit_order)}"
            )
        order = list(submit_order)
    handles: List[Optional[Union[Ticket, Rejected]]] = [None] * len(
        scenario_ids
    )
    for index in order:
        handles[index] = service.submit(
            EvaluationRequest(
                request_id=f"{request.request_id}{SCENARIO_SEPARATOR}{index}",
                plan_id=scenario_ids[index],
                weights=request.weights,
                precision=request.precision,
                deadline_s=request.deadline_s,
                client_id=request.client_id,
            )
        )
    assert all(h is not None for h in handles)
    return EnsembleTicket(
        request=request,
        handles=tuple(h for h in handles if h is not None),
    )


def evaluate_ensemble(
    service: "object",
    request: ScenarioEnsembleRequest,
    timeout: Optional[float] = 60.0,
    submit_order: Optional[Sequence[int]] = None,
) -> EnsembleOutcome:
    """Submit one ensemble request and wait for the merged stack."""
    handle = submit_ensemble(service, request, submit_order=submit_order)
    if isinstance(handle, Rejected):
        return handle
    return handle.outcome(timeout)
