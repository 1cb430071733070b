"""Request/response vocabulary of the dose-evaluation service.

One optimizer iteration asks "what dose does this weight vector give on
this plan" — that question, typed: an :class:`EvaluationRequest` goes
in, and exactly one of :class:`EvaluationResult` or :class:`Rejected`
comes out.  Backpressure is part of the contract: a service under load
answers with a typed rejection immediately instead of queueing without
bound.

The :class:`Ticket` is the caller's handle while the request is in
flight (a minimal future: ``done()``/``outcome()``).  Tickets are
resolved exactly once; the service, scheduler and workers all resolve
through it.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from repro.util.errors import ReproError
from repro.util.validation import first_non_finite


class ServeError(ReproError):
    """An invalid interaction with the dose-evaluation service."""


class RejectReason(enum.Enum):
    """Why the service refused (or abandoned) a request."""

    #: the bounded request queue is at capacity (global backpressure).
    QUEUE_FULL = "queue_full"
    #: this client already has its fair share of in-flight requests.
    CLIENT_QUOTA = "client_quota"
    #: no plan registered under the request's ``plan_id``.
    UNKNOWN_PLAN = "unknown_plan"
    #: the precision/kernel name is not in the kernel registry.
    UNKNOWN_PRECISION = "unknown_precision"
    #: the requested kernel is not bitwise reproducible (service policy).
    NONREPRODUCIBLE = "nonreproducible"
    #: weight vector incompatible with the plan's deposition matrix.
    BAD_SHAPE = "bad_shape"
    #: a weight is NaN or infinite (the dose would be silently NaN).
    NON_FINITE = "non_finite"
    #: the request sat in the queue past its deadline.
    DEADLINE_EXCEEDED = "deadline_exceeded"
    #: the service runs sharded and the requested kernel has no
    #: compiled-plan family to shard (libraries, format baselines).
    UNSHARDABLE = "unshardable"
    #: the service is draining/stopped.
    SHUTTING_DOWN = "shutting_down"
    #: the executing worker hit an unexpected error.
    INTERNAL_ERROR = "internal_error"


@dataclass(frozen=True)
class EvaluationRequest:
    """One dose-evaluation question: ``dose = A[plan_id] @ weights``.

    ``precision`` is a kernel registry name (``half_double``, ``single``,
    ``double``, ...) — the paper's precision configurations are what
    distinguish kernels, so the registry name doubles as the precision
    selector.  ``deadline_s`` is a *relative* queueing budget: a request
    still waiting that long after submission is rejected rather than
    served stale.
    """

    request_id: str
    plan_id: str
    weights: np.ndarray
    precision: str = "half_double"
    deadline_s: Optional[float] = None
    client_id: str = "default"
    #: position of the first NaN or infinite weight, or ``None``; the
    #: service rejects such a request at submission (``NON_FINITE``).
    #: Found when the request is built, not in ``submit``: a NumPy scan
    #: of a long vector releases the interpreter lock, and inside a burst
    #: of submits that hands it to the worker the previous submit woke,
    #: which can stretch the burst past the batching window.
    non_finite_spot: Optional[int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        w = np.asarray(self.weights)
        if w.ndim != 1:
            raise ServeError(
                f"request {self.request_id!r}: weights must be 1-D, got "
                f"shape {w.shape}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ServeError(
                f"request {self.request_id!r}: deadline_s must be positive, "
                f"got {self.deadline_s}"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "non_finite_spot", first_non_finite(w))


@dataclass(frozen=True)
class EvaluationResult:
    """A served dose evaluation, with its batching/caching provenance."""

    request_id: str
    plan_id: str
    precision: str
    #: the dose vector (float64; bitwise equal to a stand-alone A @ w).
    dose: np.ndarray
    #: id of the micro-batch this request was coalesced into.
    batch_id: int
    #: how many requests shared the batch (1 == no coalescing happened).
    batch_size: int
    #: modelled stand-alone kernel time for this evaluation.
    modeled_time_s: float
    #: seconds spent queued before a worker picked the batch up.
    queue_wait_s: float
    #: submit-to-resolve wall latency (scheduling time, not dose physics).
    latency_s: float
    #: name of the worker thread that executed the batch.
    worker: str
    #: True when the plan matrix came from the plan cache.
    cache_hit: bool
    #: row shards the evaluation ran across (1 == single device).
    shards: int = 1


@dataclass(frozen=True)
class Rejected:
    """A typed refusal: the service's backpressure/failure answer."""

    request_id: str
    reason: RejectReason
    detail: str = ""


Outcome = Union[EvaluationResult, Rejected]


@dataclass
class Ticket:
    """In-flight handle for one submitted request (a minimal future)."""

    request: EvaluationRequest
    #: clock reading at submission (queue-wait / latency origin).
    submitted_at: float
    _event: threading.Event = field(default_factory=threading.Event, repr=False)
    _outcome: Optional[Outcome] = field(default=None, repr=False)
    # Pure-exclusion lock (empty guard list): it serializes the
    # resolve-once transition; _outcome is *published* by _event.set()
    # (the Event's internal lock provides the happens-before for the
    # post-wait read in outcome()).
    _resolve_lock: threading.Lock = field(  # analyze: lock-guards[]
        default_factory=threading.Lock, repr=False
    )

    def done(self) -> bool:
        return self._event.is_set()

    def outcome(self, timeout: Optional[float] = None) -> Outcome:
        """Block until resolved; raises :class:`ServeError` on timeout."""
        if not self._event.wait(timeout):
            raise ServeError(
                f"request {self.request.request_id!r} not resolved within "
                f"{timeout}s"
            )
        assert self._outcome is not None
        return self._outcome

    def resolve(self, outcome: Outcome) -> None:
        """Resolve the ticket exactly once (second resolves are errors)."""
        with self._resolve_lock:
            if self._event.is_set():
                raise ServeError(
                    f"request {self.request.request_id!r} resolved twice"
                )
            self._outcome = outcome
            self._event.set()
