"""Runtime lock-order witness: lockdep-lite for the serving stack.

The static concurrency pass (:mod:`repro.analyze.concurrency`) proves
what it can resolve lexically; this module witnesses what actually
happens at runtime.  A :class:`LockWitness` wraps declared locks
(created through :func:`guarded_lock`) and, per thread, tracks the
stack of held locks.  Every acquisition while other locks are held
adds an edge to a process-wide *lock-order graph*; the witness flags

* **hierarchy inversions** — acquiring a lock whose declared level is
  strictly lower than a held lock's level (the repo hierarchy is
  scheduler → queue → cache → metrics → artifact sink; see DESIGN.md
  and :data:`LOCK_LEVELS`);
* **lock-order cycles** — an acquisition that would close a cycle in
  the order graph (the classic AB/BA deadlock, caught on the *first*
  run that exercises both orders, even when the schedule never actually
  deadlocks);
* **self-deadlock** — re-acquiring a held non-reentrant lock;
* **locks held across joins** — via :meth:`LockWitness.
  assert_no_locks_held`, used by ``WorkerPool.join``.

In ``strict`` mode a violation raises :class:`LockOrderViolation` at
the acquisition site — *before* blocking, so a test fails with a stack
trace instead of hanging.  In recording mode violations accumulate and
:meth:`LockWitness.summary` returns a JSON-ready report, recorded into
the ``repro.artifact/v1`` record as the ``lock_witness`` phase by
``serve loadtest --lock-witness`` and ``dist sweep --lock-witness``.

Zero overhead when disabled: :func:`guarded_lock` returns a plain
``threading.Lock`` unless a witness is installed, so only runs that opt
in pay the per-acquisition bookkeeping.  Locks created *before*
:func:`install_witness` stay unwitnessed — install the witness first
(the CLI flags and the ``lock_witness`` pytest fixture both do).

Lock identity is by *name* (the lockdep "lock class" idea): every
``Counter`` shares the name ``obs.metrics.Counter``, so an ordering
learned on one instance protects every instance.
"""

from __future__ import annotations

import threading
import traceback
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "LOCK_LEVELS",
    "LockOrderViolation",
    "LockWitness",
    "WitnessedLock",
    "get_witness",
    "guarded_lock",
    "install_witness",
    "uninstall_witness",
]

#: The documented lock hierarchy (DESIGN.md "Lock hierarchy and the
#: concurrency contract").  Lower levels are acquired first; acquiring
#: a strictly lower level while holding a higher one is an inversion.
#: Locks without a level (None) are checked for cycles only.
LOCK_LEVELS: Dict[str, int] = {
    "serve.scheduler.MicroBatchScheduler": 10,
    "serve.workers.WorkerPool": 15,
    "serve.queue.RequestQueue": 20,
    "opt.service.queue": 20,
    "serve.cache.PlanStore": 30,
    "bench.harness.LRUCache": 30,
    "kernels.plan.PlanCache": 30,
    "serve.cache.PlanEntry": 30,
    "serve.service.accounting": 35,
    "opt.service.accounting": 35,
    "obs.metrics.Counter": 40,
    "obs.metrics.Gauge": 40,
    "obs.metrics.Histogram": 40,
    "obs.metrics.MetricsRegistry": 40,
    "obs.artifact.ArtifactSink": 50,
    "obs.trace.RecordingTracer": 60,
    "obs.clock.FakeClock": 70,
}


class LockOrderViolation(RuntimeError):
    """A strict-mode witness caught a lock-discipline violation."""


def _short_stack(limit: int = 8) -> List[str]:
    """A compact acquisition stack (innermost frames, witness elided)."""
    frames = traceback.extract_stack()[:-3]
    return [
        f"{f.filename.rsplit('/', 1)[-1]}:{f.lineno}:{f.name}"
        for f in frames[-limit:]
    ]


class WitnessedLock:
    """A ``threading.Lock`` (or ``RLock``) under witness observation.

    Drop-in for the contexts the repo uses locks in: ``with`` blocks,
    explicit ``acquire``/``release``, and as the lock backing a
    ``threading.Condition`` (the failed non-blocking probe Condition
    uses for ``_is_owned`` is never recorded).
    """

    __slots__ = ("_lock", "_witness", "name", "level")

    def __init__(
        self,
        witness: "LockWitness",
        name: str,
        level: Optional[int] = None,
        lock: Optional[Any] = None,
    ) -> None:
        self._witness = witness
        self._lock = lock if lock is not None else threading.Lock()
        self.name = name
        self.level = level

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        # Order is checked *before* a blocking acquire: strict mode
        # raises at the would-deadlock site instead of hanging in it.
        if blocking:
            self._witness._before_acquire(self)
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._witness._on_acquired(self)
        return acquired

    def release(self) -> None:
        self._lock.release()
        self._witness._on_released(self)

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> "WitnessedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"WitnessedLock({self.name!r}, level={self.level})"


class LockWitness:
    """Per-thread held-lock stacks plus a process-wide order graph."""

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        #: raw internal lock — never witnessed (the witness cannot
        #: deadlock itself) and only ever held around dict bookkeeping.
        self._internal = threading.Lock()  # analyze: lock-guards[_acquisitions, _edges, _violations]
        self._held = threading.local()
        #: name -> acquisition count.
        self._acquisitions: Dict[str, int] = {}
        #: from-name -> to-name -> {"count", "stack"} (first-seen stack).
        self._edges: Dict[str, Dict[str, Dict[str, Any]]] = {}
        #: deduplicated violations, keyed (kind, held, acquiring).
        self._violations: Dict[Tuple[str, str, str], Dict[str, Any]] = {}

    # ------------------------------------------------------------------ #
    # lock factory
    # ------------------------------------------------------------------ #

    def wrap(
        self,
        name: str,
        level: Optional[int] = None,
        lock: Optional[Any] = None,
    ) -> WitnessedLock:
        """A witnessed lock named ``name`` at hierarchy ``level``."""
        if level is None:
            level = LOCK_LEVELS.get(name)
        return WitnessedLock(self, name, level, lock)

    # ------------------------------------------------------------------ #
    # acquisition hooks (called from WitnessedLock)
    # ------------------------------------------------------------------ #

    def _stack(self) -> List[WitnessedLock]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        return stack

    def _before_acquire(self, lock: WitnessedLock) -> None:
        held = self._stack()
        if not held:
            return
        if any(h is lock for h in held):
            self._violation(
                "self-deadlock", held=lock.name, acquiring=lock.name,
                detail="re-acquiring a held non-reentrant lock",
            )
            return
        for h in held:
            if h.name == lock.name:
                # Same lock class, different instance: ordering between
                # instances of one class is a cycle question, handled
                # by the self-edge below.
                pass
            elif (
                lock.level is not None
                and h.level is not None
                and lock.level < h.level
            ):
                self._violation(
                    "hierarchy-inversion", held=h.name, acquiring=lock.name,
                    detail=(
                        f"acquiring level {lock.level} while holding level "
                        f"{h.level}; levels must be acquired in ascending "
                        "order (see LOCK_LEVELS)"
                    ),
                )
            with self._internal:
                cycle = self._find_path(lock.name, h.name)
            if cycle is not None:
                path = " -> ".join([h.name] + cycle)
                self._violation(
                    "lock-order-cycle", held=h.name, acquiring=lock.name,
                    detail=(
                        f"acquisition closes the cycle {path}; another "
                        "thread interleaving these orders can deadlock"
                    ),
                )

    def _on_acquired(self, lock: WitnessedLock) -> None:
        held = self._stack()
        with self._internal:
            self._acquisitions[lock.name] = (
                self._acquisitions.get(lock.name, 0) + 1
            )
            for h in held:
                if h.name == lock.name and h is lock:
                    continue
                edges = self._edges.setdefault(h.name, {})
                edge = edges.get(lock.name)
                if edge is None:
                    edges[lock.name] = {"count": 1, "stack": _short_stack()}
                else:
                    edge["count"] += 1
        held.append(lock)

    def _on_released(self, lock: WitnessedLock) -> None:
        held = self._stack()
        # Pop by identity, topmost first (tolerates out-of-order release
        # and cross-thread release, both legal for threading.Lock).
        for i in range(len(held) - 1, -1, -1):
            if held[i] is lock:
                del held[i]
                return

    def _find_path(self, src: str, dst: str) -> Optional[List[str]]:
        """DFS path ``src -> ... -> dst`` in the order graph, if any."""
        if src == dst:
            return [src]
        seen = {src}
        frontier: List[Tuple[str, List[str]]] = [(src, [src])]
        while frontier:
            node, path = frontier.pop()
            for nxt in self._edges.get(node, {}):
                if nxt == dst:
                    return path + [nxt]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append((nxt, path + [nxt]))
        return None

    def _violation(self, kind: str, held: str, acquiring: str,
                   detail: str) -> None:
        key = (kind, held, acquiring)
        with self._internal:
            entry = self._violations.get(key)
            if entry is None:
                self._violations[key] = {
                    "kind": kind,
                    "held": held,
                    "acquiring": acquiring,
                    "detail": detail,
                    "thread": threading.current_thread().name,
                    "count": 1,
                    "stack": _short_stack(),
                }
            else:
                entry["count"] += 1
        # A witness raises only while it is the installed witness:
        # locks wrapped during an uninstalled (e.g. already-torn-down
        # test) witness keep recording but never explode later runs.
        if self.strict and _WITNESS is self:
            raise LockOrderViolation(
                f"{kind}: acquiring {acquiring!r} while holding {held!r} "
                f"({detail})"
            )

    # ------------------------------------------------------------------ #
    # assertions and reporting
    # ------------------------------------------------------------------ #

    def held_locks(self) -> List[str]:
        """Names of locks the *calling thread* currently holds."""
        return [h.name for h in self._stack()]

    def assert_no_locks_held(self, context: str) -> None:
        """Flag (or raise, strict) when the calling thread holds any
        witnessed lock — used across blocking joins, where a held lock
        would starve the thread being joined."""
        held = self._stack()
        if not held:
            return
        names = ", ".join(h.name for h in held)
        self._violation(
            "lock-held-across-join", held=names, acquiring=context,
            detail=f"{context} must not run while holding witnessed locks",
        )

    def violations(self) -> List[Dict[str, Any]]:
        with self._internal:
            return [dict(v) for v in self._violations.values()]

    def summary(self) -> Dict[str, Any]:
        """JSON-ready report for the ``lock_witness`` artifact phase."""
        with self._internal:
            edges = [
                {"from": src, "to": dst, "count": info["count"]}
                for src, targets in sorted(self._edges.items())
                for dst, info in sorted(targets.items())
            ]
            return {
                "strict": self.strict,
                "locks": sorted(self._acquisitions),
                "acquisitions": int(sum(self._acquisitions.values())),
                "edges": edges,
                "violations": [dict(v) for v in self._violations.values()],
            }


# --------------------------------------------------------------------- #
# process-wide witness (installed for opted-in runs only)
# --------------------------------------------------------------------- #

_WITNESS: Optional[LockWitness] = None


def install_witness(
    witness: Optional[LockWitness] = None, strict: bool = False
) -> LockWitness:
    """Install (and return) the process witness; errors if one is active.

    Install *before* constructing the objects to observe: only locks
    created through :func:`guarded_lock` while a witness is installed
    are wrapped.
    """
    global _WITNESS
    if _WITNESS is not None:
        raise RuntimeError("a lock witness is already installed")
    _WITNESS = witness if witness is not None else LockWitness(strict=strict)
    return _WITNESS


def uninstall_witness() -> Optional[LockWitness]:
    """Remove the process witness; returns it (None when none active).

    Locks already wrapped keep reporting to the removed witness — the
    witness outlives uninstall so its summary stays readable — but new
    :func:`guarded_lock` calls return plain locks again.
    """
    global _WITNESS
    previous = _WITNESS
    _WITNESS = None
    return previous


def get_witness() -> Optional[LockWitness]:
    """The active process witness, or None."""
    return _WITNESS


def guarded_lock(name: str, level: Optional[int] = None) -> threading.Lock:
    """A lock declared into the repo hierarchy.

    The sanctioned constructor for every declared lock: returns a plain
    ``threading.Lock`` (zero overhead) unless a witness is installed,
    in which case the lock is wrapped and order-checked.  ``level``
    defaults to :data:`LOCK_LEVELS` lookup by ``name``.

    Typed as ``threading.Lock`` so declaration sites (including
    ``threading.Condition(lock)``) type-check; the witnessed wrapper is
    duck-type compatible (acquire/release/locked/context manager).
    """
    witness = _WITNESS
    if witness is None:
        return threading.Lock()
    return witness.wrap(name, level)  # type: ignore[return-value]
