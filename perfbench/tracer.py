"""Benchmark-owned span recorder and the per-layer ledger built from it.

The traced run wraps the public entry points of each layer (``ENTRY_POINTS``)
with timing wrappers owned by this file; the program itself is not edited
and its own tracer stays off.  Spans are kept in memory and written out
when the run ends.

A span nests under whatever span is open on the same thread.  Requests are
linked across threads by id: a request's ``serve.submit`` and
``serve.outcome`` spans carry its request id, the outcome carries the id of
the batch that served it, and the worker's ``serve.batch`` span carries the
same batch id.  Everything the batch calls nests under it, shard executions
included, so one request links request -> batch -> shard.

The ledger splits each operation's latency into layer self times: at every
instant of the operation's interval the innermost active span linked to the
operation owns the time, remote work (the batch on a worker) ranks above
the caller's wait for it, and instants no linked span covers are
unattributed.  The parts therefore add up to the latency exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# Ledger tiers: work done for an operation on another thread outranks the
# operation's own thread waiting for it.
TIER_CALLER, TIER_QUEUE, TIER_WORKER = 0, 1, 2

LAYERS = ("serve", "harness", "kernels", "gpu", "dist", "opt")


class Span:
    """One timed call into a layer."""

    __slots__ = ("name", "thread", "parent", "start", "end", "phase",
                 "attrs", "children")

    def __init__(self, name: str, parent: Optional["Span"],
                 phase: str) -> None:
        self.name = name
        self.thread = threading.get_ident()
        self.parent = parent
        self.phase = phase
        self.attrs: Dict[str, Any] = {}
        self.children: List["Span"] = []
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory, each tagged with the current ``phase``."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = "cold"
        self._local = threading.local()

    def begin(self, name: str) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(name, stack[-1] if stack else None, self.phase)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def link_children(self) -> None:
        for span in self.spans:
            if span.parent is not None:
                span.parent.children.append(span)

    def spans_in(self, phase: str) -> List[Span]:
        return [s for s in self.spans if s.phase == phase]

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "parent": ids.get(id(s.parent)),
                    "name": s.name,
                    "thread": s.thread,
                    "phase": s.phase,
                    "start_s": s.start,
                    "end_s": s.end,
                    "attrs": s.attrs,
                }, default=str) + "\n")


# --------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------- #


def _submit(span: Span, args: tuple, result: Any) -> None:
    span.attrs["request_id"] = args[1].request_id


def _outcome(span: Span, args: tuple, result: Any) -> None:
    span.attrs["request_id"] = args[0].request.request_id
    batch_id = getattr(result, "batch_id", None)
    if batch_id is not None:
        span.attrs["batch_id"] = batch_id


def _batch(span: Span, args: tuple, result: Any) -> None:
    span.attrs["batch_id"] = args[1].batch_id
    span.attrs["size"] = len(args[1])


def _compiled(span: Span, args: tuple, result: Any) -> None:
    span.attrs["plan_bytes"] = int(result.nbytes)
    span.attrs["nnz"] = int(args[0].nnz)


def _counters(span: Span, args: tuple, result: Any) -> None:
    span.attrs["dram_bytes"] = float(result.dram_bytes)


def _sharded(span: Span, args: tuple, result: Any) -> None:
    span.attrs["retries"] = int(result.retries)
    span.attrs["modeled_s"] = float(result.wall_time_s)


def _served_batch(span: Span, args: tuple, result: Any) -> None:
    span.attrs["modeled_s"] = float(result.batched_time_s)


#: (module, attribute path, span name, describe); a span name starts with
#: its layer.  Functions are
#: re-bound wherever a ``repro`` module imported them by name; methods are
#: replaced on their class.  ``DoseEvaluationService._execute_batch`` is the
#: one private entry point: it is where a batch id meets its requests.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.serve.service", "DoseEvaluationService.submit", "serve.submit",
     _submit),
    ("repro.serve.request", "Ticket.outcome", "serve.outcome", _outcome),
    ("repro.serve.service", "DoseEvaluationService._execute_batch",
     "serve.batch", _batch),
    ("repro.kernels.batched", "run_multi_spmv", "serve.run_multi_spmv", None),
    ("repro.dist.backend", "ShardedServeBackend.run_batch", "serve.run_batch",
     _served_batch),
    ("repro.bench.harness", "convert_for_kernel", "harness.convert", None),
    ("repro.kernels.plan", "compile_plan", "kernels.compile_plan", _compiled),
    ("repro.kernels.plan", "compile_transpose_plan",
     "kernels.compile_transpose_plan", None),
    ("repro.kernels.plan", "compile_sharded_plan",
     "kernels.compile_sharded_plan", _compiled),
    ("repro.kernels.plan", "execute_plan", "kernels.execute_plan", None),
    ("repro.kernels.plan", "execute_plan_into", "kernels.execute_plan_into",
     None),
    ("repro.kernels.plan", "execute_plan_multi", "kernels.execute_plan_multi",
     None),
    ("repro.kernels.plan", "execute_plan_multi_into",
     "kernels.execute_plan_multi_into", None),
    ("repro.kernels.plan", "execute_transpose_plan",
     "kernels.execute_transpose_plan", None),
    ("repro.kernels.plan", "execute_sharded_plan",
     "kernels.execute_sharded_plan", None),
    ("repro.kernels.plan", "execute_sharded_plan_multi",
     "kernels.execute_sharded_plan_multi", None),
    ("repro.kernels.csr_vector", "VectorCSRKernel.run", "gpu.kernel_run",
     None),
    ("repro.kernels.csr_vector", "VectorCSRKernel.multi_counters",
     "gpu.multi_counters", _counters),
    ("repro.kernels.csr_vector", "VectorCSRKernel.model_timing",
     "gpu.model_timing", None),
    ("repro.dist.evaluator", "ShardedEvaluator.evaluate", "dist.evaluate",
     _sharded),
    ("repro.dist.evaluator", "ShardedEvaluator.evaluate_multi",
     "dist.evaluate_multi", _sharded),
    ("repro.opt.dist.loop", "advance", "opt.advance", None),
    ("repro.opt.objectives", "CompositeObjective.value_and_gradient",
     "opt.objective", None),
    ("repro.opt.dist.loop", "record_checkpoint", "opt.record_checkpoint",
     None),
    ("repro.opt.dist.loop", "trajectory_point", "opt.trajectory_point", None),
)

EXECUTE = frozenset(n for _, _, n, _ in ENTRY_POINTS
                    if n.startswith("kernels.execute"))
COMPILE = frozenset(n for _, _, n, _ in ENTRY_POINTS
                    if n.startswith("kernels.compile"))


def _wrap(recorder: Recorder, fn: Callable, name: str,
          describe: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if describe is not None:
            describe(span, args, result)
        return result

    return wrapper


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every entry point; returns the function that restores them.

    Methods are looked up on the class, so objects constructed before
    ``install`` keep any bound method they already captured: build the
    services to be traced after calling this.
    """
    undo: List[Tuple[object, str, object]] = []
    for module_name, path, name, describe in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            undo.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, original, name, describe))
            continue
        original = getattr(module, path)
        wrapper = _wrap(recorder, original, name, describe)
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if getattr(mod, path, None) is original:
                undo.append((mod, path, original))
                setattr(mod, path, wrapper)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# --------------------------------------------------------------------- #
# the ledger
# --------------------------------------------------------------------- #


@dataclass
class Operation:
    """One end-to-end operation to explain: its interval and its links."""

    start: float
    end: float
    #: request ids served on the operation's behalf.
    request_ids: Tuple[str, ...] = ()
    #: a span the operation is rooted in (opt iterations), or None.
    root: Optional[Span] = None


@dataclass
class Ledger:
    """Per-operation split of latency into ledger kinds (seconds)."""

    latencies: List[float] = field(default_factory=list)
    parts: List[Dict[str, float]] = field(default_factory=list)

    def mean_ms(self, predicate: Callable[[str], bool]) -> float:
        if not self.parts:
            return 0.0
        total = sum(v for p in self.parts for k, v in p.items()
                    if predicate(k))
        return 1e3 * total / len(self.parts)


def _subtree(span: Span, tier: int, depth: int,
             out: List[Tuple[float, float, Tuple[int, int, float], str]]
             ) -> None:
    out.append((span.start, span.end, (tier, depth, span.start), span.name))
    for child in span.children:
        _subtree(child, tier, depth + 1, out)


def _split(op_start: float, op_end: float,
           intervals: List[Tuple[float, float, Tuple[int, int, float], str]]
           ) -> Dict[str, float]:
    """Give every instant of [op_start, op_end] to the top-ranked interval."""
    cuts = {op_start, op_end}
    clipped = []
    for start, end, rank, kind in intervals:
        start, end = max(start, op_start), min(end, op_end)
        if end > start:
            clipped.append((start, end, rank, kind))
            cuts.add(start)
            cuts.add(end)
    points = sorted(cuts)
    clipped.sort(key=lambda iv: iv[0])
    parts: Dict[str, float] = {}
    active: List[Tuple[float, float, Tuple[int, int, float], str]] = []
    nxt = 0
    for left, right in zip(points, points[1:]):
        while nxt < len(clipped) and clipped[nxt][0] <= left:
            active.append(clipped[nxt])
            nxt += 1
        active = [iv for iv in active if iv[1] > left]
        kind = max(active, key=lambda iv: iv[2])[3] if active else "unattributed"
        parts[kind] = parts.get(kind, 0.0) + (right - left)
    return parts


def build_ledger(spans: List[Span], operations: Iterable[Operation]) -> Ledger:
    """Split each operation's latency over the spans linked to it."""
    submits: Dict[str, Span] = {}
    outcomes: Dict[str, Span] = {}
    batches: Dict[int, Span] = {}
    for span in spans:
        rid = span.attrs.get("request_id")
        if span.name == "serve.submit":
            submits[rid] = span
        elif span.name == "serve.outcome":
            outcomes[rid] = span
        elif span.name == "serve.batch":
            batches[span.attrs["batch_id"]] = span

    def request_intervals(rid: str, out: list, caller: bool) -> None:
        """The request's queue wait and batch, plus (``caller``) its
        submit and outcome spans on the calling thread."""
        submit, outcome = submits.get(rid), outcomes.get(rid)
        batch = batches.get(outcome.attrs.get("batch_id")) if outcome else None
        if caller:
            for span in (submit, outcome):
                if span is not None:
                    _subtree(span, TIER_CALLER, 0, out)
        if batch is not None:
            if submit is not None:
                out.append((submit.end, batch.start,
                            (TIER_QUEUE, 0, submit.end), "serve.queue"))
            _subtree(batch, TIER_WORKER, 0, out)

    ledger = Ledger()
    for op in operations:
        intervals: List[Tuple[float, float, Tuple[int, int, float], str]] = []
        if op.root is not None:
            # The root's subtree holds the caller's side of every request
            # it submitted; link each one's queue wait and batch.
            _subtree(op.root, TIER_CALLER, 0, intervals)
            stack = [op.root]
            while stack:
                span = stack.pop()
                if span.name == "serve.submit":
                    request_intervals(span.attrs["request_id"], intervals,
                                      caller=False)
                stack.extend(span.children)
        for rid in op.request_ids:
            request_intervals(rid, intervals, caller=True)
        ledger.latencies.append(op.end - op.start)
        ledger.parts.append(_split(op.start, op.end, intervals))
    return ledger


def layer_of(kind: str) -> str:
    return kind.split(".", 1)[0]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
