"""Unified per-run artifact record: one ``artifact.json`` per run.

The paper's claims are all *run-level* claims — execution configs,
precision modes, DRAM traffic, bitwise reproducibility — yet evidence
used to be scattered across four disjoint formats (provenance manifests,
loadtest CSVs, ``BENCH_*.json``, analyze reports).  This module is the
single source of truth that replaces them: an :class:`ArtifactSink`
creates one schema-versioned ``repro.artifact/v1`` record at run start,
and every phase enriches it in place —

* matrix build / format conversion (bench harness),
* execution-plan compilation (``repro.kernels.plan``),
* shard partition / placement / retry (``repro.dist``),
* serve batch composition and cache outcomes (``repro.serve``),
* bench points and analyze findings.

The artifact stores **decisions and hashes** (matrix fingerprints, plan
keys, shard specs, batch membership, RNG provenance, dose digests) —
never raw dose data — and carries enough to *deterministically replay*
any served request (:mod:`repro.serve.replay`).  Legacy outputs
(``manifest.json``, loadtest CSVs, ``BENCH_dist.json``) are **views**
rendered from the artifact, not independent formats.

Invariants (documented in DESIGN.md, checked by
:func:`validate_artifact`):

1. exactly one artifact per run, tagged ``repro.artifact/v1``;
2. every phase entry carries a process-unique ``seq``; serialization
   orders entries by an explicit per-phase sort key (with ``seq`` as the
   tiebreak), so the JSON is independent of thread completion order and
   of dict insertion order;
3. ``serve_batch.size == len(request_ids)`` for every batch;
4. every audited ``request`` entry carries a 64-hex ``dose_sha256``
   digest of the *served* dose bytes — the replay target;
5. the companion ``events.ndjson`` stream is derived from the same span
   tracer as the Chrome-trace export (one event source, two views).

Like the tracer and the clock, the process-wide sink defaults to a
no-op (:class:`NullArtifactSink`): instrumented hot paths pay one global
read and one empty method call when recording is disabled.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from repro.obs.lockwitness import guarded_lock
from repro.obs.metrics import get_registry

__all__ = [
    "ARTIFACT_SCHEMA",
    "KNOWN_PHASES",
    "ArtifactProblem",
    "ArtifactSink",
    "NullArtifactSink",
    "get_sink",
    "set_sink",
    "enabled",
    "record",
    "record_once",
    "set_param",
    "dose_sha256",
    "matrix_fingerprint",
    "cache_metrics_snapshot",
    "read_artifact",
    "validate_artifact",
]

ARTIFACT_SCHEMA = "repro.artifact/v1"

#: phases the built-in instrumentation writes.  Unknown phases are legal
#: (validation only warns) so downstream layers can extend the record.
KNOWN_PHASES: Tuple[str, ...] = (
    "matrix_build",
    "format_convert",
    "plan_compile",
    "shard_partition",
    "shard_placement",
    "shard_retry",
    "serve_batch",
    "serve_cache",
    "request",
    "loadtest",
    "bench_point",
    "experiment",
    "dist_sweep",
    "tune",
    "opt_submit",
    "opt_iteration",
    "opt_checkpoint",
    "opt_run",
    "opt_sweep",
    "opt_loadtest",
    "analyze",
    "lock_witness",
    "workload_generate",
    "ensemble_audit",
    "workloads_bench",
)

#: serialization sort key per phase (field names; ``seq`` is always the
#: final tiebreak).  Content-keyed phases are the ones written
#: concurrently from worker/executor threads.
_PHASE_SORT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "request": ("client", "index", "scenario"),
    "serve_batch": ("batch_id",),
    "shard_retry": ("shard", "attempt"),
    "plan_compile": ("matrix_fingerprint", "family"),
    "tune": ("key", "event"),
    "matrix_build": ("case", "preset"),
    "format_convert": ("case", "preset", "kernel"),
    "opt_submit": ("opt_id",),
    "opt_iteration": ("opt_id", "iteration"),
    "opt_checkpoint": ("opt_id", "iteration"),
    "opt_run": ("opt_id",),
    "workload_generate": ("workload", "scenario"),
    "ensemble_audit": ("workload", "preset"),
}

_RUN_STATUSES = ("running", "completed", "failed", "error")


# --------------------------------------------------------------------- #
# JSON hygiene
# --------------------------------------------------------------------- #


def _json_safe(value: Any) -> Any:
    """Coerce a recorded value into plain JSON-serializable types."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(
            value, (set, frozenset)
        ) else value
        return [_json_safe(v) for v in items]
    return str(value)


def _sort_token(value: Any) -> Tuple[int, Any]:
    """A totally-ordered token for heterogeneous sort-key fields."""
    if isinstance(value, bool) or value is None:
        return (1, str(value))
    if isinstance(value, (int, float)):
        return (0, float(value))
    return (1, str(value))


def _entry_sort_key(phase: str):
    fields = _PHASE_SORT_FIELDS.get(phase, ())

    def key(entry: Dict[str, Any]) -> Tuple[Tuple[int, Any], ...]:
        return tuple(_sort_token(entry.get(f)) for f in fields) + (
            _sort_token(entry.get("seq")),
        )

    return key


# --------------------------------------------------------------------- #
# hashing helpers: the artifact records digests, never payloads
# --------------------------------------------------------------------- #


def dose_sha256(dose: np.ndarray) -> str:
    """Canonical digest of a dose vector (dtype-faithful byte hash)."""
    arr = np.ascontiguousarray(dose)
    digest = hashlib.sha256()
    digest.update(str(arr.dtype).encode("ascii"))
    digest.update(repr(arr.shape).encode("ascii"))
    digest.update(arr.tobytes())
    return digest.hexdigest()


def matrix_fingerprint(matrix: Any) -> str:
    """A 16-hex structural fingerprint of a sparse-matrix object.

    Hashes every ndarray field (name, dtype, shape, bytes) plus scalar
    metadata of a dataclass-based matrix (CSR, ELLPACK, SELL-C-sigma,
    RSCF all qualify); falls back to ``vars()`` for anything else.  Two
    matrices with identical structure and values fingerprint equally
    regardless of object identity — the cache/plan key the artifact
    records for audits.
    """
    digest = hashlib.sha256()
    digest.update(type(matrix).__name__.encode("ascii"))
    if dataclasses.is_dataclass(matrix):
        items = sorted(
            (f.name, getattr(matrix, f.name))
            for f in dataclasses.fields(matrix)
        )
    else:
        attrs = vars(matrix) if hasattr(matrix, "__dict__") else {}
        items = sorted(attrs.items())
    for name, value in items:
        if isinstance(value, np.ndarray):
            digest.update(name.encode("ascii"))
            digest.update(str(value.dtype).encode("ascii"))
            digest.update(repr(value.shape).encode("ascii"))
            digest.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, (bool, int, float, str, tuple)):
            digest.update(f"{name}={value!r}".encode("utf-8"))
    return digest.hexdigest()[:16]


def cache_metrics_snapshot() -> Dict[str, Any]:
    """Snapshot of every cache metric (hit/miss/eviction/size counters).

    Covers the serve plan cache (one entry per (plan, precision): the
    converted matrix and every operator compiled from it), the harness
    matrix caches and the process-global plan cache — the numbers that
    make loadtest amortization claims auditable after the fact.
    """
    return {
        name: state
        for name, state in get_registry().snapshot().items()
        if "cache" in name
    }


# --------------------------------------------------------------------- #
# sinks
# --------------------------------------------------------------------- #


class NullArtifactSink:
    """Default sink: records nothing, allocates nothing."""

    enabled = False
    run_id = ""

    def record(self, phase: str, **entry: Any) -> None:
        pass

    def record_once(self, phase: str, key: Hashable, **entry: Any) -> bool:
        return False

    def set_param(self, name: str, value: Any) -> None:
        pass

    def record_metrics(self) -> None:
        pass

    def finish(self, status: str = "completed",
               exit_code: Optional[int] = 0) -> None:
        pass

    def artifact(self) -> Dict[str, Any]:
        return {}


def _package_version() -> str:
    try:
        from repro import __version__

        return __version__
    except Exception:  # pragma: no cover - broken partial install
        return "unknown"


def _scipy_version() -> Optional[str]:
    try:
        import scipy

        return scipy.__version__
    except Exception:  # pragma: no cover - scipy is a hard dep today
        return None


def _environment() -> Dict[str, Any]:
    from repro.obs.provenance import SEED_POLICY

    return {
        "package_version": _package_version(),
        "python_version": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy_version": np.__version__,
        "scipy_version": _scipy_version(),
        "seed_policy": SEED_POLICY,
    }


class ArtifactSink:
    """Thread-safe in-memory builder of one ``repro.artifact/v1`` record.

    Created once at run start; phases enrich it via :meth:`record` /
    :meth:`record_once`; :meth:`write` serializes with sorted keys and
    per-phase entry ordering so concurrent enrichment cannot perturb the
    on-disk bytes' structure.
    """

    enabled = True

    def __init__(self, command: Optional[List[str]] = None,
                 run_id: Optional[str] = None):
        now = time.time()
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(now))
        self.run_id = run_id or f"run-{stamp}-{int(now * 1e6) % 10**6:06d}"
        self._lock = guarded_lock(  # analyze: lock-guards[_seq, _phases, _once_keys, _params, _metrics, _events_file, _run]
            "obs.artifact.ArtifactSink"
        )
        self._seq = 0
        self._phases: Dict[str, List[Dict[str, Any]]] = {}
        self._once_keys: set = set()
        self._params: Dict[str, Any] = {}
        self._metrics: Dict[str, Any] = {}
        self._events_file: Optional[str] = None
        self._run: Dict[str, Any] = {
            "run_id": self.run_id,
            "command": list(command if command is not None else sys.argv),
            "created_unix": now,
            "created_iso": time.strftime(
                "%Y-%m-%dT%H:%M:%S%z", time.localtime(now)
            ),
            "status": "running",
            "finished_unix": None,
            "exit_code": None,
        }
        self._environment = _environment()

    # ----------------------------- enrichment ------------------------- #

    def record(self, phase: str, **entry: Any) -> None:
        """Append one entry to ``phase`` (thread-safe; any thread)."""
        safe = {k: _json_safe(v) for k, v in entry.items()}
        with self._lock:
            safe["seq"] = self._seq
            self._seq += 1
            self._phases.setdefault(phase, []).append(safe)

    def record_once(self, phase: str, key: Hashable, **entry: Any) -> bool:
        """Record only the first entry per ``(phase, key)``; True if
        recorded."""
        safe = {k: _json_safe(v) for k, v in entry.items()}
        with self._lock:
            if (phase, key) in self._once_keys:
                return False
            self._once_keys.add((phase, key))
            safe["seq"] = self._seq
            self._seq += 1
            self._phases.setdefault(phase, []).append(safe)
            return True

    def set_param(self, name: str, value: Any) -> None:
        """Attach one named parameter block (e.g. the serve workload)."""
        with self._lock:
            self._params[name] = _json_safe(value)

    def record_metrics(self) -> None:
        """Stamp the current metrics-registry snapshot into the record."""
        snapshot = _json_safe(get_registry().snapshot())
        with self._lock:
            self._metrics = snapshot

    def set_events_file(self, filename: Optional[str]) -> None:
        with self._lock:
            self._events_file = filename

    def finish(self, status: str = "completed",
               exit_code: Optional[int] = 0) -> None:
        """Close the run: final status, exit code, metrics snapshot."""
        if status not in _RUN_STATUSES:
            raise ValueError(
                f"unknown run status {status!r}; expected one of "
                f"{_RUN_STATUSES}"
            )
        self.record_metrics()
        with self._lock:
            self._run["status"] = status
            self._run["exit_code"] = exit_code
            self._run["finished_unix"] = time.time()

    # ----------------------------- serialization ---------------------- #

    def artifact(self) -> Dict[str, Any]:
        """A deep JSON-ready copy with deterministic entry ordering."""
        with self._lock:
            phases = {
                phase: [dict(e) for e in entries]
                for phase, entries in self._phases.items()
            }
            run = dict(self._run)
            params = json.loads(json.dumps(self._params))
            metrics_snapshot = json.loads(json.dumps(self._metrics))
            events_file = self._events_file
        for phase, entries in phases.items():
            entries.sort(key=_entry_sort_key(phase))
        return {
            "schema": ARTIFACT_SCHEMA,
            "run": run,
            "environment": dict(self._environment),
            "params": params,
            "phases": {p: phases[p] for p in sorted(phases)},
            "metrics": metrics_snapshot,
            "events": events_file,
        }

    def to_json(self) -> str:
        return json.dumps(self.artifact(), indent=2, sort_keys=True)

    def write(self, directory: Union[str, Path],
              filename: str = "artifact.json") -> Path:
        """Write ``artifact.json`` into ``directory`` and return the
        path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / filename
        path.write_text(self.to_json() + "\n")
        return path


# --------------------------------------------------------------------- #
# process-wide sink (one per run, swapped atomically like the tracer)
# --------------------------------------------------------------------- #

_sink: Union[NullArtifactSink, ArtifactSink] = NullArtifactSink()


def get_sink() -> Union[NullArtifactSink, ArtifactSink]:
    """The process-wide artifact sink (a no-op unless a run installed
    one)."""
    return _sink


def set_sink(
    sink: Union[NullArtifactSink, ArtifactSink],
) -> Union[NullArtifactSink, ArtifactSink]:
    """Install ``sink`` as the process sink; returns the previous one."""
    global _sink
    previous = _sink
    _sink = sink
    return previous


def enabled() -> bool:
    """True when a real sink is installed (guards expensive hashing)."""
    return _sink.enabled


def record(phase: str, **entry: Any) -> None:
    """Record one phase entry on the current sink (no-op when
    disabled)."""
    _sink.record(phase, **entry)


def record_once(phase: str, key: Hashable, **entry: Any) -> bool:
    return _sink.record_once(phase, key, **entry)


def set_param(name: str, value: Any) -> None:
    _sink.set_param(name, value)


# --------------------------------------------------------------------- #
# reading + validation
# --------------------------------------------------------------------- #


def read_artifact(path: Union[str, Path]) -> Dict[str, Any]:
    """Load an artifact back as a dict (schema-checked)."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("schema") != ARTIFACT_SCHEMA:
        raise ValueError(
            f"{path} is not a {ARTIFACT_SCHEMA} artifact "
            f"(schema={data.get('schema') if isinstance(data, dict) else None!r})"
        )
    return data


@dataclasses.dataclass(frozen=True)
class ArtifactProblem:
    """One validation finding against an artifact record."""

    severity: str  # "error" | "warning"
    message: str

    def __str__(self) -> str:
        return f"{self.severity.upper()}: {self.message}"


def validate_artifact(data: Dict[str, Any]) -> List[ArtifactProblem]:
    """Check an artifact against the ``repro.artifact/v1`` invariants.

    Returns problems, most severe first.  An empty list means the
    artifact is fully valid; callers decide whether warnings fail the
    run (``artifact validate --strict`` does).
    """
    problems: List[ArtifactProblem] = []

    def error(message: str) -> None:
        problems.append(ArtifactProblem("error", message))

    def warning(message: str) -> None:
        problems.append(ArtifactProblem("warning", message))

    if not isinstance(data, dict):
        return [ArtifactProblem("error", "artifact is not a JSON object")]
    if data.get("schema") != ARTIFACT_SCHEMA:
        error(
            f"schema is {data.get('schema')!r}, expected {ARTIFACT_SCHEMA!r}"
        )
    run = data.get("run")
    if not isinstance(run, dict):
        error("missing 'run' section")
        run = {}
    if not run.get("run_id"):
        error("run.run_id is missing or empty")
    if run.get("status") not in _RUN_STATUSES:
        error(
            f"run.status {run.get('status')!r} not in {_RUN_STATUSES}"
        )
    elif run.get("status") == "running":
        warning("run.status is 'running': the run never finished")
    if not isinstance(data.get("environment"), dict):
        error("missing 'environment' section")
    phases = data.get("phases")
    if not isinstance(phases, dict):
        error("missing 'phases' section")
        phases = {}
    if not phases:
        warning("artifact has no phase entries at all")
    for phase, entries in phases.items():
        if not isinstance(entries, list):
            error(f"phase {phase!r} is not a list of entries")
            continue
        if phase not in KNOWN_PHASES:
            warning(f"unknown phase {phase!r} (extension or typo?)")
        seqs = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                error(f"phase {phase!r} entry {i} is not an object")
                continue
            if not isinstance(entry.get("seq"), int):
                error(f"phase {phase!r} entry {i} has no integer 'seq'")
            else:
                seqs.append(entry["seq"])
        if len(seqs) != len(set(seqs)):
            error(f"phase {phase!r} has duplicate 'seq' values")
    for i, entry in enumerate(phases.get("serve_batch", [])):
        if not isinstance(entry, dict):
            continue
        request_ids = entry.get("request_ids")
        if not isinstance(request_ids, list) or (
            entry.get("size") != len(request_ids)
        ):
            error(
                f"serve_batch entry {i} (batch_id="
                f"{entry.get('batch_id')!r}): size != len(request_ids)"
            )
    requests = phases.get("request", [])
    for entry in requests:
        if not isinstance(entry, dict) or entry.get("status") != "ok":
            continue
        sha = entry.get("dose_sha256")
        if entry.get("bitwise") is not None and not (
            isinstance(sha, str)
            and len(sha) == 64
            and all(c in "0123456789abcdef" for c in sha)
        ):
            error(
                f"request {entry.get('request_id')!r} was audited but "
                "carries no 64-hex dose_sha256"
            )
    if requests and not (data.get("params") or {}).get("workload"):
        warning(
            "request entries recorded without params.workload: "
            "deterministic replay is unavailable"
        )
    if not data.get("metrics"):
        warning("no metrics snapshot recorded")
    problems.sort(key=lambda p: (p.severity != "error",))
    return problems
