"""Benchmark of the dose-evaluation stack: one command, three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload serve-liver --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with every form of
observability off.  ``--trace 1`` is the separate traced run: it measures
an untraced phase, then wraps each layer's entry points (``tracer.py``) and
measures a traced phase, and reports the per-layer split.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; everything above it is the readable report.

Exit codes: 0 when every output check passed, 1 when a check failed, 2
when the benchmark could not run (for example without the program's
sources next to it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import sys
from typing import Dict, List, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: matrices built once per checkout, before any timing.
CACHE_DIR = HERE / ".cache"
#: spans of traced runs and the deterministic-count record.
OUT_DIR = HERE / ".out"


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve-liver", "ensemble-robust",
                                 "opt-sharded"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Fix what the program reads from the environment, before importing it.

    A tune-cache file would change the shard configuration the serve
    backend and the optimization service use, so it is ignored; matrices
    are cached under this directory, filled before any timing.
    """
    os.environ.pop("REPRO_TUNE_CACHE", None)
    os.environ["REPRO_CACHE_DIR"] = str(CACHE_DIR)


def check_observability_off() -> List[str]:
    """The program's artifact sink, span tracer and lock witness are off."""
    from repro.obs import artifact, lockwitness, trace

    problems = []
    if artifact.enabled():
        problems.append("artifact sink is on")
    if trace.tracing_enabled():
        problems.append("span tracer is on")
    if lockwitness.get_witness() is not None:
        problems.append("lock witness is installed")
    return problems


# --------------------------------------------------------------------- #
# steadiness: deterministic counts must repeat across runs of one code
# --------------------------------------------------------------------- #


def code_hash() -> str:
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _same(a: object, b: object) -> bool:
    """Equal, floats to 1e-9 relative: a per-operation figure divides a
    float sum whose term count depends on the run length."""
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= 1e-9 * max(abs(a), abs(b))
    return a == b


def check_steady(workload: str, seed: int,
                 shared: Dict[str, object],
                 seeded: Dict[str, object]) -> List[str]:
    """Compare this run's deterministic counts with earlier runs' record.

    ``shared`` counts must match every earlier run of the same code;
    ``seeded`` ones every earlier run with the same seed.  New keys are
    added to the record.
    """
    path = OUT_DIR / "steady.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    runs = record.setdefault(code_hash(), {}).setdefault(workload, {})
    problems = []
    for scope, counts in (("shared", shared), (f"seed {seed}", seeded)):
        known = runs.setdefault(scope, {})
        for name, value in counts.items():
            value = json.loads(json.dumps(value))
            if name in known and not _same(known[name], value):
                problems.append(f"{name} was {known[name]} in an earlier run "
                                f"of this code ({scope}), now {value}")
            known.setdefault(name, value)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return problems


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #


def end_to_end(workload, phase, cold: List[float]
               ) -> Tuple[Dict[str, Tuple[float, str, str]], List[str]]:
    """``name -> (value, unit, samples)`` for the JSON, plus report lines."""
    import statistics

    from tracer import median

    lat_ms = [1e3 * s for s in phase.latencies_s]
    metrics = {
        "throughput_per_s": (phase.ops / phase.wall_s, "1/s",
                             f"{phase.ops} {workload.op_unit} in "
                             f"{phase.wall_s:.2f} s"),
        "latency_p50_ms": (median(lat_ms), "ms",
                           f"{len(lat_ms)} {workload.sample_unit}"),
        "setup_s": (median(cold), "s", f"{len(cold)} cold starts"),
        "peak_rss_mb": (median(phase.rss_peaks_mb), "MB",
                        f"{len(phase.rss_peaks_mb)} windows"),
    }
    extra = []
    if len(lat_ms) >= 100:
        extra.append(("latency_p90_ms",
                      statistics.quantiles(lat_ms, n=10)[-1], "ms",
                      f"{len(lat_ms)} {workload.sample_unit}"))
    if phase.modeled_s:
        from loads import modeled_us_per_op

        extra.append(("modeled_gpu_us_per_op", modeled_us_per_op(phase),
                      "us", "modeled A100 clock"))
    lines = [_row(n, v, u, s) for n, (v, u, s) in metrics.items()]
    lines += [_row(*row) for row in extra]
    return metrics, lines


def _row(name: str, value: float, unit: str, samples: str) -> str:
    return f"  {name:<34} {value:>14.6g} {unit:<10} {samples}"


def per_layer(workload, traced, untraced, recorder
              ) -> Tuple[Dict[str, Tuple[float, str, str]], List[str],
                         List[str]]:
    """Per-layer metrics of the traced phase, report lines, and problems.

    An entry point the workload is expected to exercise that recorded no
    call is a problem: a refactor that moves it must break this run loudly
    rather than report its layer as free.
    """
    from loads import modeled_us_per_op
    from tracer import (COMPILE, EXECUTE, LAYERS, Operation, build_ledger,
                        layer_of, median)

    timed = recorder.spans_in("timed")
    cold = recorder.spans_in("cold")
    problems = []
    for phase_name, spans, expected in (("cold start", cold,
                                         workload.expected_cold),
                                        ("timed phase", timed,
                                         workload.expected_timed)):
        names = [s.name for s in spans]
        for entry in expected:
            if entry.endswith("*"):
                calls = sum(n.startswith(entry[:-1]) for n in names)
            else:
                calls = names.count(entry)
            if calls == 0:
                problems.append(f"entry point {entry} recorded no calls in "
                                f"the traced {phase_name}")

    advances = [s for s in timed if s.name == "opt.advance"]
    operations = ([Operation(s.start, s.end, root=s) for s in advances]
                  if advances else traced.operations)
    ledger = build_ledger(timed, operations)
    for parts, latency in zip(ledger.parts, ledger.latencies):
        if abs(sum(parts.values()) - latency) > 1e-9:
            problems.append("ledger parts do not add up to an operation's "
                            "latency")
            break
    ops = max(traced.ops, 1)
    iters = max(len(advances), 1)

    def walk(roots):
        stack = list(roots)
        while stack:
            span = stack.pop()
            yield span
            stack.extend(span.children)

    in_advance = list(walk(advances))
    submits = [s for s in timed if s.name == "serve.submit"]
    batches = [s for s in timed if s.name == "serve.batch"]
    by_batch = {b.attrs["batch_id"]: b for b in batches}
    submit_end = {s.attrs["request_id"]: s.end for s in submits}
    queue_ms = [
        1e3 * (by_batch[o.attrs["batch_id"]].start
               - submit_end[o.attrs["request_id"]])
        for o in timed
        if o.name == "serve.outcome" and o.attrs.get("batch_id") in by_batch
        and o.attrs["request_id"] in submit_end
    ]
    converted = sum(
        any(s.name == "harness.convert" for s in walk([b])) for b in batches)
    ratios = []
    for span in timed:
        if span.name.startswith("dist.evaluate"):
            slices = [c.duration for c in span.children
                      if c.name in EXECUTE]
            if len(slices) > 1:
                ratios.append(max(slices) / (sum(slices) / len(slices)))
    # A sharded plan compiles its slices through compile_plan: count the
    # outermost compile only.
    compiled = [s for s in cold if "plan_bytes" in s.attrs
                and (s.parent is None or s.parent.name not in COMPILE)]
    if advances:
        # Forward: each iteration's share of the served batch it waited
        # for; adjoint: the sharded evaluation it ran itself.
        forward_s = 0.0
        for span in in_advance:
            batch = by_batch.get(span.attrs.get("batch_id"))
            if span.name == "serve.outcome" and batch is not None:
                forward_s += sum(c.attrs["modeled_s"] for c in batch.children
                                 if c.name == "serve.run_batch"
                                 ) / batch.attrs["size"]
        adjoint_s = sum(s.attrs["modeled_s"] for s in in_advance
                        if s.name == "dist.evaluate")
        modeled_us = 1e6 * (forward_s + adjoint_s) / iters
    else:
        modeled_us = modeled_us_per_op(traced)

    def dur_ms(spans, names, per):
        return 1e3 * sum(s.duration for s in spans if s.name in names) / per

    thr_traced = traced.ops / traced.wall_s
    thr_untraced = untraced.ops / untraced.wall_s
    m: Dict[str, Tuple[float, str, str]] = {
        "kernels.execute_ms_per_op": (ledger.mean_ms(EXECUTE.__contains__),
                                      "ms", "ledger"),
        "gpu.accounting_ms_per_op": (
            ledger.mean_ms(lambda k: layer_of(k) == "gpu"), "ms", "ledger"),
        "kernels.compile_ms_per_op": (ledger.mean_ms(COMPILE.__contains__),
                                      "ms", "ledger"),
        "kernels.compile_calls": (
            float(sum(s.name in COMPILE for s in timed)), "count", "timed"),
        "harness.convert_ms_per_op": (
            ledger.mean_ms(lambda k: k == "harness.convert"), "ms", "ledger"),
        "harness.convert_calls": (
            float(sum(s.name == "harness.convert" for s in timed)), "count",
            "timed"),
        "serve.plan_cache_miss_ratio": (
            converted / len(batches) if batches else 0.0, "ratio",
            f"{len(batches)} batches"),
        "serve.queue_wait_ms_p50": (median(queue_ms), "ms",
                                    f"{len(queue_ms)} requests"),
        "serve.submit_us": (
            1e6 * sum(s.duration for s in submits) / max(len(submits), 1),
            "us", f"{len(submits)} submits"),
        "serve.batch_size_mean": (
            sum(b.attrs["size"] for b in batches) / max(len(batches), 1),
            "requests", f"{len(batches)} batches"),
        "serve.batch_self_ms_per_op": (
            ledger.mean_ms(lambda k: k in ("serve.batch",
                                           "serve.run_multi_spmv",
                                           "serve.run_batch")),
            "ms", "ledger"),
        "serve.ms_per_op": (ledger.mean_ms(lambda k: layer_of(k) == "serve"),
                            "ms", "ledger"),
        "dist.evaluate_self_ms_per_op": (
            ledger.mean_ms(lambda k: layer_of(k) == "dist"), "ms", "ledger"),
        "dist.slice_time_max_over_mean": (median(ratios), "ratio",
                                          f"{len(ratios)} evaluations"),
        "dist.retries": (
            float(sum(s.attrs.get("retries", 0) for s in timed)), "count",
            "timed"),
        "opt.self_ms_per_op": (ledger.mean_ms(lambda k: layer_of(k) == "opt"),
                               "ms", "ledger"),
        "opt.forward_ms_per_iter": (
            dur_ms(in_advance, ("serve.submit", "serve.outcome"), iters)
            if advances else 0.0, "ms", f"{len(advances)} iterations"),
        "opt.adjoint_ms_per_iter": (
            dur_ms(in_advance, ("dist.evaluate",), iters)
            if advances else 0.0, "ms", f"{len(advances)} iterations"),
        "opt.objective_ms_per_iter": (
            dur_ms(in_advance, ("opt.objective",), iters)
            if advances else 0.0, "ms", f"{len(advances)} iterations"),
        "opt.checkpoint_ms_per_iter": (
            dur_ms(timed, ("opt.record_checkpoint", "opt.trajectory_point"),
                   iters) if advances else 0.0, "ms",
            f"{len(advances)} iterations"),
        "opt.evals_per_iter": (
            sum(s.name == "opt.objective" for s in in_advance) / iters
            if advances else 0.0, "count", f"{len(advances)} iterations"),
        "kernels.plan_bytes_per_nnz": (
            sum(s.attrs["plan_bytes"] for s in compiled)
            / max(sum(s.attrs["nnz"] for s in compiled), 1), "B",
            f"{len(compiled)} plans"),
        "gpu.modeled_dram_bytes_per_op": (
            sum(s.attrs["dram_bytes"] for s in timed
                if s.name == "gpu.multi_counters") / ops, "B", "modeled"),
        "gpu.modeled_us_per_op": (modeled_us, "modeled_us", "modeled A100"),
        "obs.trace_overhead_pct": (
            100.0 * (thr_untraced / thr_traced - 1.0), "%",
            "untraced vs traced throughput"),
        "unattributed_ms_per_op": (
            ledger.mean_ms(lambda k: k == "unattributed"), "ms", "ledger"),
        "ledger.latency_ms_per_op": (
            1e3 * sum(ledger.latencies) / max(len(ledger.latencies), 1),
            "ms", f"{len(ledger.latencies)} operations"),
    }
    lines = [_row(n, v, u, s) for n, (v, u, s) in m.items()]
    total = m["ledger.latency_ms_per_op"][0] or 1.0
    lines.append("  ledger split of the mean operation latency:")
    for layer in LAYERS + ("unattributed",):
        ms = ledger.mean_ms(lambda k, layer=layer: layer_of(k) == layer)
        lines.append(f"    {layer:<14} {ms:>10.4f} ms  "
                     f"{100.0 * ms / total:6.2f} %")
    return m, lines, problems


# --------------------------------------------------------------------- #
# the run
# --------------------------------------------------------------------- #


def run(args: argparse.Namespace) -> int:
    import numpy as np

    import loads
    import tracer

    off = check_observability_off()
    if off:
        print(f"error: {'; '.join(off)}", file=sys.stderr)
        return 2
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} | python "
          f"{platform.python_version()} numpy {np.__version__} "
          f"nproc {os.cpu_count()}")
    workload = loads.WORKLOADS[args.workload](args.seed)
    problems: List[str] = []

    # The timed phase runs before the cold starts: a process that has just
    # built and dropped many services keeps a fragmented heap, which would
    # make the serving footprint depend on the set-up history.
    workload.open()
    try:
        phase = workload.drive(args.seconds)
    finally:
        workload.close()
    untraced = phase

    if args.trace:
        workload.audit(untraced)
        recorder = tracer.Recorder()
        uninstall = tracer.install(recorder)
        try:
            recorder.phase = "cold"
            workload.cold_start()
            recorder.phase = "warmup"
            workload.open()
            try:
                recorder.phase = "timed"
                phase = workload.drive(args.seconds)
                recorder.phase = "after"
            finally:
                workload.close()
        finally:
            uninstall()
        workload.audit(phase)
        recorder.link_children()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        recorder.dump(str(spans_path))
    else:
        cold = [workload.cold_start() for _ in range(workload.cold_starts)]
        workload.audit(phase)

    phases = (untraced, phase) if args.trace else (phase,)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        problems += p.problems
        problems += [f"workload shape: {s}" for s in
                     workload.shape_problems(p)]
    if args.trace:
        metrics, lines, layer_problems = per_layer(workload, phase, untraced,
                                                   recorder)
        problems += layer_problems
        print(f"per-layer split (traced phase; untraced phase for overhead); "
              f"spans in {spans_path.relative_to(ROOT)}")
        shared = {
            "kernels.plan_bytes_per_nnz": metrics[
                "kernels.plan_bytes_per_nnz"][0],
            "gpu.modeled_dram_bytes_per_op": metrics[
                "gpu.modeled_dram_bytes_per_op"][0],
        }
    else:
        metrics, lines = end_to_end(workload, phase, cold)
        print("end-to-end (measured host clock unless marked modeled):")
        shared = {}
    for line in lines:
        print(line)
    by_design, by_seed = workload.signature(phase)
    shared.update(by_design)
    problems += [f"steadiness: {p}" for p in check_steady(
        args.workload, args.seed, shared, by_seed)]

    print(f"{workload.submit_unit}: attempted {attempted}, completed "
          f"{attempted - failed}, failed {failed} (rejections, timeouts "
          "and mismatches)")
    correct = not problems and failed == 0
    if problems:
        print(f"checks: {len(problems)} problem(s)")
        for p in problems[:20]:
            print(f"  - {p}")
    else:
        print("checks: every output bitwise equal to its stand-alone "
              "reference; workload shape and deterministic counts as "
              "designed")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.seconds < 0:
        print("error: --seconds must be non-negative", file=sys.stderr)
        return 2
    pin_environment()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    try:
        return run(args)
    except Exception as exc:  # report, never print a result
        import traceback

        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
