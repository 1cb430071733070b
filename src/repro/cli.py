"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    repro-rtdose info                  # device catalogue + case inventory
    repro-rtdose table1                # Table I
    repro-rtdose fig2 ... fig7         # one figure
    repro-rtdose all                   # everything, with paper-band checks
    repro-rtdose spmv --kernel half_double --case "Liver 1" --device a100
    repro-rtdose all --csv results/    # also dump raw rows + manifest.json
    repro-rtdose fig5 --trace t.json   # Chrome-trace spans (Perfetto)
    repro-rtdose trace fig4            # run under tracing, print span report

(or ``python -m repro.cli ...``).

Observability flags (every subcommand):

``--trace PATH``   record spans, write Chrome-trace JSON to PATH, print a
                   span summary and the metrics table afterwards;
``--metrics``      print the metrics registry summary after the command;
``-v`` / ``-vv``   INFO / DEBUG logging; ``-q`` errors only.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.harness import run_spmv_experiment
from repro.bench.recording import (
    check_claims,
    experiment_csv_from_artifact,
    rows_to_csv,
)
from repro.gpu.device import get_device, list_devices
from repro.kernels.dispatch import kernel_names
from repro.obs import artifact as artifact_mod
from repro.obs.export import (
    span_summary_table,
    write_chrome_trace,
    write_events_ndjson,
    write_jsonl,
)
from repro.obs.logging import get_logger, kv, setup_logging
from repro.obs.metrics import get_registry
from repro.obs.provenance import (
    collect_manifest,
    manifest_from_artifact,
    write_manifest,
)
from repro.obs.trace import (
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
)
from repro.plans.cases import PAPER_TABLE1, case_names
from repro.util.tables import Table
from repro.workloads import WORKLOAD_PRESETS, workload_names

_log = get_logger(__name__)


def _cmd_info(_: argparse.Namespace) -> int:
    devices = Table(
        ["device", "kind", "SMs/cores", "peak BW (GB/s)", "FP64 (TFLOP/s)",
         "L2 (MiB)"],
        title="Device catalogue",
    )
    for spec in list_devices().values():
        devices.add_row(
            [
                spec.name,
                spec.kind.value,
                spec.sm_count,
                spec.peak_bw / 1e9,
                spec.peak_flops_fp64 / 1e12,
                spec.l2_bytes / 2**20,
            ]
        )
    print(devices.render())
    print()
    cases = Table(
        ["case", "paper rows", "paper cols", "paper nnz", "paper density"],
        title="Evaluation cases (Table I metadata)",
    )
    for name in case_names():
        p = PAPER_TABLE1[name]
        cases.add_row([name, p.rows, p.cols, p.nnz, f"{100 * p.density:.2f}%"])
    print(cases.render())
    print()
    print("Kernels:", ", ".join(kernel_names()))
    return 0


def _run_experiment(
    name: str,
    csv_dir: Optional[Path],
    chart: bool = False,
    preset: Optional[str] = None,
):
    """Run one experiment; returns (all claims in band, report)."""
    fn = ALL_EXPERIMENTS[name]
    report = fn(preset=preset) if preset else fn()
    if artifact_mod.enabled():
        for r in report.rows:
            artifact_mod.record(
                "bench_point",
                experiment=name, case=r.case, kernel=r.kernel,
                device=r.device, threads_per_block=r.threads_per_block,
                time_s=r.time_s, gflops=r.gflops,
                bandwidth_gbs=r.bandwidth_gbs,
                bandwidth_fraction=r.bandwidth_fraction,
                operational_intensity=r.operational_intensity,
                limiter=r.limiter, relative_error=r.relative_error,
                reproducible=r.reproducible,
            )
    print(report.render())
    if chart and report.rows:
        from repro.bench.figures import grouped_bar_chart

        # Series axis: whatever actually varies (device for fig7, block
        # size for fig4, kernel otherwise).
        kernels = {r.kernel for r in report.rows}
        devices = {r.device for r in report.rows}
        if len(kernels) == 1 and len(devices) > 1:
            series = "device"
        elif len(kernels) == 1:
            series = "threads_per_block"
        else:
            series = "kernel"
        print()
        print(grouped_bar_chart(report.rows, series_by=series))
    checks = check_claims(report)
    ok = True
    if checks:
        print()
        print("Paper-band checks:")
        for c in checks:
            verdict = "OK  " if c.in_band else "OUT "
            paper = f"paper={c.paper_value:g}" if c.paper_value is not None else ""
            print(
                f"  {verdict}{c.claim}: measured={c.measured:.4g} "
                f"band={c.band} {paper} [{c.source}]"
            )
            ok = ok and c.in_band
    if csv_dir is not None and report.rows:
        csv_dir.mkdir(parents=True, exist_ok=True)
        path = csv_dir / f"{name}.csv"
        sink = artifact_mod.get_sink()
        if sink.enabled:
            # The CSV is a view of the artifact's bench_point entries
            # (byte-compatible with the legacy report-based writer).
            path.write_text(
                experiment_csv_from_artifact(sink.artifact(), name)
            )
        else:
            path.write_text(rows_to_csv(report))
        print(f"\nraw rows written to {path}")
    print()
    return ok, report


def _cmd_experiment(args: argparse.Namespace) -> int:
    csv_dir = Path(args.csv) if args.csv else None
    names = list(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    all_ok = True
    all_rows = []
    phases = {}
    for name in names:
        t0 = time.perf_counter()
        ok, report = _run_experiment(
            name, csv_dir, chart=args.chart, preset=args.preset
        )
        phases[name] = round(time.perf_counter() - t0, 6)
        all_ok = ok and all_ok
        all_rows.extend(report.rows)
        artifact_mod.record(
            "experiment", name=name, wall_s=phases[name], ok=ok,
        )
    if csv_dir is not None:
        sink = artifact_mod.get_sink()
        if sink.enabled:
            # The manifest is a view of the artifact, not an
            # independently collected record.
            sink.record_metrics()
            manifest = manifest_from_artifact(
                sink.artifact(),
                preset=args.preset or "per-experiment default",
            )
        else:
            manifest = collect_manifest(
                experiments=names,
                rows=all_rows,
                phases=phases,
                preset=args.preset or "per-experiment default",
            )
        path = write_manifest(manifest, csv_dir)
        print(f"run manifest written to {path}")
    if not all_ok:
        print("SOME CLAIMS OUT OF PAPER BANDS", file=sys.stderr)
        return 1
    return 0


def _cmd_spmv(args: argparse.Namespace) -> int:
    device = get_device(args.device)
    row = run_spmv_experiment(
        args.kernel,
        args.case,
        device=device,
        preset=args.preset,
        threads_per_block=args.threads_per_block,
        at_paper_scale=not args.bench_scale,
    )
    if artifact_mod.enabled():
        artifact_mod.record(
            "bench_point",
            experiment="spmv", case=row.case, kernel=row.kernel,
            device=row.device, threads_per_block=row.threads_per_block,
            time_s=row.time_s, gflops=row.gflops,
            bandwidth_gbs=row.bandwidth_gbs,
            bandwidth_fraction=row.bandwidth_fraction,
            operational_intensity=row.operational_intensity,
            limiter=row.limiter, relative_error=row.relative_error,
            reproducible=row.reproducible,
        )
    table = Table(
        ["case", "kernel", "device", "tpb", "time", "GFLOP/s", "BW GB/s",
         "BW frac", "OI", "limiter", "rel err", "bitwise"],
        title="SpMV experiment" + (" (bench scale)" if args.bench_scale else
                                   " (paper scale)"),
    )
    table.add_row(row.as_list())
    print(table.render())
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    from repro.dose import Beam, compute_beam_geometry, generate_spot_map
    from repro.dose.bev_plot import render_beams_eye_view
    from repro.plans.cases import _target_centroid, get_case

    case = get_case(args.case, args.preset)
    phantom = case.build_phantom()
    beam = Beam(args.case, case.gantry_deg, _target_centroid(phantom))
    geometry = compute_beam_geometry(phantom, beam)
    spot_map = generate_spot_map(
        phantom, beam, geometry,
        spot_spacing_mm=case.spot_spacing_mm,
        layer_spacing_mm=case.layer_spacing_mm,
    )
    print(render_beams_eye_view(phantom, geometry, spot_map, layer=args.layer))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.bench.harness import case_weights, prepare_input_matrix
    from repro.gpu.nsight import profile_report
    from repro.kernels.dispatch import make_kernel

    device = get_device(args.device)
    kernel = make_kernel(args.kernel)
    matrix = prepare_input_matrix(args.kernel, args.case, args.preset)
    weights = case_weights(args.case, matrix.n_cols)
    result = kernel.run(
        matrix, weights, device=device,
        threads_per_block=args.threads_per_block, rng=0,
    )
    print(profile_report(result))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """``repro-rtdose analyze``: run the static contract checkers."""
    from repro.analyze import get_registry as get_rule_registry
    from repro.analyze import run_analysis

    if args.list_rules:
        table = Table(
            ["rule", "name", "severity", "description"],
            title="Static analysis rules",
        )
        for rule in get_rule_registry().rules():
            table.add_row(
                [rule.rule_id, rule.name, rule.severity.value,
                 rule.description]
            )
        print(table.render())
        return 0
    context = None
    if args.include:
        from repro.analyze import AnalysisContext

        context = AnalysisContext(
            extra_lint_paths=tuple(Path(p) for p in args.include)
        )
    try:
        report = run_analysis(context, suppress=args.suppress)
    except KeyError as exc:
        print(f"analyze: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.to_json(strict=args.strict))
    else:
        print(report.render_table())
    return report.exit_code(strict=args.strict)


def _witness_report(witness) -> int:
    """Print a lock-witness summary, record the ``lock_witness`` phase,
    and return 1 when any violation was observed."""
    summary = witness.summary()
    violations = summary["violations"]
    print()
    print(
        f"Lock witness: {summary['acquisitions']} acquisitions across "
        f"{len(summary['locks'])} lock classes, "
        f"{len(summary['edges'])} order edges, "
        f"{len(violations)} violation(s)"
    )
    for v in violations:
        print(
            f"  {v['kind']}: acquiring {v['acquiring']} while holding "
            f"{v['held']} (x{v['count']}, thread {v['thread']}): "
            f"{v['detail']}",
            file=sys.stderr,
        )
    if artifact_mod.enabled():
        artifact_mod.record("lock_witness", **summary)
    return 1 if violations else 0


def _loadtest_config(args: argparse.Namespace):
    from repro.serve.loadgen import LoadTestConfig

    return LoadTestConfig(
        n_requests=args.requests,
        n_clients=args.clients,
        burst=args.burst,
        n_plans=args.plans,
        precision=args.precision,
        n_workers=args.workers,
        max_batch_size=args.batch_size,
        batch_window_s=args.batch_window_ms / 1e3,
        deadline_s=(args.deadline_ms / 1e3 if args.deadline_ms else None),
        seed=args.seed,
        case_names=args.case or None,
        preset=args.preset,
        shards=args.shards,
        dist_devices=args.dist_devices,
        dist_placement=args.dist_placement,
        workload=getattr(args, "workload", "synthetic"),
    )


def _cmd_serve_loadtest(args: argparse.Namespace) -> int:
    """``repro-rtdose serve loadtest``: closed-loop latency/throughput run."""
    from repro.bench.recording import check_loadtest_claims, loadtest_rows_to_csv
    from repro.serve.loadgen import run_loadtest

    witness = None
    if getattr(args, "lock_witness", False):
        from repro.obs.lockwitness import install_witness, uninstall_witness

        # Install before the service is built so every declared lock the
        # run creates is wrapped; recording (non-strict) mode, so the
        # run completes and violations are reported at the end.
        witness = install_witness()
    try:
        report = run_loadtest(_loadtest_config(args))
    finally:
        if witness is not None:
            uninstall_witness()
    print(report.render())
    print()
    print("Serving-layer checks:")
    ok = True
    for c in check_loadtest_claims(report):
        verdict = "OK  " if c.in_band else "OUT "
        print(
            f"  {verdict}{c.claim}: measured={c.measured:.6g} "
            f"band={c.band} [{c.source}]"
        )
        ok = ok and c.in_band
    if args.csv:
        path = Path(args.csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        sink = artifact_mod.get_sink()
        if sink.enabled:
            from repro.bench.recording import loadtest_csv_from_artifact

            # The CSV is a view of the artifact's request entries
            # (byte-compatible with the legacy report-based writer).
            path.write_text(loadtest_csv_from_artifact(sink.artifact()))
        else:
            path.write_text(loadtest_rows_to_csv(report))
        print(f"\nper-request records written to {path}")
    witness_rc = _witness_report(witness) if witness is not None else 0
    if witness_rc:
        print("LOCK-ORDER VIOLATIONS WITNESSED", file=sys.stderr)
    if not ok:
        print("SERVING-LAYER CLAIMS OUT OF BAND", file=sys.stderr)
        return 1
    return witness_rc


def _cmd_serve_run(args: argparse.Namespace) -> int:
    """``repro-rtdose serve run``: start a service, serve a demo stream."""
    import numpy as np

    from repro.serve.loadgen import build_synthetic_plans, request_weights
    from repro.serve.request import EvaluationRequest, Rejected
    from repro.serve.scheduler import BatchingPolicy
    from repro.serve.service import DoseEvaluationService, ServiceConfig

    config = _loadtest_config(args)
    service = DoseEvaluationService(ServiceConfig(
        n_workers=config.n_workers,
        batching=BatchingPolicy(
            max_batch_size=config.max_batch_size,
            max_wait_s=config.batch_window_s,
        ),
        shards=config.shards,
        dist_devices=config.dist_devices,
        dist_placement=config.dist_placement,
    ))
    masters = {}
    if config.case_names:
        for i, case in enumerate(config.case_names):
            record = service.plans.register_case(
                f"plan-{i}", case, preset=config.preset
            )
            masters[record.plan_id] = record.matrix
    else:
        for plan_id, matrix in build_synthetic_plans(config).items():
            service.plans.register(plan_id, matrix, source="synthetic")
            masters[plan_id] = matrix
    plan_ids = sorted(masters)
    record_artifact = artifact_mod.enabled()
    if record_artifact:
        from dataclasses import asdict

        workload = asdict(config)
        workload["mode"] = "serve_run"
        artifact_mod.set_param("workload", workload)
    completed = rejected = 0
    total_dose = 0.0
    with service:
        for i in range(config.n_requests):
            plan_id = plan_ids[i % len(plan_ids)]
            outcome = service.submit(EvaluationRequest(
                request_id=f"run-{i}",
                plan_id=plan_id,
                weights=request_weights(
                    config, 0, i, masters[plan_id].n_cols
                ),
                precision=config.precision,
            ))
            if isinstance(outcome, Rejected):
                rejected += 1
                _log.warning(kv("request rejected", request=f"run-{i}",
                                reason=outcome.reason.value))
                if record_artifact:
                    artifact_mod.record(
                        "request", request_id=f"run-{i}", client=0,
                        index=i, plan_id=plan_id,
                        precision=config.precision,
                        status=outcome.reason.value,
                    )
                continue
            result = outcome.outcome(timeout=30.0)
            if isinstance(result, Rejected):
                rejected += 1
                if record_artifact:
                    artifact_mod.record(
                        "request", request_id=f"run-{i}", client=0,
                        index=i, plan_id=plan_id,
                        precision=config.precision,
                        status=result.reason.value,
                    )
                continue
            completed += 1
            total_dose += float(np.sum(result.dose))
            if record_artifact:
                artifact_mod.record(
                    "request", request_id=f"run-{i}", client=0, index=i,
                    plan_id=plan_id, precision=config.precision,
                    status="ok", batch_id=result.batch_id,
                    batch_size=result.batch_size,
                    cache_hit=result.cache_hit, shards=result.shards,
                    bitwise=None,
                    dose_sha256=artifact_mod.dose_sha256(result.dose),
                    dose_dtype=str(result.dose.dtype),
                )
        stats = service.stats()
    if record_artifact:
        artifact_mod.record(
            "serve_cache", metrics=artifact_mod.cache_metrics_snapshot()
        )
    table = Table(["stat", "value"], title="Service run")
    table.add_row(["requests completed", completed])
    table.add_row(["requests rejected", rejected])
    table.add_row(["total dose (sum over voxels)", f"{total_dose:.6e}"])
    for name in sorted(stats):
        table.add_row([name, round(stats[name], 6)])
    print(table.render())
    return 0 if rejected == 0 else 1


def _cmd_dist_run(args: argparse.Namespace) -> int:
    """``repro-rtdose dist run``: one sharded evaluation + bitwise check."""
    import numpy as np

    from repro.bench.harness import convert_for_kernel
    from repro.dist import (
        DevicePool,
        FailureInjector,
        ShardedEvaluator,
        ShardExecutionError,
    )
    from repro.kernels.dispatch import make_kernel
    from repro.plans.cases import build_case_matrix
    from repro.util.rng import make_rng, stable_seed

    kernel = make_kernel(args.kernel)
    master = build_case_matrix(args.case, args.preset).matrix
    matrix = convert_for_kernel(master, args.kernel)
    evaluator = ShardedEvaluator(
        matrix,
        kernel,
        args.shards,
        pool=DevicePool.of(
            args.dist_devices or min(args.shards, 4), args.device
        ),
        placement=args.dist_placement,
        retry_budget=args.retry_budget,
    )
    injector = (
        FailureInjector.fail_once(*args.fail_shard)
        if args.fail_shard else None
    )
    rng = make_rng(stable_seed("dist-run", args.case, args.seed))
    weights = rng.random(matrix.n_cols)
    try:
        evaluation = evaluator.evaluate(weights, injector=injector)
    except ShardExecutionError as exc:
        print(f"sharded evaluation failed: {exc}", file=sys.stderr)
        return 1
    reference = kernel.run(
        matrix, weights,
        device=get_device(args.device),
        plan=kernel.prepare_plan(matrix),
    )
    bitwise = bool(np.array_equal(evaluation.doses, reference.y))

    shards = Table(
        ["shard", "rows", "nnz", "device", "modeled time (ms)"],
        title=f"Sharded evaluation — {args.case} / {args.kernel}",
    )
    for spec, compiled in zip(evaluator.sharded.specs, evaluator.shards):
        shards.add_row(
            [
                spec.index,
                f"[{spec.row_start}, {spec.row_end})",
                spec.nnz,
                compiled.device.name,
                evaluation.per_shard_time_s[spec.index] * 1e3,
            ]
        )
    print(shards.render())
    print()
    summary = Table(["quantity", "value"])
    summary.add_row(["shards", evaluator.n_shards])
    summary.add_row(["devices", evaluator.pool.n_devices])
    summary.add_row(["nnz imbalance", round(evaluator.sharded.imbalance, 4)])
    summary.add_row(["wall time (ms)", evaluation.wall_time_s * 1e3])
    summary.add_row(["serial time (ms)", evaluation.serial_time_s * 1e3])
    summary.add_row(
        ["single-device time (ms)", reference.timing.time_s * 1e3]
    )
    summary.add_row(["retries spent", evaluation.retries])
    summary.add_row(["bitwise identical", "yes" if bitwise else "NO"])
    print(summary.render())
    return 0 if bitwise else 1


def _cmd_dist_sweep(args: argparse.Namespace) -> int:
    """``repro-rtdose dist sweep``: strong scaling over shard counts."""
    from repro.bench.recording import write_dist_bench
    from repro.dist import strong_scaling_sweep

    witness = None
    if getattr(args, "lock_witness", False):
        from repro.obs.lockwitness import install_witness, uninstall_witness

        witness = install_witness()
    try:
        report = strong_scaling_sweep(
            case=args.case,
            preset=args.preset,
            kernel_name=args.kernel,
            shard_counts=args.shards,
            shard_policy=args.policy,
            device_name=args.device,
            seed=args.seed,
            dispatch=args.dispatch,
            threads_per_block=args.tpb,
            repeats=args.repeats,
            use_tuned=args.tuned,
        )
    finally:
        if witness is not None:
            uninstall_witness()
    print(report.render())
    if args.json:
        from repro.bench.recording import dist_bench_from_artifact

        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        sink = artifact_mod.get_sink()
        if sink.enabled:
            # BENCH_dist.json is a view of the artifact's dist_sweep
            # phase (the sweep recorded its own repro.dist-bench/v1
            # record there).
            write_dist_bench(dist_bench_from_artifact(sink.artifact()),
                             args.json)
        else:
            write_dist_bench(report.record(), args.json)
        print(f"\nsweep record written to {args.json}")
    witness_rc = _witness_report(witness) if witness is not None else 0
    if witness_rc:
        print("LOCK-ORDER VIOLATIONS WITNESSED", file=sys.stderr)
    if not report.all_bitwise_identical:
        print("SHARDED RESULTS NOT BITWISE IDENTICAL", file=sys.stderr)
        return 1
    return witness_rc


def _cmd_tune_run(args: argparse.Namespace) -> int:
    """``repro-rtdose tune run``: autotune one (case, kernel) problem."""
    from repro.bench.harness import convert_for_kernel
    from repro.kernels.dispatch import make_kernel
    from repro.plans.cases import build_case_matrix
    from repro.tune import TuningCache, autotune, set_tune_cache

    if args.cache:
        set_tune_cache(TuningCache(args.cache))
    kernel = make_kernel(args.kernel)
    matrix = convert_for_kernel(
        build_case_matrix(args.case, args.preset).matrix, args.kernel
    )
    result = autotune(
        matrix,
        kernel,
        device=args.device,
        n_devices=args.dist_devices,
        seed=args.seed,
    )
    entry = result.entry
    summary = Table(["metric", "value"],
                    title=f"Autotune — {args.case} / {args.kernel}")
    summary.add_row(["cache", "HIT" if result.cache_hit else "miss (swept)"])
    summary.add_row(["key", entry.key.key_string()])
    summary.add_row(["threads/block", entry.config.threads_per_block])
    summary.add_row(["shards", entry.config.n_shards])
    summary.add_row(["shard policy", entry.config.shard_policy])
    summary.add_row(["placement", entry.config.placement])
    summary.add_row(["dispatch", entry.config.dispatch])
    summary.add_row(["modeled wall (us)", entry.modeled_wall_s * 1e6])
    summary.add_row(["single device (us)", entry.single_device_time_s * 1e6])
    summary.add_row(["speedup", entry.speedup])
    summary.add_row(["candidates tried", entry.candidates_tried])
    summary.add_row(["bitwise validated",
                     "yes" if entry.bitwise_validated else "NO"])
    print(summary.render())
    if result.outcomes and args.verbose:
        detail = Table(
            ["tpb", "shards", "policy", "dispatch", "wall_us", "bitwise"],
            title="Candidates",
        )
        for o in sorted(result.outcomes, key=lambda o: o.modeled_wall_s):
            detail.add_row([
                o.config.threads_per_block, o.config.n_shards,
                o.config.shard_policy, o.config.dispatch,
                o.modeled_wall_s * 1e6,
                "yes" if o.bitwise_identical else "NO",
            ])
        print()
        print(detail.render())
    return 0 if entry.bitwise_validated else 1


def _cmd_tune_show(args: argparse.Namespace) -> int:
    """``repro-rtdose tune show``: list the tuning cache's entries."""
    from repro.tune import TUNE_CACHE_ENV, TuningCache, get_tune_cache

    if args.cache:
        cache = TuningCache(args.cache)
    else:
        cache = get_tune_cache()
        if cache.path is None and os.environ.get(TUNE_CACHE_ENV) is None:
            print("no cache path: pass --cache PATH or set "
                  f"{TUNE_CACHE_ENV} (showing in-memory cache)")
    entries = cache.entries()
    if not entries:
        print("tuning cache is empty")
        return 0
    table = Table(
        ["key", "tpb", "shards", "policy", "dispatch", "wall_us",
         "speedup", "tried"],
        title=f"Tuning cache ({cache.path or 'memory'})",
    )
    for entry in entries:
        table.add_row([
            entry.key.key_string(),
            entry.config.threads_per_block,
            entry.config.n_shards,
            entry.config.shard_policy,
            entry.config.dispatch,
            entry.modeled_wall_s * 1e6,
            entry.speedup,
            entry.candidates_tried,
        ])
    print(table.render())
    return 0


def _cmd_workloads_list(_: argparse.Namespace) -> int:
    """``repro-rtdose workloads list``: the registered workload families."""
    from repro.workloads import get_workload, workload_names

    table = Table(
        ["workload", "dtype", "B/nnz", "B/row", "ensemble", "description"],
        title="Workload registry",
    )
    for name in workload_names():
        spec = get_workload(name)
        table.add_row([
            spec.name,
            spec.value_dtype,
            spec.cost_model.nnz_cost,
            spec.cost_model.row_cost,
            "yes" if spec.ensemble else "",
            spec.description,
        ])
    print(table.render())
    return 0


def _record_workload_generate(name: str, preset: str, scenarios) -> None:
    """Record one ``workload_generate`` artifact entry per scenario."""
    from repro.workloads import structure_stats

    if not artifact_mod.enabled():
        return
    for index, (scenario_name, matrix) in enumerate(scenarios):
        stats = structure_stats(matrix)
        artifact_mod.record(
            "workload_generate",
            workload=name, scenario=index, scenario_name=scenario_name,
            preset=preset, **stats,
        )


def _cmd_workloads_run(args: argparse.Namespace) -> int:
    """``repro-rtdose workloads run``: generate one family + bitwise audit."""
    from repro.workloads import (
        audit_workload,
        generate,
        get_workload,
        scenario_matrices,
        structure_stats,
    )

    spec = get_workload(args.workload)
    product = generate(args.workload, seed=args.seed, preset=args.preset)
    scenarios = scenario_matrices(product)
    _record_workload_generate(args.workload, args.preset, scenarios)

    structure = Table(
        ["scenario", "rows", "cols", "nnz", "density", "empty rows",
         "mean row", "p95 row", "bandwidth"],
        title=f"Workload {spec.name!r} ({args.preset}, seed {args.seed})",
    )
    for scenario_name, matrix in scenarios:
        stats = structure_stats(matrix)
        structure.add_row([
            scenario_name, stats["n_rows"], stats["n_cols"], stats["nnz"],
            f"{100 * stats['density']:.2f}%",
            f"{100 * stats['empty_row_fraction']:.1f}%",
            f"{stats['mean_row_length']:.1f}", stats["p95_row_length"],
            stats["bandwidth"],
        ])
    print(structure.render())
    fingerprint = structure_stats(scenarios[0][1])["fingerprint"]
    print(f"structure fingerprint (nominal): {fingerprint}")
    print()

    report = audit_workload(
        args.workload,
        seed=args.seed,
        preset=args.preset,
        precision=args.precision,
        shard_counts=tuple(args.shards),
        device_name=args.device,
        product=product,
    )
    audit = Table(
        ["execution path", "bitwise identical"],
        title=f"Ensemble bitwise audit — stack sha256 "
              f"{report.stack_sha256[:16]}…",
    )
    for n_shards, bitwise in sorted(report.shards_bitwise.items()):
        audit.add_row([f"sharded x{n_shards}", "yes" if bitwise else "NO"])
    for pass_name, bitwise in report.serve_bitwise.items():
        audit.add_row([f"serve {pass_name}", "yes" if bitwise else "NO"])
    print(audit.render())
    if not report.all_bitwise:
        print("WORKLOAD DOSE STACK NOT BITWISE IDENTICAL", file=sys.stderr)
        return 1
    return 0


def _cmd_workloads_bench(args: argparse.Namespace) -> int:
    """``repro-rtdose workloads bench``: structure + scaling per family."""
    from repro.bench.harness import convert_for_kernel
    from repro.bench.recording import (
        workloads_bench_from_artifact,
        workloads_bench_record,
        write_workloads_bench,
    )
    from repro.dist import strong_scaling_sweep
    from repro.kernels.dispatch import make_kernel
    from repro.tune import TuningCache, autotune, set_tune_cache
    from repro.workloads import (
        audit_workload,
        generate,
        scenario_matrices,
        structure_stats,
        workload_names,
    )

    if args.cache:
        set_tune_cache(TuningCache(args.cache))
    names = args.workload or list(workload_names())
    kernel = make_kernel(args.kernel)
    shard_counts = tuple(args.shards)
    workload_entries = []
    for name in names:
        product = generate(name, seed=args.seed, preset=args.preset)
        scenarios = scenario_matrices(product)
        _record_workload_generate(name, args.preset, scenarios)
        nominal = scenarios[0][1]
        stats = structure_stats(nominal)
        converted = convert_for_kernel(nominal, args.kernel)
        tuned = autotune(
            converted, kernel,
            device=args.device, n_devices=max(shard_counts),
            seed=args.seed,
        )
        sweep = strong_scaling_sweep(
            case=f"workload:{name}",
            kernel_name=args.kernel,
            shard_counts=shard_counts,
            device_name=args.device,
            seed=args.seed,
            matrix=converted,
        )
        audit = audit_workload(
            name,
            seed=args.seed,
            preset=args.preset,
            precision=args.kernel,
            shard_counts=shard_counts,
            device_name=args.device,
            product=product,
        )
        all_bitwise = sweep.all_bitwise_identical and audit.all_bitwise
        workload_entries.append({
            "workload": name,
            "preset": args.preset,
            "n_scenarios": len(scenarios),
            "structure": stats,
            "tuned": {
                "cache_hit": tuned.cache_hit,
                "key": tuned.entry.key.key_string(),
                "threads_per_block": tuned.entry.config.threads_per_block,
                "n_shards": tuned.entry.config.n_shards,
                "shard_policy": tuned.entry.config.shard_policy,
                "dispatch": tuned.entry.config.dispatch,
            },
            "scaling": sweep.record(),
            "audit": {
                "stack_sha256": audit.stack_sha256,
                "shards_bitwise": {
                    str(k): v for k, v in audit.shards_bitwise.items()
                },
                "serve_bitwise": dict(audit.serve_bitwise),
            },
            "all_bitwise_identical": all_bitwise,
        })
        print(sweep.render())
        print(
            f"workload {name}: fingerprint {stats['fingerprint'][:16]}… "
            f"tuned tpb={tuned.entry.config.threads_per_block} "
            f"shards={tuned.entry.config.n_shards} "
            f"bitwise={'yes' if all_bitwise else 'NO'}"
        )
        print()
    record = workloads_bench_record(
        seed=args.seed,
        preset=args.preset,
        kernel=args.kernel,
        device=args.device,
        shard_counts=list(shard_counts),
        workloads=workload_entries,
    )
    if artifact_mod.enabled():
        artifact_mod.record("workloads_bench", record=record)
    print(
        f"workloads: {len(workload_entries)}, distinct tuning "
        f"fingerprints: {record['distinct_fingerprints']}, all bitwise: "
        f"{'yes' if record['all_bitwise_identical'] else 'NO'}"
    )
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        sink = artifact_mod.get_sink()
        if sink.enabled:
            # BENCH_workloads.json is a view of the artifact's
            # workloads_bench phase.
            write_workloads_bench(
                workloads_bench_from_artifact(sink.artifact()), args.json
            )
        else:
            write_workloads_bench(record, args.json)
        print(f"bench record written to {args.json}")
    return 0 if record["all_bitwise_identical"] else 1


def _cmd_dist_partition_report(args: argparse.Namespace) -> int:
    """``repro-rtdose dist partition-report``: equal-rows vs equal-nnz."""
    from repro.dist.bench import partition_report

    table = partition_report(
        cases=args.case or None,
        preset=args.preset,
        shard_counts=args.shards,
    )
    print(table.render())
    return 0


def _opt_run_params(args: argparse.Namespace, specs) -> dict:
    """Everything ``opt resume`` needs to reconstruct the optimization."""
    from repro.opt.dist import specs_to_dicts

    return {
        "opt_id": args.opt_id,
        "case": args.case,
        "preset": args.preset,
        "precision": args.precision,
        "objective_preset": args.objective,
        "objective": specs_to_dicts(specs),
        "seed": args.seed,
        "shards": args.shards,
        "dist_devices": args.dist_devices,
        "dist_placement": args.dist_placement,
        "tolerance": args.tolerance,
        "max_iterations": args.max_iterations,
        "initial_step": args.initial_step,
        "checkpoint_every": args.checkpoint_every,
    }


def _render_opt_outcome(outcome, title: str) -> None:
    table = Table(["quantity", "value"], title=title)
    table.add_row(["terminal state", outcome.terminal.value])
    table.add_row(["iterations", outcome.state.iteration])
    table.add_row(["objective", f"{outcome.state.value:.8e}"])
    table.add_row(["projected-gradient norm",
                   f"{outcome.state.pg_norm:.6e}"])
    table.add_row(["objective/gradient evaluations", outcome.state.n_evals])
    if outcome.detail:
        table.add_row(["detail", outcome.detail])
    print(table.render())


def _render_opt_audit(audit) -> None:
    table = Table(["leg", "points", "status"],
                  title="Trajectory audit (bitwise vs reference)")
    for label, n_points, status in audit.legs:
        table.add_row([label, n_points, status])
    print(table.render())
    for problem in audit.problems:
        print(f"  {problem}", file=sys.stderr)


def _cmd_opt_run(args: argparse.Namespace) -> int:
    """``repro-rtdose opt run``: one sharded optimization + trajectory
    audit (shard counts, batching orders, kill/resume)."""
    from repro.bench.harness import convert_for_kernel
    from repro.opt.dist import (
        OBJECTIVE_PRESETS,
        TerminalState,
        audit_optimization,
        run_sharded,
        warm_start,
    )
    from repro.plans.cases import build_case_matrix

    master = build_case_matrix(args.case, args.preset).matrix
    matrix = convert_for_kernel(master, args.precision)
    specs = OBJECTIVE_PRESETS[args.objective]
    w0 = warm_start(args.seed, matrix.n_cols, args.opt_id)
    if artifact_mod.enabled():
        artifact_mod.set_param("optimization", _opt_run_params(args, specs))
    outcome = run_sharded(
        matrix, args.precision, specs, w0, args.shards,
        tolerance=args.tolerance, max_iterations=args.max_iterations,
        initial_step=args.initial_step,
        devices=args.dist_devices or 0, placement=args.dist_placement,
        halt_after=args.halt_after, opt_id=args.opt_id,
        checkpoint_every=args.checkpoint_every, seed=args.seed,
    )
    if artifact_mod.enabled():
        artifact_mod.record(
            "opt_run", opt_id=args.opt_id, tenant="cli",
            plan_id=args.case, precision=args.precision,
            terminal=outcome.terminal.value,
            iterations=outcome.state.iteration,
            n_evals=outcome.state.n_evals,
            objective=outcome.state.value,
            objective_hex=float(outcome.state.value).hex(),
            shards=args.shards, detail=outcome.detail,
        )
    _render_opt_outcome(
        outcome,
        f"Optimization — {args.case} / {args.precision} / "
        f"{args.objective} (shards={args.shards})",
    )
    if outcome.terminal is TerminalState.FAILED:
        print(f"OPTIMIZATION FAILED: {outcome.detail}", file=sys.stderr)
        return 1
    if outcome.terminal is TerminalState.PREEMPTED:
        print(
            f"\nhalted after iteration {args.halt_after}; checkpoint "
            "recorded — resume with: repro-rtdose opt resume <run-dir>"
        )
        return 0
    if args.no_audit:
        return 0
    print()
    audit = audit_optimization(
        matrix, args.precision, specs, seed=args.seed, w0=w0,
        tolerance=args.tolerance, max_iterations=args.max_iterations,
        initial_step=args.initial_step, shard_counts=args.audit_shards,
        devices=args.dist_devices or 0, placement=args.dist_placement,
        include_service=not args.no_service_audit,
    )
    _render_opt_audit(audit)
    if not audit.ok:
        print("TRAJECTORY NOT BITWISE IDENTICAL ACROSS LEGS",
              file=sys.stderr)
        return 1
    return 0


def _cmd_opt_resume(args: argparse.Namespace) -> int:
    """``repro-rtdose opt resume``: continue a killed optimization from
    its recorded checkpoint and prove the stitched trajectory matches an
    uninterrupted run bit for bit."""
    from repro.bench.harness import convert_for_kernel
    from repro.dist import DevicePool
    from repro.kernels.dispatch import make_kernel
    from repro.opt.dist import (
        CheckpointError,
        DistributedObjectiveEvaluator,
        build_objective,
        compare_trajectories,
        points_from_artifact_entries,
        restore_state,
        run_reference,
        run_to_completion,
        specs_from_dicts,
        warm_start,
    )
    from repro.plans.cases import build_case_matrix

    data = artifact_mod.read_artifact(_artifact_file(args.path))
    params = data.get("params", {}).get("optimization")
    if not params:
        print("opt resume: artifact has no 'optimization' params "
              "(was it written by 'opt run'?)", file=sys.stderr)
        return 2
    opt_id = params["opt_id"]
    checkpoints = [
        c for c in data.get("phases", {}).get("opt_checkpoint", [])
        if c.get("opt_id") == opt_id
    ]
    if not checkpoints:
        print(f"opt resume: no opt_checkpoint entries for {opt_id!r}",
              file=sys.stderr)
        return 2
    checkpoint = max(checkpoints, key=lambda c: int(c["iteration"]))
    try:
        state = restore_state(checkpoint["state"])
    except CheckpointError as exc:
        print(f"opt resume: {exc}", file=sys.stderr)
        return 2
    print(
        f"resuming {opt_id!r} from iteration {state.iteration} "
        f"(checkpoint reason: {checkpoint.get('reason')})"
    )

    master = build_case_matrix(params["case"], params["preset"]).matrix
    matrix = convert_for_kernel(master, params["precision"])
    specs = specs_from_dicts(params["objective"])
    shards = int(params["shards"])
    kernel = make_kernel(params["precision"])
    evaluator = DistributedObjectiveEvaluator(
        matrix, kernel, shards,
        pool=DevicePool.homogeneous(
            params.get("dist_devices") or min(shards, 4)
        ),
        placement=params.get("dist_placement", "memory"),
    )
    if artifact_mod.enabled():
        artifact_mod.set_param("optimization", dict(params))
    outcome = run_to_completion(
        evaluator, build_objective(specs, matrix), state,
        opt_id=opt_id, tolerance=float(params["tolerance"]),
        max_iterations=int(params["max_iterations"]),
        initial_step=float(params["initial_step"]),
        checkpoint_every=int(params.get("checkpoint_every") or 0),
        seed=params.get("seed"),
    )
    _render_opt_outcome(outcome, f"Resumed optimization — {opt_id}")
    if args.no_audit:
        return 0

    # The resume proof: recorded prefix + resumed suffix must equal an
    # uninterrupted reference run bit for bit.
    prefix = [
        p for p in points_from_artifact_entries(
            data.get("phases", {}).get("opt_iteration", []), opt_id
        )
        if p.iteration <= state.iteration
    ]
    stitched = prefix + list(outcome.points)
    w0 = warm_start(int(params["seed"]), matrix.n_cols, opt_id)
    reference = run_reference(
        matrix, params["precision"], specs, w0,
        tolerance=float(params["tolerance"]),
        max_iterations=int(params["max_iterations"]),
        initial_step=float(params["initial_step"]),
        opt_id=f"{opt_id}-reference",
    )
    problems = compare_trajectories(
        reference.points, stitched, "kill/resume"
    )
    print(
        f"\nresume audit: {len(prefix)} recorded + {len(outcome.points)} "
        f"resumed points vs {len(reference.points)} uninterrupted — "
        + ("bitwise identical" if not problems else "DIVERGED")
    )
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)
    if problems:
        print("RESUMED TRAJECTORY NOT BITWISE IDENTICAL", file=sys.stderr)
        return 1
    return 0


def _cmd_opt_sweep(args: argparse.Namespace) -> int:
    """``repro-rtdose opt sweep``: the full multi-leg trajectory audit
    (shard counts, batching orders, kill/resume) as a command."""
    from repro.bench.harness import convert_for_kernel
    from repro.opt.dist import OBJECTIVE_PRESETS, audit_optimization
    from repro.plans.cases import build_case_matrix

    witness = None
    if getattr(args, "lock_witness", False):
        from repro.obs.lockwitness import install_witness, uninstall_witness

        witness = install_witness()
    try:
        master = build_case_matrix(args.case, args.preset).matrix
        matrix = convert_for_kernel(master, args.precision)
        audit = audit_optimization(
            matrix, args.precision, OBJECTIVE_PRESETS[args.objective],
            seed=args.seed, tolerance=args.tolerance,
            max_iterations=args.max_iterations,
            initial_step=args.initial_step, shard_counts=args.shards,
            include_service=not args.no_service,
        )
    finally:
        if witness is not None:
            uninstall_witness()
    _render_opt_audit(audit)
    if artifact_mod.enabled():
        artifact_mod.record(
            "opt_sweep", case=args.case, preset=args.preset,
            precision=args.precision, objective=args.objective,
            seed=args.seed, shard_counts=list(args.shards),
            reference_iterations=audit.reference_iterations,
            ok=audit.ok,
            legs=[
                {"leg": label, "points": n, "status": status}
                for label, n, status in audit.legs
            ],
            problems=list(audit.problems),
        )
    witness_rc = _witness_report(witness) if witness is not None else 0
    if witness_rc:
        print("LOCK-ORDER VIOLATIONS WITNESSED", file=sys.stderr)
    if not audit.ok:
        print("TRAJECTORY NOT BITWISE IDENTICAL ACROSS LEGS",
              file=sys.stderr)
        return 1
    return witness_rc


def _cmd_opt_loadtest(args: argparse.Namespace) -> int:
    """``repro-rtdose opt loadtest``: concurrent optimizations through
    the service, audited bitwise against standalone re-runs."""
    from repro.opt.dist import OptLoadConfig, run_opt_loadtest

    witness = None
    if getattr(args, "lock_witness", False):
        from repro.obs.lockwitness import install_witness, uninstall_witness

        witness = install_witness()
    try:
        report = run_opt_loadtest(OptLoadConfig(
            n_optimizations=args.optimizations,
            n_tenants=args.tenants,
            n_plans=args.plans,
            precision=args.precision,
            objective_preset=args.objective,
            max_iterations=args.max_iterations,
            tolerance=args.tolerance,
            n_workers=args.workers,
            serve_workers=args.serve_workers,
            shards=args.shards,
            quantum=args.quantum,
            checkpoint_every=args.checkpoint_every,
            tenant_budget=args.tenant_budget,
            seed=args.seed,
            audit=not args.no_audit,
        ))
    finally:
        if witness is not None:
            uninstall_witness()
    print(report.render())
    witness_rc = _witness_report(witness) if witness is not None else 0
    if witness_rc:
        print("LOCK-ORDER VIOLATIONS WITNESSED", file=sys.stderr)
    failed = report.terminal_counts.get("failed", 0)
    if failed:
        print(f"{failed} OPTIMIZATION(S) FAILED", file=sys.stderr)
        return 1
    if report.bitwise_checked and report.bitwise_ok < report.bitwise_checked:
        print("TRAJECTORIES NOT BITWISE IDENTICAL TO STANDALONE RE-RUNS",
              file=sys.stderr)
        return 1
    return witness_rc


def _artifact_file(path: str) -> Path:
    """Resolve a run directory or artifact file to the artifact path."""
    p = Path(path)
    return p / "artifact.json" if p.is_dir() else p


def _cmd_artifact_show(args: argparse.Namespace) -> int:
    """``repro-rtdose artifact show``: summarize one run record."""
    data = artifact_mod.read_artifact(_artifact_file(args.path))
    run = data.get("run", {})
    table = Table(["field", "value"], title="Artifact record")
    table.add_row(["schema", data.get("schema")])
    table.add_row(["run id", run.get("run_id")])
    table.add_row(["status", run.get("status")])
    table.add_row(["exit code", run.get("exit_code")])
    table.add_row(["created", run.get("created_iso")])
    table.add_row(["command", " ".join(run.get("command", []))])
    env = data.get("environment", {})
    table.add_row(["package", env.get("package_version")])
    table.add_row(["python", env.get("python_version")])
    table.add_row(["events file", data.get("events") or "(none)"])
    for name in sorted(data.get("params", {})):
        table.add_row(["param", name])
    for phase, entries in sorted(data.get("phases", {}).items()):
        table.add_row([f"phase[{phase}]", f"{len(entries)} entries"])
    table.add_row(["metrics recorded", len(data.get("metrics", {}))])
    print(table.render())
    return 0


def _cmd_artifact_validate(args: argparse.Namespace) -> int:
    """``repro-rtdose artifact validate``: check the v1 invariants."""
    path = _artifact_file(args.path)
    try:
        data = artifact_mod.read_artifact(path)
    except (OSError, ValueError) as exc:
        print(f"artifact validate: {exc}", file=sys.stderr)
        return 1
    problems = artifact_mod.validate_artifact(data)
    for problem in problems:
        print(f"  {problem}")
    errors = sum(1 for p in problems if p.severity == "error")
    warnings = len(problems) - errors
    failed = errors > 0 or (args.strict and warnings > 0)
    print(
        f"{path}: {errors} error(s), {warnings} warning(s) — "
        + ("INVALID" if failed else "valid")
    )
    return 1 if failed else 0


def _cmd_artifact_replay(args: argparse.Namespace) -> int:
    """``repro-rtdose artifact replay``: re-execute recorded requests and
    assert bitwise equality against the recorded dose hashes."""
    from repro.serve.replay import replay_requests
    from repro.util.errors import ReproError

    data = artifact_mod.read_artifact(_artifact_file(args.path))
    try:
        outcomes = replay_requests(
            data, request_ids=args.request or None, limit=args.limit
        )
    except ReproError as exc:
        print(f"artifact replay: {exc}", file=sys.stderr)
        return 2
    if not outcomes:
        print("artifact replay: no replayable requests recorded",
              file=sys.stderr)
        return 2
    table = Table(
        ["request", "plan", "precision", "recorded", "replayed", "bitwise"],
        title="Replay audit",
    )
    mismatches = 0
    for o in outcomes:
        if not o.match:
            mismatches += 1
        table.add_row(
            [
                o.request_id, o.plan_id, o.precision,
                o.recorded_sha256[:12], o.replayed_sha256[:12],
                "yes" if o.match else "NO",
            ]
        )
    print(table.render())
    print(
        f"\n{len(outcomes) - mismatches}/{len(outcomes)} replayed requests "
        "bitwise identical to the recorded doses"
    )
    if mismatches:
        print("REPLAY MISMATCH: served doses are not reproducible",
              file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro-rtdose trace <subcmd> ...``: run under tracing + report."""
    rest = [a for a in args.rest if a != "--"]
    if not rest or rest[0] == "trace":
        print("usage: repro-rtdose trace [--out PATH] <subcommand> ...",
              file=sys.stderr)
        return 2
    sub_args = build_parser().parse_args(rest)
    previous = get_tracer()
    tracer = enable_tracing()
    try:
        rc = sub_args.func(sub_args)
    finally:
        set_tracer(previous)
    print(span_summary_table(tracer).render())
    print()
    print(get_registry().render_table())
    if args.out:
        path = write_chrome_trace(tracer, args.out)
        print(f"\nChrome trace written to {path} "
              "(load in https://ui.perfetto.dev)")
    return rc


def _finite_positive(text: str) -> float:
    """argparse type: a finite number greater than zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isfinite(value) and value > 0:
        return value
    raise argparse.ArgumentTypeError(
        f"must be a finite positive number, got {text!r}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-rtdose",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    # Observability flags shared by every subcommand.
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record spans and write Chrome-trace JSON (Perfetto-loadable)",
    )
    obs_flags.add_argument(
        "--trace-jsonl", metavar="PATH", default=None,
        help="also write spans as newline-delimited JSON (implies tracing)",
    )
    obs_flags.add_argument(
        "--metrics", action="store_true",
        help="print the metrics registry summary after the command",
    )
    obs_flags.add_argument(
        "--no-artifact", action="store_true",
        help="do not write the per-run artifact record "
             "(artifact.json + events.ndjson)",
    )
    obs_flags.add_argument(
        "--artifact-dir", metavar="DIR", default=None,
        help="base directory for per-run artifact records "
             "(default: $REPRO_ARTIFACT_DIR or ./runs)",
    )
    obs_flags.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="-v: INFO logging, -vv: DEBUG",
    )
    obs_flags.add_argument(
        "-q", "--quiet", action="store_true", help="errors only",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser(
        "info", parents=[obs_flags],
        help="device catalogue and case inventory",
    )
    p_info.set_defaults(func=_cmd_info)

    for name in list(ALL_EXPERIMENTS) + ["all"]:
        p = sub.add_parser(name, parents=[obs_flags], help=f"regenerate {name}")
        p.add_argument("--csv",
                       help="directory for raw-row CSVs + run manifest")
        p.add_argument("--chart", action="store_true",
                       help="render ASCII bar charts of the series")
        p.add_argument("--preset", default=None,
                       choices=["tiny", "bench", "structure"],
                       help="override the experiment's matrix-scale preset")
        p.set_defaults(func=_cmd_experiment, experiment=name)

    p_spmv = sub.add_parser(
        "spmv", parents=[obs_flags], help="run a single kernel x case point"
    )
    p_spmv.add_argument("--kernel", default="half_double", choices=kernel_names())
    p_spmv.add_argument("--case", default="Liver 1", choices=case_names())
    p_spmv.add_argument("--device", default="a100")
    p_spmv.add_argument("--preset", default="bench",
                        choices=["tiny", "bench", "structure"])
    p_spmv.add_argument("--threads-per-block", type=int, default=None)
    p_spmv.add_argument(
        "--bench-scale", action="store_true",
        help="report at bench scale instead of extrapolating to paper scale",
    )
    p_spmv.set_defaults(func=_cmd_spmv)

    p_fig1 = sub.add_parser(
        "fig1", parents=[obs_flags],
        help="beam's-eye-view spot-scanning illustration (Figure 1)",
    )
    p_fig1.add_argument("--case", default="Liver 1", choices=case_names())
    p_fig1.add_argument("--preset", default="tiny",
                        choices=["tiny", "bench", "structure"])
    p_fig1.add_argument("--layer", type=int, default=0)
    p_fig1.set_defaults(func=_cmd_fig1)

    p_prof = sub.add_parser(
        "profile", parents=[obs_flags],
        help="Nsight-Compute-style report for one kernel run",
    )
    p_prof.add_argument("--kernel", default="half_double", choices=kernel_names())
    p_prof.add_argument("--case", default="Liver 1", choices=case_names())
    p_prof.add_argument("--device", default="a100")
    p_prof.add_argument("--preset", default="bench",
                        choices=["tiny", "bench", "structure"])
    p_prof.add_argument("--threads-per-block", type=int, default=None)
    p_prof.set_defaults(func=_cmd_profile)

    p_analyze = sub.add_parser(
        "analyze", parents=[obs_flags],
        help="run the static contract checkers (reproducibility, "
             "precision, traffic model)",
    )
    p_analyze.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings as well as errors",
    )
    p_analyze.add_argument(
        "--format", default="table", choices=["table", "json"],
        help="output format (json emits the repro.analyze-report/v1 schema)",
    )
    p_analyze.add_argument(
        "--suppress", action="append", default=[], metavar="RULE",
        help="drop findings of this rule id (repeatable); unknown ids "
             "are rejected",
    )
    p_analyze.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    p_analyze.add_argument(
        "--include", action="append", default=[], metavar="PATH",
        help="also lint this file or directory with the concurrency "
             "checker (repeatable; fixtures, out-of-tree modules)",
    )
    p_analyze.set_defaults(func=_cmd_analyze)

    p_serve = sub.add_parser(
        "serve",
        help="dose-evaluation service: demo run and closed-loop loadtest",
    )
    serve_sub = p_serve.add_subparsers(dest="serve_command", required=True)
    serve_flags = argparse.ArgumentParser(add_help=False)
    serve_flags.add_argument("--requests", type=int, default=200,
                             help="total evaluation requests")
    serve_flags.add_argument("--clients", type=int, default=4,
                             help="concurrent closed-loop clients")
    serve_flags.add_argument("--burst", type=int, default=4,
                             help="same-plan requests per client burst")
    serve_flags.add_argument("--workers", type=int, default=2,
                             help="evaluation worker threads")
    serve_flags.add_argument("--plans", type=int, default=3,
                             help="number of synthetic plans")
    serve_flags.add_argument("--batch-size", type=int, default=8,
                             help="micro-batch size cap")
    serve_flags.add_argument("--batch-window-ms", type=float, default=2.0,
                             help="coalescing window in milliseconds")
    serve_flags.add_argument("--precision", default="half_double",
                             choices=kernel_names(),
                             help="kernel/precision to serve with")
    serve_flags.add_argument("--deadline-ms", type=float, default=None,
                             help="per-request queueing deadline")
    serve_flags.add_argument("--seed", type=int, default=20210419,
                             help="workload seed (plans + weights)")
    serve_flags.add_argument("--case", action="append", default=[],
                             choices=case_names(), metavar="CASE",
                             help="serve Table I cases instead of synthetic "
                                  "plans (repeatable)")
    serve_flags.add_argument("--preset", default="tiny",
                             choices=["tiny", "bench", "structure", "probe"],
                             help="matrix-scale preset for --case or "
                                  "--workload plans")
    serve_flags.add_argument("--shards", type=int, default=1,
                             help="row shards per evaluation (>1 serves "
                                  "through the repro.dist sharded backend)")
    serve_flags.add_argument("--dist-devices", type=int, default=None,
                             help="simulated devices in the sharded pool "
                                  "(default: min(shards, 4))")
    serve_flags.add_argument("--dist-placement", default="memory",
                             choices=["memory", "round_robin"],
                             help="shard placement policy")

    p_serve_run = serve_sub.add_parser(
        "run", parents=[obs_flags, serve_flags],
        help="start a service and serve a sequential demo stream",
    )
    p_serve_run.set_defaults(func=_cmd_serve_run)

    p_serve_lt = serve_sub.add_parser(
        "loadtest", parents=[obs_flags, serve_flags],
        help="closed-loop load test: latency percentiles, amortization, "
             "bitwise audit",
    )
    p_serve_lt.add_argument("--workload", default="synthetic",
                            choices=["synthetic"] + list(workload_names()),
                            help="drive registered workload plans instead "
                                 "of synthetic ones (ensemble families "
                                 "submit scenario-ensemble requests)")
    p_serve_lt.add_argument("--csv", default=None,
                            help="write per-request records to this CSV path")
    p_serve_lt.add_argument("--lock-witness", action="store_true",
                            help="run under the runtime lock-order witness; "
                                 "report violations and exit non-zero on any")
    p_serve_lt.set_defaults(func=_cmd_serve_loadtest)

    p_dist = sub.add_parser(
        "dist",
        help="sharded multi-device evaluation: run, strong-scaling sweep, "
             "partition report",
    )
    dist_sub = p_dist.add_subparsers(dest="dist_command", required=True)
    dist_flags = argparse.ArgumentParser(add_help=False)
    dist_flags.add_argument("--case", default="Liver 1", choices=case_names())
    dist_flags.add_argument("--preset", default="tiny",
                            choices=["tiny", "bench", "structure"])
    dist_flags.add_argument("--kernel", default="half_double",
                            choices=kernel_names())
    dist_flags.add_argument("--device", default="A100",
                            help="device type of the simulated pool")
    dist_flags.add_argument("--seed", type=int, default=20210419)

    p_dist_run = dist_sub.add_parser(
        "run", parents=[obs_flags, dist_flags],
        help="one sharded evaluation with a bitwise check against the "
             "single-device run",
    )
    p_dist_run.add_argument("--shards", type=int, default=4)
    p_dist_run.add_argument("--dist-devices", type=int, default=None,
                            help="pool size (default: min(shards, 4))")
    p_dist_run.add_argument("--dist-placement", default="memory",
                            choices=["memory", "round_robin"])
    p_dist_run.add_argument("--retry-budget", type=int, default=2,
                            help="total retries allowed per evaluation")
    p_dist_run.add_argument("--fail-shard", type=int, action="append",
                            default=[], metavar="K",
                            help="inject one device failure on shard K "
                                 "(repeatable; exercises the retry path)")
    p_dist_run.set_defaults(func=_cmd_dist_run)

    p_dist_sweep = dist_sub.add_parser(
        "sweep", parents=[obs_flags, dist_flags],
        help="strong-scaling sweep (one device per shard), optional "
             "BENCH_dist.json record",
    )
    p_dist_sweep.add_argument("--shards", type=int, nargs="+",
                              default=[1, 2, 4, 8],
                              help="shard counts to sweep")
    p_dist_sweep.add_argument("--policy", default="balanced",
                              choices=["balanced", "cost", "equal_rows"],
                              help="row partition policy")
    p_dist_sweep.add_argument("--dispatch", default="graph",
                              choices=["graph", "launch"],
                              help="dispatch pricing: one graph replay per "
                                   "device vs one launch per shard")
    p_dist_sweep.add_argument("--tpb", type=int, default=None,
                              metavar="THREADS",
                              help="threads per block for every shard "
                                   "(default: kernel's Fig-4 default)")
    p_dist_sweep.add_argument("--repeats", type=int, default=3,
                              help="steady-state evaluations per point on "
                                   "the one compiled evaluator")
    p_dist_sweep.add_argument("--tuned", action="store_true",
                              help="consult the tuning cache for this "
                                   "problem (tunes once on a cold cache); "
                                   "overrides --policy/--dispatch/--tpb")
    p_dist_sweep.add_argument("--json", default=None, metavar="PATH",
                              help="write the repro.dist-bench/v1 record "
                                   "here")
    p_dist_sweep.add_argument("--lock-witness", action="store_true",
                              help="run under the runtime lock-order "
                                   "witness; report violations and exit "
                                   "non-zero on any")
    p_dist_sweep.set_defaults(func=_cmd_dist_sweep)

    p_dist_pr = dist_sub.add_parser(
        "partition-report", parents=[obs_flags],
        help="equal-rows vs equal-nnz imbalance per test matrix",
    )
    p_dist_pr.add_argument("--case", action="append", default=[],
                           choices=case_names(), metavar="CASE",
                           help="restrict to these cases (repeatable; "
                                "default: all six)")
    p_dist_pr.add_argument("--preset", default="tiny",
                           choices=["tiny", "bench", "structure"])
    p_dist_pr.add_argument("--shards", type=int, nargs="+", default=[2, 4, 8],
                           help="shard counts to tabulate")
    p_dist_pr.set_defaults(func=_cmd_dist_partition_report)

    p_tune = sub.add_parser(
        "tune",
        help="Fig-4-style execution autotuner: sweep block size × shard "
             "count × policy, cache the bitwise-validated winner",
    )
    tune_sub = p_tune.add_subparsers(dest="tune_command", required=True)
    tune_flags = argparse.ArgumentParser(add_help=False)
    tune_flags.add_argument("--cache", default=None, metavar="PATH",
                            help="tuning-cache JSON path (default: "
                                 "$REPRO_TUNE_CACHE, else in-memory)")

    p_tune_run = tune_sub.add_parser(
        "run", parents=[obs_flags, tune_flags],
        help="tune one (case, kernel) problem; warm cache entries are "
             "returned without sweeping",
    )
    p_tune_run.add_argument("--case", default="Liver 1",
                            choices=case_names())
    p_tune_run.add_argument("--preset", default="tiny",
                            choices=["tiny", "bench", "structure"])
    p_tune_run.add_argument("--kernel", default="half_double",
                            choices=kernel_names())
    p_tune_run.add_argument("--device", default="A100",
                            help="device type of the simulated pool")
    p_tune_run.add_argument("--dist-devices", type=int, default=4,
                            help="device-pool width to tune for")
    p_tune_run.add_argument("--seed", type=int, default=20210419,
                            help="probe-vector seed for the bitwise audit")
    p_tune_run.add_argument("--verbose-candidates", dest="verbose",
                            action="store_true",
                            help="also print every candidate's outcome")
    p_tune_run.set_defaults(func=_cmd_tune_run)

    p_tune_show = tune_sub.add_parser(
        "show", parents=[obs_flags, tune_flags],
        help="list the tuning cache's entries",
    )
    p_tune_show.set_defaults(func=_cmd_tune_show)

    p_wl = sub.add_parser(
        "workloads",
        help="typed workload families: list the registry, generate + "
             "bitwise-audit one family, or benchmark structure/scaling "
             "across families",
    )
    wl_sub = p_wl.add_subparsers(dest="workloads_command", required=True)
    wl_flags = argparse.ArgumentParser(add_help=False)
    wl_flags.add_argument("--seed", type=int, default=0,
                          help="generator seed (bitwise-stable)")
    wl_flags.add_argument("--preset", default="tiny",
                          choices=list(WORKLOAD_PRESETS))
    wl_flags.add_argument("--device", default="A100",
                          help="device type of the simulated pool")
    wl_flags.add_argument("--shards", type=int, nargs="+",
                          default=[1, 2, 4, 8],
                          help="shard counts the audit/scaling sweeps")

    p_wl_list = wl_sub.add_parser(
        "list", parents=[obs_flags],
        help="show the registered workload families and their cost models",
    )
    p_wl_list.set_defaults(func=_cmd_workloads_list)

    p_wl_run = wl_sub.add_parser(
        "run", parents=[obs_flags, wl_flags],
        help="generate one family and prove its dose stack bitwise "
             "identical across shard counts, serve batching orders, and "
             "direct evaluation",
    )
    p_wl_run.add_argument("--workload", required=True,
                          choices=list(workload_names()))
    p_wl_run.add_argument("--precision", default="half_double",
                          choices=kernel_names())
    p_wl_run.set_defaults(func=_cmd_workloads_run)

    p_wl_bench = wl_sub.add_parser(
        "bench", parents=[obs_flags, wl_flags],
        help="per-workload structure report + strong scaling + "
             "fingerprint-keyed autotune (BENCH_workloads.json)",
    )
    p_wl_bench.add_argument("--workload", action="append", default=[],
                            choices=list(workload_names()), metavar="NAME",
                            help="restrict to these families (repeatable; "
                                 "default: all registered)")
    p_wl_bench.add_argument("--kernel", default="half_double",
                            choices=kernel_names())
    p_wl_bench.add_argument("--cache", default=None, metavar="PATH",
                            help="tuning-cache JSON path (default: "
                                 "$REPRO_TUNE_CACHE, else in-memory)")
    p_wl_bench.add_argument("--json", default=None, metavar="PATH",
                            help="write the repro.workloads-bench/v1 "
                                 "record here")
    p_wl_bench.set_defaults(func=_cmd_workloads_bench)

    p_opt = sub.add_parser(
        "opt",
        help="distributed plan optimization: run, resume, trajectory "
             "sweep, concurrent loadtest",
    )
    opt_sub = p_opt.add_subparsers(dest="opt_command", required=True)
    opt_flags = argparse.ArgumentParser(add_help=False)
    opt_flags.add_argument("--case", default="Liver 1", choices=case_names())
    opt_flags.add_argument("--preset", default="tiny",
                           choices=["tiny", "bench", "structure"])
    opt_flags.add_argument("--precision", default="half_double",
                           choices=kernel_names(),
                           help="kernel/precision for dose + adjoint")
    opt_flags.add_argument("--objective", default="clinical",
                           choices=["uniform", "clinical", "dvh"],
                           help="objective preset")
    opt_flags.add_argument("--seed", type=int, default=20210419,
                           help="warm-start seed")
    opt_flags.add_argument("--tolerance", type=float, default=1e-6,
                           help="relative projected-gradient tolerance")
    opt_flags.add_argument("--max-iterations", type=int, default=30)
    opt_flags.add_argument("--initial-step", type=_finite_positive,
                           default=1.0)

    p_opt_run = opt_sub.add_parser(
        "run", parents=[obs_flags, opt_flags],
        help="one sharded optimization; by default audited bitwise "
             "across shard counts, batching orders, and kill/resume",
    )
    p_opt_run.add_argument("--opt-id", default="opt",
                           help="optimization id (artifact key)")
    p_opt_run.add_argument("--shards", type=int, default=2,
                           help="row shards per dose/adjoint evaluation")
    p_opt_run.add_argument("--dist-devices", type=int, default=None,
                           help="pool size (default: min(shards, 4))")
    p_opt_run.add_argument("--dist-placement", default="memory",
                           choices=["memory", "round_robin"])
    p_opt_run.add_argument("--checkpoint-every", type=int, default=5,
                           help="record a resumable checkpoint every N "
                                "iterations (0: terminals only)")
    p_opt_run.add_argument("--halt-after", type=int, default=None,
                           metavar="N",
                           help="simulate a kill: stop after N iterations "
                                "with a checkpoint (resume with 'opt "
                                "resume <run-dir>')")
    p_opt_run.add_argument("--audit-shards", type=int, nargs="+",
                           default=[1, 2, 4, 8],
                           help="shard counts the post-run audit compares")
    p_opt_run.add_argument("--no-service-audit", action="store_true",
                           help="skip the service (batching/arrival-order) "
                                "audit legs")
    p_opt_run.add_argument("--no-audit", action="store_true",
                           help="skip the post-run trajectory audit")
    p_opt_run.set_defaults(func=_cmd_opt_run)

    p_opt_resume = opt_sub.add_parser(
        "resume", parents=[obs_flags],
        help="continue a killed optimization from its recorded "
             "checkpoint; proves the stitched trajectory bitwise",
    )
    p_opt_resume.add_argument("path",
                              help="artifact.json path or run directory "
                                   "of the killed 'opt run'")
    p_opt_resume.add_argument("--no-audit", action="store_true",
                              help="skip the stitched-trajectory audit")
    p_opt_resume.set_defaults(func=_cmd_opt_resume)

    p_opt_sweep = opt_sub.add_parser(
        "sweep", parents=[obs_flags, opt_flags],
        help="full trajectory-determinism audit: shard counts, service "
             "batching orders, kill/resume",
    )
    p_opt_sweep.add_argument("--shards", type=int, nargs="+",
                             default=[1, 2, 4, 8],
                             help="shard counts to audit")
    p_opt_sweep.add_argument("--no-service", action="store_true",
                             help="skip the service legs")
    p_opt_sweep.add_argument("--lock-witness", action="store_true",
                             help="run under the runtime lock-order "
                                  "witness; report violations and exit "
                                  "non-zero on any")
    p_opt_sweep.set_defaults(func=_cmd_opt_sweep)

    p_opt_lt = opt_sub.add_parser(
        "loadtest", parents=[obs_flags],
        help="many concurrent optimizations through the service, "
             "audited bitwise against standalone re-runs",
    )
    p_opt_lt.add_argument("--optimizations", type=int, default=6)
    p_opt_lt.add_argument("--tenants", type=int, default=2)
    p_opt_lt.add_argument("--plans", type=int, default=2,
                          help="number of synthetic plans")
    p_opt_lt.add_argument("--precision", default="half_double",
                          choices=kernel_names())
    p_opt_lt.add_argument("--objective", default="clinical",
                          choices=["uniform", "clinical", "dvh"])
    p_opt_lt.add_argument("--max-iterations", type=int, default=8)
    p_opt_lt.add_argument("--tolerance", type=float, default=1e-6)
    p_opt_lt.add_argument("--workers", type=int, default=2,
                          help="optimizer worker threads")
    p_opt_lt.add_argument("--serve-workers", type=int, default=2,
                          help="dose-evaluation worker threads")
    p_opt_lt.add_argument("--shards", type=int, default=2)
    p_opt_lt.add_argument("--quantum", type=int, default=1,
                          help="iterations per scheduling quantum")
    p_opt_lt.add_argument("--checkpoint-every", type=int, default=4)
    p_opt_lt.add_argument("--tenant-budget", type=int, default=None,
                          help="per-tenant iteration budget")
    p_opt_lt.add_argument("--seed", type=int, default=20210419)
    p_opt_lt.add_argument("--no-audit", action="store_true",
                          help="skip the standalone bitwise audit")
    p_opt_lt.add_argument("--lock-witness", action="store_true",
                          help="run under the runtime lock-order witness; "
                               "report violations and exit non-zero on any")
    p_opt_lt.set_defaults(func=_cmd_opt_loadtest)

    p_artifact = sub.add_parser(
        "artifact",
        help="inspect, validate, or replay a per-run artifact record",
    )
    artifact_sub = p_artifact.add_subparsers(
        dest="artifact_command", required=True
    )
    p_art_show = artifact_sub.add_parser(
        "show", parents=[obs_flags],
        help="summarize one artifact.json (or run directory)",
    )
    p_art_show.add_argument("path",
                            help="artifact.json path or run directory")
    p_art_show.set_defaults(func=_cmd_artifact_show)

    p_art_val = artifact_sub.add_parser(
        "validate", parents=[obs_flags],
        help="check an artifact against the repro.artifact/v1 invariants",
    )
    p_art_val.add_argument("path",
                           help="artifact.json path or run directory")
    p_art_val.add_argument(
        "--strict", action="store_true",
        help="treat warnings as failures",
    )
    p_art_val.set_defaults(func=_cmd_artifact_validate)

    p_art_rep = artifact_sub.add_parser(
        "replay", parents=[obs_flags],
        help="re-execute recorded requests and assert bitwise equality "
             "against the recorded dose hashes",
    )
    p_art_rep.add_argument("path",
                           help="artifact.json path or run directory")
    p_art_rep.add_argument(
        "--request", action="append", default=[], metavar="ID",
        help="replay only this request id (repeatable; default: all)",
    )
    p_art_rep.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="replay at most N requests",
    )
    p_art_rep.set_defaults(func=_cmd_artifact_replay)

    p_trace = sub.add_parser(
        "trace",
        help="run any subcommand under tracing and print a span report",
    )
    p_trace.add_argument("--out", metavar="PATH", default=None,
                         help="also write Chrome-trace JSON here")
    p_trace.add_argument("rest", nargs=argparse.REMAINDER,
                         help="subcommand (with its flags) to trace")
    p_trace.set_defaults(func=_cmd_trace)
    return parser


def _write_run_artifact(
    sink: "artifact_mod.ArtifactSink",
    args: argparse.Namespace,
    tracer,
    status: str,
    exit_code: Optional[int],
) -> None:
    """Persist the run's artifact (and its events.ndjson companion)."""
    base = (
        getattr(args, "artifact_dir", None)
        or os.environ.get("REPRO_ARTIFACT_DIR")
        or "runs"
    )
    run_dir = Path(base) / sink.run_id
    if tracer is not None:
        sink.set_events_file("events.ndjson")
    sink.finish(status=status, exit_code=exit_code)
    if tracer is not None:
        write_events_ndjson(tracer, run_dir / "events.ndjson")
    path = sink.write(run_dir)
    # stderr keeps machine-readable stdout (--format json, CSV) clean.
    print(f"artifact written to {path}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Every subcommand except the pure inspection verbs (``artifact``
    itself and ``tune show``) records one
    ``repro.artifact/v1`` run record (opt out with ``--no-artifact``):
    a process-wide :class:`~repro.obs.artifact.ArtifactSink` is
    installed before the command runs and the enriched record is
    written afterwards — on success *and* on failure — together with
    the ``events.ndjson`` span stream.
    """
    args = build_parser().parse_args(argv)
    verbosity = -1 if getattr(args, "quiet", False) else getattr(args, "verbose", 0)
    setup_logging(verbosity)
    trace_path = getattr(args, "trace", None)
    jsonl_path = getattr(args, "trace_jsonl", None)
    want_trace = bool(trace_path or jsonl_path)

    sink = None
    previous_sink = None
    # Pure inspection verbs record nothing: the artifact verbs read
    # other runs' records, `tune show` only lists a cache, and
    # `workloads list` only prints the registry.
    inspection_only = (
        args.command == "artifact"
        or (
            args.command == "tune"
            and getattr(args, "tune_command", None) == "show"
        )
        or (
            args.command == "workloads"
            and getattr(args, "workloads_command", None) == "list"
        )
    )
    if not getattr(args, "no_artifact", False) and not inspection_only:
        command = ["repro-rtdose"] + (
            list(argv) if argv is not None else sys.argv[1:]
        )
        sink = artifact_mod.ArtifactSink(command=command)
        previous_sink = artifact_mod.set_sink(sink)

    tracer = None
    if want_trace or sink is not None:
        # The sink needs a recording tracer too: events.ndjson is
        # derived from the same span source as the Chrome trace.
        tracer = enable_tracing()
        if want_trace:
            _log.info(kv("tracing enabled", out=trace_path,
                         jsonl=jsonl_path))

    rc: Optional[int] = None
    status = "completed"
    try:
        rc = args.func(args)
        status = "completed" if rc == 0 else "failed"
    except BaseException:
        status = "error"
        raise
    finally:
        if tracer is not None:
            disable_tracing()
        if sink is not None:
            artifact_mod.set_sink(previous_sink)
            _write_run_artifact(sink, args, tracer, status, rc)

    if want_trace:
        print(span_summary_table(tracer).render())
        if trace_path:
            path = write_chrome_trace(tracer, trace_path)
            print(f"\nChrome trace written to {path} "
                  "(load in https://ui.perfetto.dev)")
        if jsonl_path:
            print(f"span JSONL written to {write_jsonl(tracer, jsonl_path)}")
    if want_trace or getattr(args, "metrics", False):
        print()
        print(get_registry().render_table())
    return rc


if __name__ == "__main__":
    sys.exit(main())
