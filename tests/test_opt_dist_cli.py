"""CLI opt verbs: run (+audit), kill/resume cycle, sweep, loadtest."""

import json

import pytest

from repro.cli import main

FAST = [
    "--case", "Liver 1", "--preset", "tiny",
    "--max-iterations", "4", "--tolerance", "1e-9",
]


def _run_dirs(tmp_path):
    return sorted((tmp_path / "runs").glob("*/artifact.json"))


def test_opt_run_with_audit(capsys):
    rc = main(
        ["opt", "run", "--shards", "2", "--audit-shards", "1", "2",
         "--no-service-audit"] + FAST
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Trajectory audit" in out
    assert "shards=2" in out
    assert "DIVERGED" not in out


def test_opt_run_no_audit(capsys):
    rc = main(["opt", "run", "--no-audit"] + FAST)
    assert rc == 0
    out = capsys.readouterr().out
    assert "Trajectory audit" not in out
    assert "terminal state" in out


def test_opt_kill_resume_cycle(tmp_path, capsys):
    # Run halted mid-flight: a deterministic stand-in for a kill.
    rc = main(
        ["opt", "run", "--halt-after", "2", "--checkpoint-every", "1",
         "--shards", "2"] + FAST
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "resume with" in out
    [artifact_file] = _run_dirs(tmp_path)
    data = json.loads(artifact_file.read_text())
    assert data["params"]["optimization"]["case"] == "Liver 1"
    assert any(
        c["reason"] == "preempt"
        for c in data["phases"]["opt_checkpoint"]
    )
    # Resume from the run directory; the CLI proves the stitched
    # trajectory equals an uninterrupted run bit for bit.
    rc = main(["opt", "resume", str(artifact_file.parent)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "resuming 'opt' from iteration 2" in out
    assert "bitwise identical" in out
    assert "DIVERGED" not in out


def test_opt_resume_rejects_foreign_artifact(tmp_path, capsys):
    # An artifact without optimization params (not written by opt run).
    rc = main(["info"])
    assert rc == 0
    [artifact_file] = _run_dirs(tmp_path)
    rc = main(["opt", "resume", str(artifact_file.parent)])
    assert rc == 2
    assert "no 'optimization' params" in capsys.readouterr().err


def test_opt_sweep_records_audit(tmp_path, capsys):
    rc = main(
        ["opt", "sweep", "--shards", "1", "2", "--no-service",
         "--lock-witness"] + FAST
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Trajectory audit" in out
    assert "kill@" in out
    assert "Lock witness:" in out
    assert "0 violation(s)" in out
    [artifact_file] = _run_dirs(tmp_path)
    data = json.loads(artifact_file.read_text())
    [sweep] = data["phases"]["opt_sweep"]
    assert sweep["ok"] is True
    assert [leg["leg"] for leg in sweep["legs"]][0].startswith("reference")


def test_opt_loadtest_smoke(capsys):
    rc = main(
        ["opt", "loadtest", "--optimizations", "3", "--tenants", "2",
         "--plans", "1", "--max-iterations", "3", "--shards", "1",
         "--serve-workers", "1"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Optimization loadtest summary" in out
    assert "trajectories bitwise vs standalone" in out


@pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
def test_opt_run_refuses_bad_initial_step(step, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["opt", "run", "--no-audit", "--initial-step", step] + FAST)
    assert exc.value.code == 2
    assert "--initial-step" in capsys.readouterr().err


def test_opt_requires_subcommand():
    with pytest.raises(SystemExit):
        main(["opt"])
