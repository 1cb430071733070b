"""Shared fixtures: small deterministic matrices and tiny-scale cases.

Unit tests run on the 'tiny' case preset (seconds to build, cached on
disk and per-session in memory); the full-fidelity bench preset is
exercised by the benchmark suite in benchmarks/.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analyze.rules import reset_registry as reset_analyze_registry
from repro.bench.harness import clear_caches
from repro.dose.beam import Beam
from repro.dose.grid import DoseGrid
from repro.dose.phantom import build_liver_phantom
from repro.dose.structures import ROIMask
from repro.obs.artifact import NullArtifactSink, set_sink
from repro.obs.metrics import get_registry
from repro.opt.objectives import CompositeObjective, UniformDoseObjective
from repro.opt.problem import PlanOptimizationProblem
from repro.opt.robust import build_scenario_matrices, setup_error_scenarios
from repro.plans.cases import build_case_matrix, get_case
from repro.sparse.csr import CSRMatrix


@pytest.fixture(autouse=True, scope="session")
def _fresh_process_state():
    """Start and end the session with empty harness caches and metrics.

    The harness's matrix caches and the metrics registry are process
    globals; without this, a test run inherits whatever an earlier
    in-process run (e.g. pytest-xdist reuse, a REPL) left behind, and
    leaves its own state for whoever imports repro next.
    """
    clear_caches()
    get_registry().reset()
    reset_analyze_registry()
    set_sink(NullArtifactSink())
    yield
    clear_caches()
    get_registry().reset()
    reset_analyze_registry()
    set_sink(NullArtifactSink())


@pytest.fixture(autouse=True)
def _fresh_tune_cache():
    """Isolate the process-global tuning cache per test.

    A warm cache entry transparently reconfigures evaluators
    (dist/backend, opt/dist), so one test's autotune leaking into the
    next would change which code path the next test exercises.
    """
    from repro.tune import reset_tune_cache

    reset_tune_cache()
    yield
    reset_tune_cache()


@pytest.fixture(autouse=True)
def _artifact_dir(tmp_path, monkeypatch):
    """Route per-run artifacts into the test's tmp dir.

    ``repro.cli.main`` writes a ``runs/<run-id>/`` record for every
    subcommand; without this redirect, each CLI test would litter the
    repository checkout with run directories.
    """
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "runs"))


@pytest.fixture()
def lock_witness():
    """Opt-in strict lock-order witness around one test.

    Installed before the test body, so any declared lock the test
    creates (service, caches, metrics) is wrapped and order-checked;
    a violation raises :class:`~repro.obs.lockwitness.
    LockOrderViolation` at the acquisition site.  Always uninstalled,
    even when the test fails.
    """
    from repro.obs.lockwitness import install_witness, uninstall_witness

    witness = install_witness(strict=True)
    try:
        yield witness
    finally:
        uninstall_witness()


@pytest.fixture(scope="session")
def rng():
    """Session RNG for test-local randomness (fixed seed)."""
    return np.random.default_rng(20210419)


def make_random_csr(
    rng: np.random.Generator,
    n_rows: int = 60,
    n_cols: int = 25,
    density: float = 0.25,
    value_dtype=np.float32,
    empty_row_fraction: float = 0.2,
) -> CSRMatrix:
    """A random CSR matrix with some empty rows (helper, not a fixture)."""
    dense = rng.random((n_rows, n_cols))
    dense *= rng.random((n_rows, n_cols)) < density
    kill = rng.random(n_rows) < empty_row_fraction
    dense[kill, :] = 0.0
    return CSRMatrix.from_dense(dense, value_dtype=value_dtype)


@pytest.fixture()
def small_csr(rng) -> CSRMatrix:
    """A 60 x 25 random float32 CSR matrix with empty rows."""
    return make_random_csr(rng)


@pytest.fixture()
def heavy_tail_csr(rng) -> CSRMatrix:
    """A matrix with the dose-deposition row-length skew (runs + tails)."""
    n_rows, n_cols = 400, 120
    dense = np.zeros((n_rows, n_cols))
    for i in range(n_rows):
        if rng.random() < 0.6:
            continue
        length = min(n_cols, max(1, int(rng.lognormal(2.5, 1.3))))
        start = int(rng.integers(0, n_cols - length + 1))
        dense[i, start : start + length] = 0.1 + rng.random(length)
    return CSRMatrix.from_dense(dense, value_dtype=np.float32)


@pytest.fixture(scope="session")
def tiny_liver_case():
    """The Liver 1 case at the 'tiny' preset (cached across the session)."""
    return build_case_matrix("Liver 1", preset="tiny")


@pytest.fixture(scope="session")
def tiny_prostate_case():
    """The Prostate 1 case at the 'tiny' preset."""
    return build_case_matrix("Prostate 1", preset="tiny")


@pytest.fixture(scope="session")
def small_phantom():
    """A coarse liver phantom for geometry tests."""
    return build_liver_phantom(shape=(20, 20, 12), spacing=(13.0, 13.0, 18.0))


@pytest.fixture(scope="session")
def small_beam(small_phantom):
    """An anterior beam aimed at the small phantom's target centroid."""
    centers = small_phantom.grid.voxel_centers()
    iso = centers[small_phantom.target.voxel_indices].mean(axis=0)
    return Beam("test-beam", gantry_angle_deg=0.0, isocenter_mm=tuple(iso))


@pytest.fixture(scope="module")
def problem(tiny_liver_case):
    """A one-beam Liver 1 (tiny) plan problem and its target ROI.

    The target is synthesized on the case grid: the 300 voxels that
    receive the most dose from unit weights.
    """
    dep = tiny_liver_case
    dose = dep.dose(np.ones(dep.n_spots))
    flat = np.zeros(dep.n_voxels, dtype=bool)
    flat[np.argsort(dose)[-300:]] = True
    case = get_case("Liver 1", "tiny")
    grid = DoseGrid(case.phantom_shape, case.phantom_spacing)
    nx, ny, nz = grid.shape
    roi = ROIMask("target", grid, flat.reshape(nz, ny, nx))
    objective = CompositeObjective([UniformDoseObjective(roi, 60.0)])
    return PlanOptimizationProblem([dep], objective), roi


@pytest.fixture(scope="module")
def scenario_setup(small_phantom, small_beam):
    """Three setup-error scenarios (nominal, x+, x-) on the small phantom."""
    scenarios = setup_error_scenarios(12.0)[:3]
    matrices = build_scenario_matrices(
        small_phantom, [small_beam], scenarios,
        spot_spacing_mm=14.0, layer_spacing_mm=18.0,
    )
    objective = CompositeObjective(
        [UniformDoseObjective(small_phantom.target, 60.0)]
    )
    return small_phantom, scenarios, matrices, objective
