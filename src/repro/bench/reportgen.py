"""Generate EXPERIMENTS.md: paper-vs-measured for every table and figure.

One source of truth: the same experiment drivers and paper bands the
benchmark suite asserts against.  Regenerate with::

    python -m repro.bench.reportgen [output-path]
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List

from repro.bench.experiments import ALL_EXPERIMENTS, ExperimentReport
from repro.bench.recording import check_claims

_HEADER = """\
# EXPERIMENTS — paper vs. measured

Auto-generated by `python -m repro.bench.reportgen`; the same numbers are
asserted by `pytest benchmarks/`.  "Measured" values come from executing
the simulated kernels on the bench-scale matrices (structure-preserving,
~1/50 of the paper's voxel counts) and extrapolating the traffic counters
to the paper's full matrix sizes (see DESIGN.md, "Scaling policy").

Absolute agreement with the paper is *not* the goal — our substrate is a
simulator, not the authors' testbed — the assertion is that every
qualitative claim (who wins, by what factor, where crossovers fall) holds,
which the band checks below verify.

Experiment index: Table I and Figures 2-7 of the paper, plus the two
in-text CPU-speedup claims and the Section II-D reproducibility
requirement (covered by `benchmarks/test_reproducibility.py`).

This file is regenerated whole; hand-written recipes and host-side
measurements live in RECIPES.md.
"""


def experiment_section(name: str, report: ExperimentReport) -> List[str]:
    lines = [f"## {report.experiment}", ""]
    lines.append(report.table.to_markdown())
    lines.append("")
    checks = check_claims(report)
    if checks:
        lines.append("| claim | paper | measured | band | verdict | source |")
        lines.append("|---|---|---|---|---|---|")
        for c in checks:
            paper = f"{c.paper_value:g}" if c.paper_value is not None else "-"
            verdict = "in band" if c.in_band else "**OUT OF BAND**"
            lines.append(
                f"| `{c.claim}` | {paper} | {c.measured:.4g} "
                f"| [{c.band[0]:g}, {c.band[1]:g}] | {verdict} | {c.source} |"
            )
        lines.append("")
    if report.extra_text:
        lines.append("```")
        lines.append(report.extra_text)
        lines.append("```")
        lines.append("")
    return lines


_NOTES = """\
## Known divergences and their causes

* **Figure 2, rows-below-32-nnz**: the paper quotes 5.6 % (liver 1) and
  14.2 % (prostate 1) of non-empty rows shorter than one warp.  Row
  lengths scale with the column count, so at reduced scale these
  percentages are necessarily higher (the 'structure' preset narrows but
  cannot close the gap); the bands assert the *ordering* (prostate >
  liver) and an upper bound instead.
* **Figure 5 CPU speedups**: the paper's 17x (baseline vs CPU) and 46x
  (ours vs CPU) are not mutually consistent with its own "average 3x"
  baseline-to-ours speedup (17 x 3 = 51); we land at ~17x and ~47-63x
  per case, inside both stated bands.
* **GPU Baseline bandwidth (Fig. 5)**: the paper reports "significant
  variation" in the baseline's DRAM bandwidth between cases; our
  simulator reproduces the *low* DRAM bandwidth (the atomic traffic stays
  in L2) and its case dependence through the output-vector footprint,
  but the run-to-run variance channel (scheduler noise) is not modelled.

## Reproducibility requirement (Section II-D)

`benchmarks/test_reproducibility.py` verifies on the bench-scale liver
matrix that the Half/Double kernel is **bitwise identical** across
repeated runs (fixed warp-tree reduction order) and that the atomics
baseline is **not** (randomized commit order), with the spread bounded by
non-associativity noise — exactly the dichotomy that forces RayStation to
reject atomics-based kernels.
"""


def generate(path: Path) -> None:
    """Run every experiment and write the markdown report."""
    lines = [_HEADER]
    for name, fn in ALL_EXPERIMENTS.items():
        report = fn()
        lines.extend(experiment_section(name, report))
    lines.append(_NOTES)
    path.write_text("\n".join(lines))


def main(argv: List[str] = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    out = Path(args[0]) if args else Path("EXPERIMENTS.md")
    generate(out)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
