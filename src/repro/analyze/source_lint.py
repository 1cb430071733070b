"""AST-based reproducibility lint (rules RA101–RA109).

The paper's kernel is clinically acceptable only because it is bitwise
reproducible (Section II-D), and reproducibility is a *global* property:
one unseeded RNG, one wall-clock read or one atomics call anywhere in a
kernel's functional path silently destroys it.  This lint walks the
package source and enforces:

* **RA101** — modules that declare reproducible kernels must not import or
  call :mod:`repro.gpu.atomics` (the non-associative reduction model that
  defines the *non*-reproducible GPU Baseline);
* **RA102** — stochastic code must flow through :mod:`repro.util.rng`;
  direct ``numpy.random`` construction or sampling anywhere else bypasses
  the single-seed provenance story;
* **RA103** — functional-path modules (kernels, sparse formats, precision,
  GPU substrate, dose, optimization, roofline) must not read wall clocks;
  timing belongs to the harness and :mod:`repro.obs`;
* **RA104** — modules declaring reproducible kernels must not hold mutable
  module-level state (dict/list/set literals), which leaks across runs;
* **RA105** — plan-compilation modules must not mutate compiled plan
  arrays: every ndarray field of a plan dataclass is frozen
  (``writeable=False``) at construction, nothing re-enables writes, and
  executors never subscript-assign into plan attributes;
* **RA106** — modules under ``repro/dist/`` must not concatenate shard
  results in dict/set iteration order: a merge fed from ``.values()`` or
  a set reconstructs the dose in whatever order the container yields,
  which is exactly the nondeterminism the explicit shard-index merge
  exists to exclude;
* **RA107** — run-record-producing modules (the functional path plus
  ``bench``) must not write run records with ``json.dump``/``csv.writer``
  directly: the per-run artifact (:mod:`repro.obs.artifact`) is the
  single source of truth, and files are views rendered from it.  Modules
  that import ``repro.obs.artifact`` are artifact-aware and exempt;
* **RA108** — functional-path modules outside :mod:`repro.tune` must not
  hard-code execution configuration: a literal ``threads_per_block=`` or
  ``n_shards=`` at a call site, or a fresh block-size default binding,
  silently pins a launch shape the autotuner exists to choose.  The
  tuner owns the candidate space; kernels keep their measured Fig-4
  defaults under explicit ``# analyze: allow[RA108]`` markers;
* **RA109** — deposition matrices are constructed only through
  :mod:`repro.workloads` (and the legacy ``dose/`` builders the registry
  wraps).  An ad-hoc ``build_deposition_matrix``/``DoseDepositionMatrix``
  call anywhere else bypasses the registry's structure, cost-model and
  tuning-fingerprint contracts; sanctioned legacy sites carry explicit
  ``# analyze: allow[RA109]`` markers.

All rules honour inline ``# analyze: allow[RULE]`` suppressions on the
flagged line.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.analyze.findings import Finding, Severity
from repro.analyze.rules import Rule, RuleRegistry, inline_allowed_rules

RA101 = Rule(
    "RA101",
    "atomics-in-reproducible-module",
    Severity.ERROR,
    "A module declaring reproducible kernels imports or calls "
    "repro.gpu.atomics.",
    "Move the atomics use into a kernel declared reproducible=False, or "
    "mark the line '# analyze: allow[RA101]' with justification.",
)
RA102 = Rule(
    "RA102",
    "unseeded-numpy-random",
    Severity.ERROR,
    "Direct numpy.random construction/sampling bypasses repro.util.rng.",
    "Thread an rng through repro.util.rng.make_rng/stable_seed instead of "
    "calling numpy.random directly.",
)
RA103 = Rule(
    "RA103",
    "wall-clock-in-functional-path",
    Severity.ERROR,
    "A functional-path module reads a wall clock; results could depend on "
    "when the code runs.",
    "Move timing into the bench harness or repro.obs; functional code "
    "must be a pure function of its inputs.",
)
RA104 = Rule(
    "RA104",
    "mutable-module-state",
    Severity.WARNING,
    "Module-level mutable state in a module declaring reproducible "
    "kernels can carry information between runs.",
    "Make the value immutable (tuple/frozenset/constant) or move it into "
    "instance state.",
)
RA105 = Rule(
    "RA105",
    "mutable-compiled-plan",
    Severity.ERROR,
    "A plan-compilation module constructs or mutates compiled-plan arrays "
    "without freezing them; shared plans must be immutable "
    "(writeable=False).",
    "Freeze every ndarray field in __post_init__ (setflags(write=False) "
    "or a freeze helper), and never subscript-assign into a plan "
    "attribute — write into fresh local arrays instead.",
)
RA106 = Rule(
    "RA106",
    "unordered-shard-merge",
    Severity.ERROR,
    "A repro.dist module concatenates shard results in dict/set "
    "iteration order; the merged dose would depend on container "
    "ordering, not shard index.",
    "Compile the shards into a ShardedPlan and let each slice write its "
    "own row range of one preallocated output, visited in explicit "
    "shard-index order (execute_sharded_plan, ShardedEvaluator).",
)
RA107 = Rule(
    "RA107",
    "ad-hoc-run-record-writer",
    Severity.ERROR,
    "A functional-path module writes run records with json.dump/"
    "csv.writer directly, bypassing the per-run ArtifactSink "
    "(repro.obs.artifact) as the single source of truth.",
    "Record the data into the artifact (repro.obs.artifact.record) and "
    "render files as views of it; modules that import "
    "repro.obs.artifact are treated as artifact-aware view renderers. "
    "Mark deliberate exceptions '# analyze: allow[RA107]'.",
)
RA108 = Rule(
    "RA108",
    "hard-coded-execution-config",
    Severity.ERROR,
    "A functional-path module outside repro.tune hard-codes execution "
    "configuration (a literal threads_per_block/n_shards argument or a "
    "block-size default binding); launch shapes belong to the autotuner's "
    "candidate space.",
    "Leave the parameter unset (kernel default), thread a tuned "
    "ExecutionConfig from repro.tune through the call, or mark a kernel's "
    "measured Fig-4 default '# analyze: allow[RA108]' with justification.",
)
RA109 = Rule(
    "RA109",
    "deposition-construction-outside-workloads",
    Severity.ERROR,
    "Deposition-matrix construction (build_deposition_matrix / "
    "DoseDepositionMatrix) outside repro.workloads and the legacy "
    "repro.dose builders; ad-hoc construction bypasses the typed "
    "workload registry's structure, cost-model and fingerprint "
    "contracts.",
    "Generate matrices through repro.workloads (register_workload / "
    "generate), or mark a sanctioned legacy construction site "
    "'# analyze: allow[RA109]' with justification.",
)

#: package-relative directories whose modules are the functional path.
#: ``serve`` is functional-path too: a served dose must be a pure
#: function of (plan, precision, weights) — scheduling time flows only
#: through the injectable :mod:`repro.obs.clock`, never wall clocks.
FUNCTIONAL_DIRS: Tuple[str, ...] = (
    "kernels", "sparse", "precision", "gpu", "dose", "opt", "roofline",
    "plans", "serve", "dist", "tune", "workloads",
)

#: directories allowed to construct deposition matrices (RA109): the
#: typed workload registry and the legacy dose builders it wraps.
DEPOSITION_DIRS: Tuple[str, ...] = ("workloads", "dose")

#: call names that construct a deposition matrix (RA109).
_DEPOSITION_BUILDERS = frozenset({
    "build_deposition_matrix",
    "DoseDepositionMatrix",
})

#: modules exempt from RA102 (the sanctioned RNG plumbing itself).
RNG_EXEMPT_SUFFIXES: Tuple[str, ...] = ("util/rng.py",)

#: modules holding compiled execution plans; RA105 applies to these.
PLAN_MODULE_SUFFIXES: Tuple[str, ...] = ("kernels/plan.py",)

#: directories whose modules produce run records; RA107 applies to
#: these (the functional path plus the bench harness/recording layer).
RUN_RECORD_DIRS: Tuple[str, ...] = FUNCTIONAL_DIRS + ("bench",)

#: calls that write ad-hoc run records (RA107).
_RUN_RECORD_WRITERS = frozenset({"json.dump", "csv.writer"})

#: numpy.random attributes that are types/plumbing, not entropy sources.
_NUMPY_RANDOM_ALLOWED = frozenset({
    "numpy.random.Generator",
    "numpy.random.BitGenerator",
    "numpy.random.SeedSequence",
})

_WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp)

#: call keywords that pin a launch shape (RA108); matched by exact name,
#: so spec fields like ``max_threads_per_block`` stay out of scope.
_EXEC_CONFIG_KEYWORDS = frozenset({"threads_per_block", "n_shards"})

#: bindings that (re)declare a block-size default (RA108); kernels'
#: measured Fig-4 values carry explicit allow markers.
_EXEC_CONFIG_BINDINGS = frozenset({
    "default_threads_per_block",
    "DEFAULT_THREADS_PER_BLOCK",
})

#: calls that assemble shard outputs into one dose vector (RA106).
_CONCAT_FAMILY = frozenset({
    "concatenate", "stack", "hstack", "vstack", "column_stack",
    "tree_merge", "merge_shard_outputs",
})


@dataclass
class ModuleFacts:
    """What one parsed module declares."""

    #: names of kernel classes found, with their reproducible flag.
    kernel_classes: Dict[str, bool] = field(default_factory=dict)

    @property
    def declares_reproducible(self) -> bool:
        """True when every kernel class in the module is reproducible
        (and there is at least one)."""
        return bool(self.kernel_classes) and all(
            self.kernel_classes.values()
        )


class _ImportMap(ast.NodeVisitor):
    """Map local names to the dotted path they were imported from."""

    def __init__(self) -> None:
        self.names: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.names[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports unused in this package
        for alias in node.names:
            local = alias.asname or alias.name
            self.names[local] = f"{node.module}.{alias.name}"


def _dotted_path(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve an attribute chain to a dotted path through the imports."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = imports.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


def _collect_module_facts(tree: ast.Module) -> ModuleFacts:
    facts = ModuleFacts()
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        base_names = []
        for base in node.bases:
            path = _dotted_path(base, {})
            if path:
                base_names.append(path.split(".")[-1])
        if not any("Kernel" in b for b in base_names):
            continue
        reproducible = True  # SpMVKernel's default
        for stmt in node.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "reproducible"
                and isinstance(stmt.value, ast.Constant)
            ):
                reproducible = bool(stmt.value.value)
        facts.kernel_classes[node.name] = reproducible
    return facts


def _is_functional_path(rel_path: str) -> bool:
    parts = Path(rel_path).parts
    return len(parts) >= 2 and parts[0] in FUNCTIONAL_DIRS


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name == "dataclass":
            return True
    return False


def _ndarray_field_lines(node: ast.ClassDef) -> List[int]:
    """Line numbers of dataclass fields annotated as ndarrays."""
    lines: List[int] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and "ndarray" in ast.unparse(
            stmt.annotation
        ):
            lines.append(stmt.lineno)
    return lines


def _call_freezes_arrays(call: ast.Call) -> bool:
    """True for ``x.setflags(write=False)`` or a ``*freeze*`` helper call."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "setflags":
        return any(
            kw.arg == "write"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
            for kw in call.keywords
        )
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else ""
    )
    return "freeze" in name.lower()


def _post_init_freezes(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if (
            isinstance(stmt, ast.FunctionDef)
            and stmt.name == "__post_init__"
        ):
            return any(
                isinstance(sub, ast.Call) and _call_freezes_arrays(sub)
                for sub in ast.walk(stmt)
            )
    return False


def _lint_plan_module(
    tree: ast.Module, emit: "Callable[[Rule, int, str], None]"
) -> None:
    """RA105: compiled-plan arrays must be frozen and never mutated.

    Three construction-site checks: (a) every dataclass with ndarray
    fields freezes them in ``__post_init__``; (b) nothing re-enables
    writes via ``setflags(write=True)``; (c) no subscript store targets
    an attribute (``plan.values[...] = ...``) — executors may only
    write into fresh local arrays.
    """
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        if not _is_dataclass_decorated(node):
            continue
        if _ndarray_field_lines(node) and not _post_init_freezes(node):
            emit(
                RA105, node.lineno,
                f"dataclass {node.name} holds ndarray fields but its "
                "__post_init__ does not freeze them (writeable=False)",
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "setflags"
                and any(
                    kw.arg == "write"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in node.keywords
                )
            ):
                emit(
                    RA105, node.lineno,
                    "setflags(write=True) re-enables mutation of a plan "
                    "array",
                )
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Attribute
            ):
                emit(
                    RA105, node.lineno,
                    f"subscript store into attribute "
                    f"'{ast.unparse(target.value)}' mutates compiled plan "
                    "state; write into a fresh local array instead",
                )


def _is_dist_module(rel_path: str) -> bool:
    parts = Path(rel_path).parts
    return len(parts) >= 2 and parts[0] == "dist"


def _is_run_record_module(rel_path: str) -> bool:
    parts = Path(rel_path).parts
    return len(parts) >= 2 and parts[0] in RUN_RECORD_DIRS


def _imports_artifact_sink(tree: ast.Module) -> bool:
    """True when the module imports :mod:`repro.obs.artifact`.

    Artifact-aware modules are the sanctioned view renderers: they read
    or enrich the per-run record rather than bypassing it, so RA107
    exempts them wholesale.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module.startswith("repro.obs.artifact")
            or (node.module == "repro.obs"
                and any(a.name == "artifact" for a in node.names))
        ):
            return True
        if isinstance(node, ast.Import) and any(
            a.name.startswith("repro.obs.artifact") for a in node.names
        ):
            return True
    return False


def _yields_container_order(node: ast.expr) -> bool:
    """True when the expression subtree draws values from a dict/set.

    ``d.values()`` and set displays/comprehensions both yield in
    container iteration order — never an acceptable merge order for
    shard outputs.
    """
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Set, ast.SetComp)):
            return True
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "values"
        ):
            return True
    return False


def _lint_dist_module(
    tree: ast.Module, emit: "Callable[[Rule, int, str], None]"
) -> None:
    """RA106: shard results merge by explicit index, never container order."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name not in _CONCAT_FAMILY:
            continue
        args = list(node.args) + [kw.value for kw in node.keywords]
        if any(_yields_container_order(arg) for arg in args):
            emit(
                RA106, node.lineno,
                f"{name}(...) is fed from dict/set iteration order; "
                "merge shard outputs by explicit shard index instead",
            )


def _lint_exec_config(
    tree: ast.Module, emit: "Callable[[Rule, int, str], None]"
) -> None:
    """RA108: no hard-coded launch shapes outside the tuner.

    Two shapes are flagged: (a) a call-site keyword ``threads_per_block=``
    or ``n_shards=`` whose value is an integer literal — the caller pins a
    launch configuration the tuning cache should choose; (b) a binding of
    a recognized block-size default name — a new Fig-4-style constant
    outside the kernel catalogue.  Booleans and ``None`` (the "use the
    kernel default" sentinel) are not literals in this sense.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                if (
                    kw.arg in _EXEC_CONFIG_KEYWORDS
                    and isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, int)
                    and not isinstance(kw.value.value, bool)
                ):
                    emit(
                        RA108, kw.value.lineno,
                        f"call hard-codes {kw.arg}={kw.value.value}; "
                        "launch shapes belong to the tuner's candidate "
                        "space (pass a tuned ExecutionConfig or leave "
                        "unset)",
                    )
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id in _EXEC_CONFIG_BINDINGS
            ):
                emit(
                    RA108, node.lineno,
                    f"binding {target.id!r} declares a block-size "
                    "default outside the tuner; mark a kernel's measured "
                    "Fig-4 default '# analyze: allow[RA108]'",
                )


def _line_allows(source_lines: List[str], lineno: int, rule_id: str) -> bool:
    if 1 <= lineno <= len(source_lines):
        return rule_id in inline_allowed_rules(source_lines[lineno - 1])
    return False


def lint_source(
    source: str, rel_path: str, location: Optional[str] = None
) -> List[Finding]:
    """Lint one module's source text.

    ``rel_path`` is the path relative to the ``repro`` package root (it
    selects which rules apply); ``location`` overrides the path used in
    findings (defaults to ``rel_path``).
    """
    location = location or rel_path
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:  # pragma: no cover - repo parses
        return [
            RA101.finding(
                location, f"cannot parse module: {exc}", line=exc.lineno,
                remediation="Fix the syntax error.",
            )
        ]
    lines = source.splitlines()
    imports = _ImportMap()
    imports.visit(tree)
    facts = _collect_module_facts(tree)
    findings: List[Finding] = []

    def emit(rule: Rule, lineno: int, message: str) -> None:
        if not _line_allows(lines, lineno, rule.rule_id):
            findings.append(rule.finding(location, message, line=lineno))

    # --- RA101: atomics imports in reproducible modules ---------------- #
    if facts.declares_reproducible:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "repro.gpu.atomics"
                or (node.module == "repro.gpu"
                    and any(a.name == "atomics" for a in node.names))
            ):
                emit(
                    RA101, node.lineno,
                    "import of repro.gpu.atomics in a module whose kernels "
                    "are all declared reproducible",
                )
            elif isinstance(node, ast.Import) and any(
                a.name.startswith("repro.gpu.atomics") for a in node.names
            ):
                emit(
                    RA101, node.lineno,
                    "import of repro.gpu.atomics in a module whose kernels "
                    "are all declared reproducible",
                )

    is_rng_exempt = any(rel_path.endswith(s) for s in RNG_EXEMPT_SUFFIXES)
    functional = _is_functional_path(rel_path)
    run_record_scope = (
        _is_run_record_module(rel_path)
        and not _imports_artifact_sink(tree)
    )
    parts = Path(rel_path).parts
    deposition_scope = not (len(parts) >= 2 and parts[0] in DEPOSITION_DIRS)

    # --- RA105: compiled-plan immutability ----------------------------- #
    if any(rel_path.endswith(s) for s in PLAN_MODULE_SUFFIXES):
        _lint_plan_module(tree, emit)

    # --- RA106: ordered shard merges in repro.dist --------------------- #
    if _is_dist_module(rel_path):
        _lint_dist_module(tree, emit)

    # --- RA108: hard-coded execution config outside the tuner ---------- #
    if functional and Path(rel_path).parts[0] != "tune":
        _lint_exec_config(tree, emit)

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        path = _dotted_path(node.func, imports.names)
        if path is None:
            continue
        # --- RA101: calls into the atomics model ----------------------- #
        if facts.declares_reproducible and path.startswith(
            "repro.gpu.atomics."
        ):
            emit(
                RA101, node.lineno,
                f"call to {path} in a module whose kernels are all "
                "declared reproducible",
            )
        # --- RA102: direct numpy.random use ---------------------------- #
        if (
            not is_rng_exempt
            and path.startswith("numpy.random.")
            and path not in _NUMPY_RANDOM_ALLOWED
        ):
            emit(
                RA102, node.lineno,
                f"direct call to {path} bypasses repro.util.rng",
            )
        # --- RA103: wall-clock reads in the functional path ------------ #
        if functional and path in _WALL_CLOCK_CALLS:
            emit(
                RA103, node.lineno,
                f"wall-clock read {path}() in functional-path module",
            )
        # --- RA107: ad-hoc run-record writers -------------------------- #
        if run_record_scope and path in _RUN_RECORD_WRITERS:
            emit(
                RA107, node.lineno,
                f"{path}(...) writes a run record outside the "
                "ArtifactSink; record into the artifact and render "
                "files as views of it",
            )
        # --- RA109: deposition construction outside workloads ---------- #
        if (
            deposition_scope
            and path.split(".")[-1] in _DEPOSITION_BUILDERS
        ):
            emit(
                RA109, node.lineno,
                f"{path.split('.')[-1]}(...) constructs a deposition "
                "matrix outside repro.workloads / repro.dose; route "
                "construction through the workload registry",
            )

    # --- RA104: module-level mutable state ----------------------------- #
    if facts.declares_reproducible:
        for node in tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not isinstance(value, _MUTABLE_LITERALS):
                continue
            names = ", ".join(
                t.id for t in targets if isinstance(t, ast.Name)
            ) or "<target>"
            emit(
                RA104, node.lineno,
                f"module-level mutable value bound to {names} in a module "
                "declaring reproducible kernels",
            )
    return findings


def lint_package(package_root: Path) -> List[Finding]:
    """Lint every module under the ``repro`` package root."""
    findings: List[Finding] = []
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(package_root).as_posix()
        source = path.read_text(encoding="utf-8")
        findings.extend(
            lint_source(source, rel, location=f"src/repro/{rel}")
        )
    return findings


def _check_repro_lint(context: object) -> List[Finding]:
    root = getattr(context, "package_root")
    return lint_package(Path(root))


#: rule ids this checker may emit (shared with tests).
SOURCE_LINT_RULES: FrozenSet[str] = frozenset(
    {"RA101", "RA102", "RA103", "RA104", "RA105", "RA106", "RA107",
     "RA108", "RA109"}
)


def register(registry: RuleRegistry) -> None:
    """Register the lint rules and checker."""
    for rule in (RA101, RA102, RA103, RA104, RA105, RA106, RA107, RA108,
                 RA109):
        registry.add_rule(rule)
    registry.add_checker("repro-lint", SOURCE_LINT_RULES, _check_repro_lint)
