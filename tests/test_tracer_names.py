"""The names perfbench uses must exist in the package.

``perfbench/tracing.py`` wraps each ``(module, name)`` of its
``BOUNDARIES`` tuple by ``getattr``, so a refactor that drops one of
those module attributes breaks ``--trace 1``; ``perfbench/micro.py`` and
``perfbench/workloads.py`` import names from ``noisyquery``, so one that
goes away breaks the benchmark itself. Both are read with ``ast``, so
this test does not import perfbench.

The tracer reads the walks under a ``counting.threshold`` span, and
raises ``KeyError`` for one with none. It opens that span only around
``harness.threshold_count``, which no experiment calls: every kind runs
its block function, so the single-oracle names it wraps in ``harness``
are never reached and a threshold scan need call no wrapped walk. The
connectivity trials draw from the sampler's parent-array core, so
``harness.sample_hard_instance`` is one of those names too.

No linter runs on ``src/``, so the last two tests here stand in for one:
every name a module imports must be read in that module, unless its
import statement carries ``# noqa: F401`` and the tracer wraps the name
there; and the integer and real-number rules, ``streams._is_integer``
and ``streams._is_real``, are the only numeric type tests outside the
spec-field rule and the CSV cell formatter.
"""

import ast
import importlib
from pathlib import Path

import pytest

from noisyquery import ExperimentSpec, harness, run_experiment, run_trial

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "noisyquery"
TRACING = PERFBENCH / "tracing.py"


def boundary_names():
    module = ast.parse(TRACING.read_text())
    (boundaries,) = [
        node.value
        for node in module.body
        if isinstance(node, ast.Assign) and [getattr(target, "id", None) for target in node.targets] == ["BOUNDARIES"]
    ]
    return [(entry.elts[0].id, entry.elts[1].value) for entry in boundaries.elts]


def test_tracer_boundaries_resolve():
    names = boundary_names()
    assert names
    missing = [
        f"noisyquery.{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(f"noisyquery.{module}"), name)
    ]
    assert not missing


def imported_names(path):
    """``(module, name)`` for each ``from noisyquery[.module] import name`` in a file."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "noisyquery"
        for alias in node.names
    ]


def test_benchmark_imports_resolve():
    for script in ("micro.py", "workloads.py"):
        names = imported_names(PERFBENCH / script)
        assert names, script
        missing = [f"{module}.{name}" for module, name in names if not hasattr(importlib.import_module(module), name)]
        assert not missing, script


# the harness names the tracer wraps that no experiment calls
TRACER_ONLY = (
    "threshold_count", "counting_one_sided", "counting_two_sided", "naive_connectivity", "sample_hard_instance"
)


@pytest.mark.parametrize(
    "spec",
    [
        ExperimentSpec("threshold", n=40, k=20, p=0.2, delta=0.1, trials=3),  # 2k <= n + 1
        ExperimentSpec("threshold", n=40, k=39, p=0.2, delta=0.1, trials=3),  # 2k > n + 1
        ExperimentSpec("counting", n=40, p=0.2, delta=0.1, ones=5, trials=3),
        ExperimentSpec("counting2", n=40, p=0.2, delta=0.1, ones=35, trials=3),
        ExperimentSpec("connectivity", n=8, p=0.2, delta=0.1, trials=3),
        ExperimentSpec("st-connectivity", n=8, p=0.2, delta=0.1, trials=3),
    ],
    ids=lambda spec: f"{spec.kind}-{spec.k}",
)
def test_experiments_call_no_tracer_only_harness_name(monkeypatch, spec):
    assert {("harness", name) for name in TRACER_ONLY} <= set(boundary_names())

    def refuse(*args, **kwargs):
        raise AssertionError("an experiment called a tracer-only harness name")

    for name in TRACER_ONLY:
        monkeypatch.setattr(harness, name, refuse)
    assert run_experiment(spec).spec.trials == spec.trials
    run_trial(spec, 1)


def unread_imports(path):
    """``(name, kept)`` for each name a module imports and never reads;
    ``kept`` when the import statement carries ``# noqa: F401``."""
    source = path.read_text()
    lines = source.splitlines()
    module = ast.parse(source)
    read = {node.id for node in ast.walk(module) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    found = []
    for node in ast.walk(module):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        kept = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        found += [(name, kept) for name in bound if name not in read]
    return found


def test_src_imports_are_read_or_traced():
    assert SRC.is_dir()
    boundaries = set(boundary_names())
    unread, kept = [], []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            for name, noqa in unread_imports(path):
                (kept if noqa else unread).append((path.stem, name))
    assert unread == []
    assert [pair for pair in kept if pair not in boundaries] == []


# the only functions outside streams that test a number's type themselves:
# the spec-field rule, which is narrower since its fields are printed into
# rows, and the CSV formatter, which writes floats by repr
OWN_NUMBER_TESTS = {("harness", "Param.admits"), ("harness", "_cell")}


def number_type_tests(path):
    """Qualified names of the functions of a module that call ``isinstance``
    against ``bool``, ``int`` or ``float``, once per call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = (*scope, child.name) if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "isinstance" and len(child.args) == 2:
                types = {name.id for name in ast.walk(child.args[1]) if isinstance(name, ast.Name)}
                if types & {"bool", "int", "float"}:
                    found.append(".".join(scope))
            visit(child, inner)

    visit(ast.parse(path.read_text()), ())
    return found


def test_number_rules_live_in_streams():
    found = {
        (path.stem, name)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "streams.py"
        for name in number_type_tests(path)
    }
    assert OWN_NUMBER_TESTS <= found
    assert sorted(found - OWN_NUMBER_TESTS) == []
