"""The names perfbench uses must exist in the package.

``perfbench/tracing.py`` wraps each ``(module, name)`` of its
``BOUNDARIES`` tuple by ``getattr``, so a refactor that drops one of
those module attributes breaks ``--trace 1``; ``perfbench/micro.py`` and
``perfbench/workloads.py`` import names from ``noisyquery``, so one that
goes away breaks the benchmark itself. Both are read with ``ast``, so
this test does not import perfbench.

The tracer also expects every threshold scan to call one of the walk
names it wraps in ``counting``; a scan that calls none makes
``--trace 1`` fail with a ``KeyError``.

No linter runs on ``src/``, so the last test here stands in for one:
every name a module imports must be read in that module, unless its
import statement carries ``# noqa: F401`` and the tracer wraps the name
there.
"""

import ast
import importlib
from pathlib import Path

import pytest

from noisyquery import BitOracle, derive_rng, seed_sequence, threshold_count
from noisyquery import counting

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


@pytest.mark.parametrize(
    "n, k",
    [
        (1, 1),
        (9, 3),
        (40, 20),  # 2k <= n + 1: a scan for k ones
        (40, 21),
        (40, 39),
        (9, 9),  # 2k > n + 1: a scan of the complement for n - k + 1 zeros
    ],
)
def test_every_threshold_scan_calls_a_traced_walk(monkeypatch, n, k):
    calls = []

    def shim(name):
        original = getattr(counting, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    for name in ("asymmetric_check_bit", "check_bit"):
        monkeypatch.setattr(counting, name, shim(name))
    for seed in range(4):
        hidden = derive_rng(seed, "traced-bits", n).integers(0, 2, size=n)
        before = len(calls)
        threshold_count(BitOracle(hidden, 0.2, seed_sequence(seed, "traced", n)), k, 0.1)
        assert len(calls) > before, (seed, n, k)


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
