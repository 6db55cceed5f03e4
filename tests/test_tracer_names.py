"""The names perfbench's tracer swaps must exist in the package.

``perfbench/tracing.py`` wraps each ``(module, name)`` of its
``BOUNDARIES`` tuple by ``getattr``, so a refactor that drops one of
those module attributes breaks ``--trace 1``. The tuple is read with
``ast``, so this test does not import perfbench.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
