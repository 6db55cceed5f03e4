"""The package's public names.

``noisyquery.__all__`` must list each name ``__init__.py`` imports from
its submodules, once, and nothing else, and every name in it must
resolve on the package. ``__init__.py`` is read with ``ast``, so a name
dropped from the imports but left in ``__all__``, or the reverse, shows
here rather than at a user's ``from noisyquery import *``. Importing the
package loads neither the process pool nor ``json``: a run imports them
when it uses them.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import noisyquery


def submodule_imports():
    module = ast.parse(Path(noisyquery.__file__).read_text())
    return [
        alias.asname or alias.name
        for node in module.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    ]


def test_all_names_resolve():
    assert noisyquery.__all__
    assert [name for name in noisyquery.__all__ if not hasattr(noisyquery, name)] == []


def test_all_has_no_duplicates():
    assert [name for name, count in Counter(noisyquery.__all__).items() if count > 1] == []


def test_all_is_what_init_imports():
    imported = submodule_imports()
    assert imported
    assert set(noisyquery.__all__) == set(imported)


def test_import_leaves_the_pool_and_json_unloaded():
    # a fresh interpreter, so no other test's imports count
    code = (
        "import sys, noisyquery; "
        "print(sorted(m for m in sys.modules "
        "if m.partition('.')[0] in ('concurrent', 'multiprocessing', 'json')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(noisyquery.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"
