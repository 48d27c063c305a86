"""Every module of the package reads each name it imports, and imports
only at module level.

An import that nothing reads is dead code that still costs a reader's
attention and can hide a layering mistake (a name re-exported through the
wrong module).  An import inside a function hides a dependency from the
top of the module and can get round an import cycle.  ``__init__.py`` is
left out: it imports to re-export.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mhag"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(bound name, line) of every import, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read(tree):
    """Every name the module loads, names in string annotations included."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for ann in filter(None, _annotations(tree)):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(expr)
                             if isinstance(n, ast.Name))
    return names


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    return [(name, line) for name, line in _imported(tree)
            if name not in read]


def function_imports(path):
    """The line of every import inside a function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted({node.lineno for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_reads_every_import(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_imports_only_at_module_level(path):
    assert function_imports(path) == []


def test_finds_a_function_level_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("import os\n"
                   "def f():\n"
                   "    def g():\n"
                   "        from json import loads\n"
                   "        return loads\n"
                   "    return g, os\n")
    assert function_imports(mod) == [4]


def test_finds_an_unused_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("from __future__ import annotations\n"
                   "import os.path\nfrom typing import Dict, List\n"
                   "def f(x: 'Dict') -> None:\n"
                   "    return os.sep, 'List'\n")
    assert unused_imports(mod) == [("List", 3)]


def test_exports_resolve_and_cover_every_import():
    # A name removed from a module must leave ``__all__`` with it, and a
    # name that ``__init__.py`` imports at module level is there to be
    # exported.
    import mhag
    assert [n for n in mhag.__all__ if not hasattr(mhag, n)] == []
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(imported - set(mhag.__all__)) == []


def test_cli_import_leaves_out_dataclasses():
    # ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``,
    # which every command would pay for at start-up.
    code = ("import sys\n"
            "import mhag.cli\n"
            "from mhag.cli import eval_op, export_structure, run_verify\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"
