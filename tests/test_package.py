import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import toric_regions

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def test_all_exports_resolve():
    missing = [name for name in toric_regions.__all__ if not hasattr(toric_regions, name)]
    assert missing == []


def _reads(tree: ast.AST, imports: bool) -> set[str]:
    """Names read in the tree: loaded names and attributes, and, if
    imports, imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def test_every_export_is_used_outside_the_tests():
    # A public name that only tests read is a dead helper: it belongs in the
    # tests that read it.  Reads count in the package modules (__init__.py
    # aside), in bench/ and tools/ outside their tests, and in the names the
    # benchmark's tracer wraps.  Imports count in bench/ and tools/; in the
    # package a name counts where it is read, and a read inside an exported
    # function or class counts only once that export is itself used.
    exports = set(toric_regions.__all__)
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    used = {part for _, attr, _ in tracer.TRACED + tracer.COUNTED for part in attr.split(".")}
    inside = {}  # export -> the names its own definition reads
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if getattr(node, "name", None) in exports:
                inside.setdefault(node.name, set()).update(_reads(node, False))
            else:
                used |= _reads(node, False)
    for path in [*(ROOT / "bench").rglob("*.py"), *(ROOT / "tools").rglob("*.py")]:
        if "tests" not in path.relative_to(ROOT).parts:
            used |= _reads(ast.parse(path.read_text()), True)
    while True:
        grown = used.union(*[inside[name] for name in exports & used & inside.keys()])
        if grown == used:
            break
        used = grown
    assert sorted(exports - used) == []


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
