import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import toric_regions

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def test_all_exports_resolve():
    missing = [name for name in toric_regions.__all__ if not hasattr(toric_regions, name)]
    assert missing == []


def _read_list(tree: ast.AST) -> list[str]:
    """Every loaded name and attribute of the tree, once per read."""
    return [node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]


def _reads(tree: ast.AST, imports: bool) -> set[str]:
    """Names read in the tree: loaded names and attributes, and, if
    imports, imported names."""
    names = set(_read_list(tree))
    if imports:
        names.update(alias.name.rpartition(".")[2] for node in ast.walk(tree)
                     if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names)
    return names


def _outside_reads() -> set[str]:
    """Names read or imported in bench/ and tools/ outside their tests,
    and the parts of every name the benchmark's tracer wraps, which it
    reads from strings."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    used = {part for _, attr, _ in tracer.TRACED + tracer.COUNTED for part in attr.split(".")}
    for path in [*(ROOT / "bench").rglob("*.py"), *(ROOT / "tools").rglob("*.py")]:
        if "tests" not in path.relative_to(ROOT).parts:
            used |= _reads(ast.parse(path.read_text()), True)
    return used


def test_every_export_is_used_outside_the_tests():
    # A public name that only tests read is a dead helper: it belongs in the
    # tests that read it.  Reads count in the package modules (__init__.py
    # aside), in bench/ and tools/ outside their tests, and in the names the
    # benchmark's tracer wraps.  Imports count in bench/ and tools/; in the
    # package a name counts where it is read, and a read inside an exported
    # function or class counts only once that export is itself used.
    exports = set(toric_regions.__all__)
    used = _outside_reads()
    inside = {}  # export -> the names its own definition reads
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if getattr(node, "name", None) in exports:
                inside.setdefault(node.name, set()).update(_reads(node, False))
            else:
                used |= _reads(node, False)
    while True:
        grown = used.union(*[inside[name] for name in exports & used & inside.keys()])
        if grown == used:
            break
        used = grown
    assert sorted(exports - used) == []


def test_every_function_and_method_is_read():
    # A function or method defined under src/ that nothing in src/, bench/
    # or tools/ reads is dead, or alive only for the tests.  A read counts
    # as in the export guard, except that a definition's reads of its own
    # name (recursion) do not keep it; dunder methods are called by Python
    # itself.
    reads, defs = Counter(), []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        reads.update(_read_list(tree))
        defs += [(path.relative_to(ROOT).as_posix(), node) for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and not (node.name.startswith("__") and node.name.endswith("__"))]
    outside = _outside_reads()
    unread = [f"{path}:{node.lineno} {node.name}" for path, node in defs
              if node.name not in outside
              and reads[node.name] == _read_list(node).count(node.name)]
    assert unread == []


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
