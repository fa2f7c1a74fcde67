import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import toric_regions

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def test_all_exports_resolve():
    missing = [name for name in toric_regions.__all__ if not hasattr(toric_regions, name)]
    assert missing == []


def _modules(tree: ast.AST) -> set[str]:
    """The names that the tree's import statements bind to modules."""
    return {(alias.asname or alias.name).partition(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import) for alias in node.names}


def _of_module(node: ast.Attribute, modules: set[str]) -> bool:
    """Is the attribute read off a module that modules names, as math.exp
    or np.random.default_rng is?"""
    base = node.value
    while isinstance(base, ast.Attribute):
        base = base.value
    return isinstance(base, ast.Name) and base.id in modules


def _read_list(tree: ast.AST, modules: set[str]) -> list[str]:
    """Every loaded name and attribute of the tree, once per read, except
    the attributes of modules: math.exp reads no method exp."""
    return [node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            and not (isinstance(node, ast.Attribute) and _of_module(node, modules))]


def _reads(tree: ast.AST, modules: set[str], imports: bool) -> set[str]:
    """Names read in the tree, as _read_list counts them, and, if imports,
    imported names."""
    names = set(_read_list(tree, modules))
    if imports:
        names.update(alias.name.rpartition(".")[2] for node in ast.walk(tree)
                     if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names)
    return names


def _outside_reads() -> set[str]:
    """Names read or imported in bench/ and tools/ outside their tests.
    The names the benchmark's tracer wraps are strings, and no read: a
    name that only the tracer reaches is dead, and the tracer lists a
    name it cannot find as absent."""
    used = set()
    for path in [*(ROOT / "bench").rglob("*.py"), *(ROOT / "tools").rglob("*.py")]:
        if "tests" not in path.relative_to(ROOT).parts:
            tree = ast.parse(path.read_text())
            used |= _reads(tree, _modules(tree), True)
    return used


def test_every_export_is_used_outside_the_tests():
    # A public name that only tests read is a dead helper: it belongs in the
    # tests that read it.  Reads count in the package modules (__init__.py
    # aside) and in bench/ and tools/ outside their tests.  Imports count
    # in bench/ and tools/; in the package a name counts where it is read,
    # and a read inside an exported function or class counts only once
    # that export is itself used.
    exports = set(toric_regions.__all__)
    used = _outside_reads()
    inside = {}  # export -> the names its own definition reads
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        modules = _modules(tree)
        for node in tree.body:
            if getattr(node, "name", None) in exports:
                inside.setdefault(node.name, set()).update(_reads(node, modules, False))
            else:
                used |= _reads(node, modules, False)
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
    # name (recursion) do not keep it; an attribute of an imported module
    # (math.exp) is no read of a method of that name, and dunder methods are
    # called by Python itself.
    reads, defs = Counter(), []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        modules = _modules(tree)
        reads.update(_read_list(tree, modules))
        defs += [(path.relative_to(ROOT).as_posix(), node, modules) for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and not (node.name.startswith("__") and node.name.endswith("__"))]
    outside = _outside_reads()
    unread = [f"{path}:{node.lineno} {node.name}" for path, node, modules in defs
              if node.name not in outside
              and reads[node.name] == _read_list(node, modules).count(node.name)]
    assert unread == []


def test_cones_hold_no_angles():
    # Cones and the fan's sectors are held as integer rays, compared by
    # the signs of cross products: no module under src/ reads or wraps an
    # angle of them.
    banned = ("atan2", "_wrap", "TWO_PI", "ANGLE_TOL", "LINE_WIDTH")
    found = [f"{path.relative_to(ROOT).as_posix()}:{k}: {name}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for k, line in enumerate(path.read_text().splitlines(), start=1)
             for name in banned if name in line]
    assert found == []


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
