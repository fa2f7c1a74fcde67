"""Size figures of the package source: lines, functions, methods, keyword
options, caches and public names.

Prints JSON with, for every module under ``src/``, its line count, its
numbers of functions and methods, its number of keyword options and its
number of caches, plus the totals and the package's public names.  A
method is a ``def`` directly in a class body; every other ``def`` is a
function, nested ones included (lambdas are neither).  Lines alone can
fall when code is packed denser; the definition counts do not.  A
keyword option is a function parameter with a default value (positional
or keyword-only), counted over every ``def`` in the module, methods and
nested functions included.  A cache is
an ``lru_cache`` used as a decorator, bare or called, or called on a
function (``lru_cache(maxsize=8)(f)``), by that name or as
``functools.lru_cache``.  The public names are the entries of
``__all__`` in ``toric_regions/__init__.py``, read without importing it
(0 when SRC_DIR holds no such file).

Run from anywhere:

    python tools/src_stats.py [SRC_DIR]

SRC_DIR defaults to the ``src`` directory next to this file's parent.
"""

import ast
import json
import sys
from pathlib import Path


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def functions_and_methods(tree: ast.AST) -> tuple[int, int]:
    """Definitions that are not directly in a class body, and those that are."""
    defs = sum(isinstance(node, _DEFS) for node in ast.walk(tree))
    methods = sum(isinstance(child, _DEFS) for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) for child in node.body)
    return defs - methods, methods


def keyword_options(tree: ast.AST) -> int:
    """Parameters with a default, over every function definition."""
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree) if isinstance(node, _DEFS))


def _is_lru_cache(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "lru_cache"
            or isinstance(node, ast.Attribute) and node.attr == "lru_cache")


def caches(tree: ast.AST) -> int:
    """lru_caches: every call of lru_cache, and every bare @lru_cache."""
    nodes = list(ast.walk(tree))
    return (sum(isinstance(node, ast.Call) and _is_lru_cache(node.func) for node in nodes)
            + sum(_is_lru_cache(d) for node in nodes
                  if isinstance(node, (*_DEFS, ast.ClassDef))
                  for d in node.decorator_list))


def public_names(src: Path) -> int:
    """Length of the package's __all__, read by ast; 0 without one."""
    init = src / "toric_regions" / "__init__.py"
    if not init.is_file():
        return 0
    for node in ast.parse(init.read_text(), filename=str(init)).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            return len(ast.literal_eval(node.value))
    return 0


def src_stats(src: Path) -> dict:
    modules = {}
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        functions, methods = functions_and_methods(tree)
        modules[path.relative_to(src).as_posix()] = {
            "lines": len(text.splitlines()),
            "functions": functions,
            "methods": methods,
            "keyword_options": keyword_options(tree),
            "caches": caches(tree),
        }
    total = {key: sum(m[key] for m in modules.values())
             for key in ("lines", "functions", "methods", "keyword_options", "caches")}
    return {"modules": modules, "total": {**total, "public_names": public_names(src)}}


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    if not src.is_dir():
        print(f"not a directory: {src}", file=sys.stderr)
        return 2
    print(json.dumps(src_stats(src), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
