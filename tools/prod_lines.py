"""Statements of the package source that the production path never executes.

The production path is what the package's callers outside the tests run:
the ``records()`` of ``tools/atlas_outcomes.py``, ``tools/level_outcomes.py``
and ``tools/reach_outcomes.py``, then each workload of ``bench/run.py``,
set up by its ``set_up`` and run by its ``run_ops`` at seed 1 for 2 s,
first the timed ops and then the census.  All of it runs in this process
under ``tools/unrun_lines.py``'s line recorder, started before the package
is imported.  It prints every statement under ``src/`` that none of it ran,
one per line, as ``tools/unrun_lines.py`` does,

    src/toric_regions/<module>.py:<line>: <first line of the statement>

and then every function or method none of whose statements ran,

    src/toric_regions/<module>.py:<line>: def <Class.name>

with both counts on standard error.  What is listed here and not by
``tools/unrun_lines.py`` is code that only the tests run.  ``bench/`` is
only read.  The run takes about a minute, so tier-1 tests only the report.

Run from anywhere:

    python tools/prod_lines.py
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TOOLS = ROOT / "tools"
SEED = 1
SECONDS = 2.0


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


unrun_lines = _load("unrun_lines", TOOLS / "unrun_lines.py")


def unrun_defs(src: Path, hits: dict[str, set[int]]) -> list[str]:
    """'file:line: def Qual.name' for each def under src, nested ones
    included, that owns statements and none that hits ran; file paths
    relative to src's parent."""
    out = []
    for path in sorted(src.rglob("*.py")):
        ran = hits.get(str(path.resolve()), set())
        owned = unrun_lines.statements(path)
        rel = path.relative_to(src.parent).as_posix()

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    body = [lines for lineno, lines in owned.items()
                            if child.body[0].lineno <= lineno <= child.end_lineno]
                    if body and all(ran.isdisjoint(lines) for lines in body):
                        out.append(f"{rel}:{child.lineno}: def {prefix}{child.name}")
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), filename=str(path)), "")
    return out


def production_path() -> None:
    """Run the three outcome tools' records and every benchmark workload."""
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("toric_regions")
    importlib.import_module("toric_regions.dynamics")
    run = _load("bench_run", ROOT / "bench" / "run.py")
    for name, args in (("atlas_outcomes", ()), ("level_outcomes", (run.wl,)),
                       ("reach_outcomes", (run.wl,))):
        for _ in _load(name, TOOLS / f"{name}.py").records(package, *args):
            pass
    for workload in run.wl.WORKLOADS:
        w, ops, _ = run.set_up(workload, SEED, SECONDS)
        tracer = run.tracing.Tracer()
        run.run_ops(w, ops, tracer, float("inf"))
        run.run_ops(w, w.census(), tracer, float("inf"))


def main() -> int:
    recorder = unrun_lines.LineRecorder(SRC)
    recorder.start()
    try:
        production_path()
    finally:
        recorder.stop()
    lines, defs = unrun_lines.unrun(SRC, recorder.hits), unrun_defs(SRC, recorder.hits)
    print("\n".join(lines + defs))
    print(f"{len(lines)} statements and {len(defs)} definitions never executed",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
