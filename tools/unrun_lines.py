"""Statements of the package source that tier-1 never executes.

Runs the tier-1 suite in this process under a ``sys.settrace`` line
tracer, installed by a small pytest plugin for the length of the session,
and then prints every statement under ``src/`` that no test ran, one per
line, as

    src/toric_regions/<module>.py:<line>: <first line of the statement>

followed on standard error by the count.  A statement counts as run when
any line it owns fires a line event: every line of a simple statement, the
header lines (decorators included) of a compound one.  Docstrings are no
statements here, nor are global and nonlocal declarations, which compile
to no code and so never fire.  Only the standard library's tracer and ``ast`` are used,
and the trace slows the suite about fivefold.

Run from anywhere:

    python tools/unrun_lines.py [PYTEST_ARGS ...]

PYTEST_ARGS default to tier-1's ``-q --continue-on-collection-errors`` on
the ``tests`` directory.  The exit status is pytest's.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _first_line(node: ast.stmt) -> int:
    """The statement's first line, its decorators included."""
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])


def statements(path: Path) -> dict[int, range]:
    """Every statement of the module at path but docstrings and global or
    nonlocal declarations: the line of its keyword mapped to the lines it
    owns."""
    tree = ast.parse(path.read_text(), filename=str(path))
    docstrings = {id(scope.body[0]) for scope in ast.walk(tree)
                  if isinstance(scope, _SCOPES) and scope.body
                  and isinstance(scope.body[0], ast.Expr)
                  and isinstance(scope.body[0].value, ast.Constant)
                  and isinstance(scope.body[0].value.value, str)}
    out = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.stmt) and id(node) not in docstrings
                and not isinstance(node, (ast.Global, ast.Nonlocal))):
            body = getattr(node, "body", None)
            last = max(node.lineno, _first_line(body[0]) - 1) if body else node.end_lineno
            out[node.lineno] = range(_first_line(node), last + 1)
    return out


class LineRecorder:
    """Line events of the code in files under a directory, per file.

    stop puts back the trace functions that start replaced, so a recorder
    can run inside a traced run.
    """

    def __init__(self, directory: Path):
        self.prefix = str(directory.resolve())
        self.hits: dict[str, set[int]] = {}
        self.outer = (None, None)

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(self.prefix):
            return None
        lines = self.hits.setdefault(name, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def start(self) -> None:
        self.outer = (sys.gettrace(), threading.gettrace())
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(self.outer[0])
        threading.settrace(self.outer[1])


def unrun(src: Path, hits: dict[str, set[int]]) -> list[str]:
    """'file:line: source' for each statement under src that hits misses,
    file paths relative to src's parent."""
    out = []
    for path in sorted(src.rglob("*.py")):
        ran = hits.get(str(path.resolve()), set())
        text = path.read_text().splitlines()
        for lineno, owned in sorted(statements(path).items()):
            if ran.isdisjoint(owned):
                out.append(f"{path.relative_to(src.parent).as_posix()}:{lineno}: "
                           f"{text[lineno - 1].strip()}")
    return out


class _Plugin:
    def __init__(self, recorder: LineRecorder):
        self.recorder = recorder

    def pytest_sessionstart(self, session):
        self.recorder.start()

    def pytest_sessionfinish(self, session, exitstatus):
        self.recorder.stop()


def main(argv: list[str]) -> int:
    import pytest

    args = argv[1:] or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")]
    sys.path.insert(0, str(SRC))
    recorder = LineRecorder(SRC)
    status = pytest.main(args, plugins=[_Plugin(recorder)])
    lines = unrun(SRC, recorder.hits)
    print("\n".join(lines))
    print(f"{len(lines)} statements never executed", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
