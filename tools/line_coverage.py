"""Line-coverage gate: every line inside a function body in src/cews runs.

A pytest plugin built on the standard library's ``sys.settrace``. It traces
only frames whose code lies in ``src/cews``, runs the suite with hypothesis
derandomized (a fixed seed per test, no example database), so that no line
is covered by a lucky random example, and fails the session if any line
inside a function body never ran, unless ``ALLOWED`` names it with a reason.
Once every such line has run, tracing stops, and the rest of the suite runs
at full speed. Run it from the repository root, with any pytest arguments
after it:

    python3 tools/line_coverage.py [PYTEST_ARGS...]

A line counts if a statement inside a function body (a nested function's
included) starts there and the compiler emitted code for it; docstrings,
module bodies and class bodies, which run on import, do not count.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cews"

# "module.py:line" -> why that line cannot run under the suite
ALLOWED = {}


def function_lines(path: Path) -> set:
    """The lines of ``path`` that start a statement inside a function body
    and carry code."""
    text = path.read_text()
    tree = ast.parse(text)
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]  # the docstring
            for stmt in body:
                starts.update(n.lineno for n in ast.walk(stmt) if isinstance(n, ast.stmt))
    coded = set()
    codes = [compile(text, str(path), "exec")]
    while codes:
        code = codes.pop()
        coded.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return starts & coded


class LineCoverage:
    def __init__(self):
        # each module's counted lines that have not run yet, by resolved path
        self.pending = {}
        for path in sorted(PACKAGE.glob("*.py")):
            lines = {line for line in function_lines(path) if f"{path.name}:{line}" not in ALLOWED}
            self.pending[os.path.realpath(path)] = lines
        self.left = sum(map(len, self.pending.values()))
        self.files = {}  # co_filename -> its pending set, None outside the package

    def _trace_calls(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self.files:
            self.files[filename] = self.pending.get(os.path.realpath(filename))
        return self._trace_lines if self.files[filename] else None

    def _trace_lines(self, frame, event, arg):
        if event == "line":
            pending = self.files[frame.f_code.co_filename]
            if frame.f_lineno in pending:
                pending.discard(frame.f_lineno)
                self.left -= 1
                if not self.left:
                    # every counted line ran: the rest of the suite runs untraced
                    sys.settrace(None)
        return self._trace_lines

    def pytest_configure(self, config):
        # imported here: pytest warns about a plugin imported before it starts
        from hypothesis import settings

        settings.register_profile("line-coverage", derandomize=True, database=None)
        settings.load_profile("line-coverage")
        sys.settrace(self._trace_calls)

    def pytest_sessionfinish(self, session, exitstatus):
        sys.settrace(None)
        if self.left and exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        for path, lines in self.pending.items():
            for line in sorted(lines):
                terminalreporter.write_line(f"line-coverage: {Path(path).name}:{line} never ran")
        if not self.left:
            terminalreporter.write_line("line-coverage: every line inside a function body in src/cews ran")


if __name__ == "__main__":
    sys.exit(pytest.main(sys.argv[1:], plugins=[LineCoverage()]))
