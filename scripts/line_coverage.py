"""Print every statement of src/secbc that the test suite never executes.

    python scripts/line_coverage.py                 # the whole Tier-1 suite
    python scripts/line_coverage.py tests/test_cli.py -x

Standard library only (no coverage package): ``sys.settrace`` and
``threading.settrace`` record each line run in a file of this checkout's
``src/secbc``.  Both start before pytest imports the package, so
module-level lines count.  Afterwards each module is parsed with ``ast``
and every statement that never ran is printed as ``path:line: source``
(docstrings and ``global``/``nonlocal`` declarations skipped), followed
by a count per file.  A compound statement (``if``, ``for``, ``def``,
``try``, ...) counts as run when a line of its header or its first body
statement ran.  Lines that only a subprocess runs (the
``python -m secbc.cli`` tests) are not seen.  Arguments go to pytest
(default: ``-q``); the exit status is pytest's.  The trace makes the
suite about 1.5 times as slow.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "secbc"


def _start_trace() -> dict:
    """Start tracing the package's files in this and every new thread;
    returns the executed line numbers by file name, filled as they run."""
    hits: dict = defaultdict(set)
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    threading.settrace(call)
    sys.settrace(call)
    return hits


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _missed(path: Path, ran: set) -> list:
    """(line, statement) of each statement of ``path`` whose lines never ran."""
    text = path.read_text(encoding="utf-8")
    missed = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.stmt) or _is_docstring(node):
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):  # declarations, no code
            continue
        body = getattr(node, "body", None)
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        if body and isinstance(body, list):
            head = set(range(first, body[0].lineno)) | {body[0].lineno}
        else:
            head = set(range(first, node.end_lineno + 1))
        if not head & ran:
            missed.append((node.lineno, ast.get_source_segment(text, node)))
    return sorted(missed)


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv) or ["-q"]
    hits = _start_trace()
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest  # noqa: E402 - after the trace starts, pytest imports the package

    status = pytest.main(args)
    sys.settrace(None)
    threading.settrace(None)
    total = 0
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        missed = _missed(path, hits.get(str(path), set()))
        name = path.relative_to(ROOT)
        for line, source in missed:
            print(f"{name}:{line}: {source.splitlines()[0].strip()}")
        counts.append(f"{name}: {len(missed)} statements never executed")
        total += len(missed)
    print("\n".join(counts))
    print(f"total: {total} statements of {PACKAGE.relative_to(ROOT)} never executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
