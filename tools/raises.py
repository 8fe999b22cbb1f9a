"""The `raise` statements in src/momex that the tier-1 suite never runs.

    python tools/raises.py

runs the tier-1 suite (pytest over tests/) in this process with a line
collector installed through sys.settrace and threading.settrace, finds
every `raise` statement in src/momex with ast, and prints each one that no
test ran as `src/momex/FILE.py:LINE`, then a one-line count. A statement
counts as run when any line it spans ran. Code that runs in a child
process (the demos' tests start some) is not seen.

The exit status depends only on those lines: 0 when every `raise` ran, 1
when some did not. The suite's own outcome does not enter it, because
tracing slows every test: on a 2-CPU host the traced suite took 70-90 s
against 35 s untraced, and the quadratic acceptance gate's 5 s leg has
failed under the tracer at 7.1 s. So this is a tool to run and report,
not a test of the suite.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "momex"


def raise_spans() -> dict:
    """{file: [(first line, last line) of each raise statement]} over src/momex."""
    spans = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        spans[str(path)] = sorted((n.lineno, n.end_lineno) for n in ast.walk(tree)
                                  if isinstance(n, ast.Raise))
    return spans


def run_lines(args: list) -> set:
    """The (file, line) pairs of src/momex that ran while pytest ran args."""
    hit, ours = set(), {}  # ours: co_filename -> its resolved path if in src/momex, else None

    def local(frame, event, arg):
        if event == "line":
            hit.add((ours[frame.f_code.co_filename], frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            path = Path(name).resolve()
            ours[name] = str(path) if path.parent == PACKAGE else None
        return local if ours[name] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hit


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))
    spans = raise_spans()
    hit = run_lines(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                     str(REPO / "tests")])
    missed = [(f, a) for f, lines in spans.items() for a, b in lines
              if not any((f, n) in hit for n in range(a, b + 1))]
    for f, line in missed:
        print(f"{Path(f).relative_to(REPO)}:{line}")
    total = sum(map(len, spans.values()))
    print(f"raises: {len(missed)} of {total} raise statements in src/momex never ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
