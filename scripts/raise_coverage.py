"""List the `raise` statements in `src/lieq` that the test suite never runs.

Usage (from the repository root):

    python3 scripts/raise_coverage.py [PYTEST_ARGS ...]

It runs pytest in this process (by default on `tests/`, the tier-1 suite)
under a `sys.settrace` line tracer confined to the files of `src/lieq`, then
prints each `raise` whose line never ran, as `path:line: source`, and a
count. Tests that start the CLI in a subprocess are not traced. It needs
only the standard library and pytest, runs about ten times slower than the
untraced suite, and is not part of it. The exit code is pytest's when a
test fails; otherwise it is 1 when some raise never ran and 0 when every
one did, so the script works as a check.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lieq"


def raise_lines(path: Path) -> list:
    """The line of every `raise` statement in a source file, in order."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Raise))


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    prefix = str(PACKAGE) + "/"
    seen = set()
    inside = {}

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        hit = inside.get(name)
        if hit is None:
            hit = inside[name] = name.startswith(prefix)
        return local if hit else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in raise_lines(path):
            if (str(path), line) not in seen:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} raise statements never ran")
    return int(code) or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
