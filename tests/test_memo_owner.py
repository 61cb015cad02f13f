"""An algebra's memo has one owner: only ``LieAlgebra`` touches ``_memo``."""

import ast
from pathlib import Path

import lieq

SRC = Path(lieq.__file__).resolve().parent


def memo_uses(source: str) -> list:
    """(line, class, function) of each ``_memo`` attribute in a source file.

    class and function are the innermost enclosing definitions, or None.
    """
    out = []

    def walk(node, cls, fn):
        if isinstance(node, ast.Attribute) and node.attr == "_memo":
            out.append((node.lineno, cls, fn))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, cls, child.name)
            else:
                walk(child, cls, fn)

    walk(ast.parse(source), None, None)
    return out


def test_only_lie_algebra_reads_or_writes_its_memo():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        uses = memo_uses(path.read_text(encoding="utf-8"))
        if uses:
            found[str(path.relative_to(SRC))] = {(cls, fn) for _, cls, fn in uses}
    # __init__ makes the empty memo; cached is the only reader and writer
    assert found == {"liealg.py": {("LieAlgebra", "__init__"),
                                   ("LieAlgebra", "cached")}}


def test_the_walk_names_the_enclosing_class_and_function():
    source = ("class A:\n"
              "    def f(self):\n"
              "        return self._memo\n"
              "def g(x):\n"
              "    x._memo[1] = 2\n"
              "y._memo\n")
    assert memo_uses(source) == [(3, "A", "f"), (5, None, "g"), (6, None, None)]
