"""Dense matrices stay in the Smith-form reference; every other layer uses terms.

``IntMatrix`` is the public input and output type of ``exactlin.snf`` and
``exactlin.det``. No module map, product or algebra holds one: homomorphisms
keep sparse (k, c) term rows, like every other layer. So do modules and
submodules: their lattice and Hermite rows, Smith columns and lifts are
merged term rows, while a single element a query takes or returns stays a
dense tuple.
"""

import ast
from pathlib import Path

import lieq
from lieq.exactlin import merged
from lieq.io_catalog import heisenberg, strictly_upper
from lieq.liealg import center
from lieq.qtensor import q_exterior_product

SRC = Path(lieq.__file__).resolve().parent
NAME = "IntMatrix"


def int_matrix_uses(source: str) -> list:
    """(top-level scope, how) for each mention of ``IntMatrix`` in a module.

    The scope is the name of the enclosing top-level function or class, or
    "" at module level; how is "import", "call" or "name".
    """
    out = []
    for top in ast.parse(source).body:
        scope = getattr(top, "name", "")
        nodes = list(ast.walk(top))
        callees = {id(n.func) for n in nodes if isinstance(n, ast.Call)}
        for node in nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                out += [(scope, "import") for a in node.names if a.name == NAME]
            elif isinstance(node, ast.Name) and node.id == NAME:
                out.append((scope, "call" if id(node) in callees else "name"))
    return out


def _uses_by_module() -> dict:
    return {str(path.relative_to(SRC)):
            int_matrix_uses(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.rglob("*.py"))}


def test_only_the_smith_reference_names_int_matrix():
    uses = _uses_by_module()
    assert len(uses) >= 10
    exactlin = uses.pop("exactlin.py")
    # the package root re-exports it as public API, and does nothing else
    assert uses.pop("__init__.py") == [("", "import")]
    assert {name: found for name, found in uses.items() if found} == {}
    # in exactlin: the class itself, the determinant it takes and snf
    assert {scope for scope, _ in exactlin} == {"IntMatrix", "det", "snf"}
    assert {scope for scope, how in exactlin if how == "call"} == {"IntMatrix", "snf"}


def test_the_walk_sees_imports_calls_and_names():
    source = ("from lieq.exactlin import IntMatrix\n"
              "def f(rows):\n"
              "    return IntMatrix(rows)\n"
              "class H:\n"
              "    def g(self, m: IntMatrix):\n"
              "        return isinstance(m, IntMatrix)\n")
    assert int_matrix_uses(source) == [("", "import"), ("f", "call"),
                                       ("H", "name"), ("H", "name")]


def _merged_term_rows(rows, nonzero: bool) -> bool:
    """Whether every row is a tuple of merged (k, c) terms, empty only if allowed."""
    return all(isinstance(r, tuple) and (r or not nonzero)
               and all(isinstance(t, tuple) and len(t) == 2 for t in r)
               and r == merged(r) for r in rows)


def test_modules_and_submodules_keep_term_rows():
    prod = q_exterior_product(strictly_upper(5), None, 2)
    z = center(heisenberg())
    modules = [prod.module, z.ambient, z.abstract]
    assert any(m.invariant_factors for m in modules)
    for m in modules:
        assert isinstance(m.lattice_rows, tuple)
        assert _merged_term_rows(m.lattice_rows, nonzero=True)
        assert _merged_term_rows(m.canonical_basis(), nonzero=True)
        assert len(m._w_cols) == m.ambient_rank
        assert _merged_term_rows(m._w_cols, nonzero=False)
    hermite = z._hermite_rows()
    assert hermite and _merged_term_rows(hermite, nonzero=True)
    # a single element stays dense
    assert all(isinstance(x, int) for v in z.basis() for x in v)
