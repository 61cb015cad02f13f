"""Dense matrices stay in the Smith-form reference; every other layer uses terms.

``IntMatrix`` is the public input and output type of ``exactlin.snf`` and
``exactlin.det``. No module map, product or algebra holds one: homomorphisms
keep sparse (k, c) term rows, like every other layer. So do modules and
submodules: their lattice and Hermite rows, Smith columns and lifts are
merged term rows, and so are the single elements that ``canon``,
``lift_pruned``, ``Submodule.solve`` and ``Ideal.coords`` return, and an
ideal's basis and brackets. Dense vectors stay at the edges: the dense
``FpModule`` constructor, which no library code calls, and the test-facing
``contains_vec``, ``is_lattice_member``, ``same_element`` and
``Submodule.basis()``.
"""

import ast
from pathlib import Path

import lieq
from lieq.exactlin import FpModule, merged
from lieq.io_catalog import heisenberg, strictly_upper
from lieq.liealg import Ideal, center, derived_ideal
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
    # so are an ideal's basis and brackets, and what the queries return
    g = strictly_upper(5)
    ideals = [derived_ideal(g), Ideal(g, center(g)), Ideal.whole(g)]
    brackets = [r for h in ideals for row in h.gb for r in row]
    assert any(brackets) and _merged_term_rows(brackets, nonzero=False)
    for h in ideals:
        assert h.basis and _merged_term_rows(h.basis, nonzero=True)
        assert [h.coords(b) for b in h.basis] == [((i, 1),) for i in range(h.p)]
        solved = [h.sub.solve(((k, 1), (k, 2), (k, -2))) for k in range(g.rank)]
        assert _merged_term_rows([c for c in solved if c is not None], nonzero=False)
    m = prod.module
    canon = [m.canon(((k, 3), (k, -1))) for k in range(m.ambient_rank)]
    assert any(canon) and _merged_term_rows(canon, nonzero=False)
    lifts = [m.lift_pruned(c) for c in canon]
    assert any(lifts) and _merged_term_rows(lifts, nonzero=False)
    # the test-facing basis stays dense
    assert all(isinstance(x, int) for v in z.basis() for x in v)


def test_no_library_path_presents_dense_rows(monkeypatch):
    """ker xi of a q = 2 exterior square, down to its invariant factors,
    presents every module from term rows: the dense constructor never runs."""
    calls = []
    dense_init = FpModule.__init__

    def spy(self, *args, **kwargs):
        calls.append(args)
        dense_init(self, *args, **kwargs)

    monkeypatch.setattr(FpModule, "__init__", spy)
    ker = q_exterior_product(strictly_upper(5), None, 2).xi().kernel()
    assert ker.invariant_factors
    assert calls == []
