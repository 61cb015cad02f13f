"""Algebra file format, built-in example algebras, and persisted reports.

The textual format is line-oriented UTF-8 with ``#`` comments::

    ring: Z               # or Z/<m> with m >= 2
    generators: e1 e2 e3
    orders: 0 0 2         # optional, one per generator, 0 = free
    bracket: [e1,e2] = e3       # integer linear combinations allowed
    bracket: [e1,e3] = 2*e2 - e3

Unspecified brackets are zero and antisymmetry is filled in; the parsed
algebra is validated and canonicalized. Reports are schema-versioned JSON
with invariant factors as integer lists, byte-identical across runs.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from lieq.errors import AlgebraSyntaxError, DuplicateBracket
from lieq.exactlin import ring_name
from lieq.liealg import LieAlgebra, direct_sum_algebras, lie_algebra

_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*$")
_BRACKET = re.compile(r"\[\s*([^\[\],]+?)\s*,\s*([^\[\],]+?)\s*\]\s*=\s*(.*)$")


def _parse_combination(expr: str, names: dict, line_no: int, n: int) -> tuple:
    """Parse '2*e1 - e2 + 3' style integer combinations of generators."""
    vec = [0] * n
    expr = expr.strip()
    if not expr:
        raise AlgebraSyntaxError(line_no, "empty right-hand side")
    tokens = re.findall(r"[+-]|[^+\-\s]+", expr)
    sign = 1
    for tok in tokens:
        if tok == "+" or tok == "-":
            if tok == "-":
                sign = -sign
            continue
        coef = sign
        term = tok
        if "*" in term:
            cs, _, term = term.partition("*")
            try:
                coef = sign * int(cs)
            except ValueError:
                raise AlgebraSyntaxError(line_no, f"bad coefficient {cs!r}")
        if term in names:
            vec[names[term]] += coef
        else:
            try:
                const = int(term)
            except ValueError:
                raise AlgebraSyntaxError(line_no, f"unknown generator {term!r}")
            if const * coef != 0:
                raise AlgebraSyntaxError(
                    line_no, "constant terms other than 0 are not elements")
        sign = 1
    return tuple(vec)


def parse(text: str, name: str = "g") -> LieAlgebra:
    """Parse, validate and canonicalize an algebra file."""
    ring = None
    gens: Optional[list] = None
    orders = None
    brackets = {}
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise AlgebraSyntaxError(line_no, f"expected 'key: value', got {raw!r}")
        key = key.strip().lower()
        rest = rest.strip()
        if key in seen and key != "bracket":
            raise AlgebraSyntaxError(line_no, f"repeated '{key}:' line")
        seen.add(key)
        if key == "ring":
            if rest == "Z":
                ring = 0
            elif rest.startswith("Z/"):
                try:
                    ring = int(rest[2:])
                except ValueError:
                    raise AlgebraSyntaxError(line_no, f"bad modulus in {rest!r}")
                if ring < 2:
                    raise AlgebraSyntaxError(line_no, "modulus must be >= 2")
            else:
                raise AlgebraSyntaxError(line_no, f"unknown ring {rest!r}")
        elif key == "generators":
            gens = rest.split()
            if not all(_NAME.match(g) for g in gens):
                raise AlgebraSyntaxError(line_no, "generator names must be identifiers")
            if len(set(gens)) != len(gens):
                raise AlgebraSyntaxError(line_no, "duplicate generator name")
        elif key == "orders":
            try:
                orders = [int(x) for x in rest.split()]
            except ValueError:
                raise AlgebraSyntaxError(line_no, "orders must be integers")
            if any(o < 0 for o in orders):
                raise AlgebraSyntaxError(line_no, "orders must be non-negative")
        elif key == "bracket":
            if gens is None:
                raise AlgebraSyntaxError(line_no, "bracket before generators")
            m = _BRACKET.match(rest)
            if not m:
                raise AlgebraSyntaxError(line_no, f"malformed bracket line {raw!r}")
            names = {g: i for i, g in enumerate(gens)}
            a, b = m.group(1).strip(), m.group(2).strip()
            if a not in names or b not in names:
                raise AlgebraSyntaxError(line_no, f"unknown generator in [{a},{b}]")
            i, j = names[a], names[b]
            if i == j:
                raise AlgebraSyntaxError(
                    line_no, f"diagonal bracket [{a},{a}] is forbidden (alternating)")
            if (min(i, j), max(i, j)) in brackets:
                raise DuplicateBracket(line_no, f"pair [{a},{b}] assigned twice")
            vec = _parse_combination(m.group(3), names, line_no, len(gens))
            if i < j:
                brackets[(i, j)] = vec
            else:
                brackets[(j, i)] = tuple(-x for x in vec)
        else:
            raise AlgebraSyntaxError(line_no, f"unknown key {key!r}")
    if ring is None:
        raise AlgebraSyntaxError(0, "missing 'ring:' line")
    if gens is None:
        raise AlgebraSyntaxError(0, "missing 'generators:' line")
    if orders is None:
        orders = [0 if ring == 0 else ring] * len(gens)
    if len(orders) != len(gens):
        raise AlgebraSyntaxError(0, "orders count does not match generators")
    return lie_algebra(orders, brackets, ring, name)


def _format_combination(row, names) -> str:
    """Text of a merged sparse (k, c) term row over the generator names."""
    terms = []
    for k, c in row:
        nm = names[k]
        if c == 1:
            term = nm
        elif c == -1:
            term = f"-{nm}"
        else:
            term = f"{c}*{nm}"
        if terms and not term.startswith("-"):
            terms.append(f"+ {term}")
        elif terms:
            terms.append(f"- {term[1:]}")
        else:
            terms.append(term)
    return " ".join(terms)


def serialize(g: LieAlgebra) -> str:
    """Canonical text form; ``parse(serialize(g))`` is isomorphic to g."""
    names = g.generator_names()
    lines = [
        f"ring: {ring_name(g.base_modulus)}",
        f"generators: {' '.join(names)}",
        f"orders: {' '.join(str(o) for o in g.orders)}",
    ]
    for (i, j), row in sorted(g._br.items()):
        lines.append(f"bracket: [{names[i]},{names[j]}] = "
                     f"{_format_combination(row, names)}")
    return "\n".join(lines) + "\n"


def load(path) -> LieAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name = str(path).rsplit("/", 1)[-1]
    if name.endswith(".lieq"):
        name = name[:-5]
    return parse(text, name)


# ---------------------------------------------------------------------------
# built-in catalog

def abelian(orders, modulus: int = 0, name: Optional[str] = None) -> LieAlgebra:
    return lie_algebra(list(orders), {}, modulus, name or "abelian")


def heisenberg(modulus: int = 0) -> LieAlgebra:
    """Strictly upper triangular 3x3 matrices: [e1,e2] = e3."""
    ring = "" if modulus == 0 else f"@Z/{modulus}"
    return lie_algebra([modulus] * 3, {(0, 1): (0, 0, 1)}, modulus,
                       f"heisenberg{ring}")


def sl2(modulus: int) -> LieAlgebra:
    """Basis (e, f, h) with [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    ring = "" if modulus == 0 else f"@Z/{modulus}"
    return lie_algebra([modulus] * 3,
                       {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)},
                       modulus, f"sl2{ring}")


def strictly_upper(size: int, modulus: int = 0) -> LieAlgebra:
    """Strictly upper triangular size x size matrices, basis E_ij (i < j)."""
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    index = {p: k for k, p in enumerate(pairs)}
    nn = len(pairs)
    brackets = {}
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if a >= b:
                continue
            vec = [0] * nn
            if j == k:
                vec[index[(i, l)]] += 1
            if l == i:
                vec[index[(k, j)]] -= 1
            if any(vec):
                brackets[(a, b)] = tuple(vec)
    ring = "" if modulus == 0 else f"@Z/{modulus}"
    return lie_algebra([modulus] * nn, brackets, modulus, f"n{size}{ring}")


def zero_algebra() -> LieAlgebra:
    return lie_algebra([], {}, 0, "zero")


_BUILDERS = {
    "zero": zero_algebra,
    "Z": lambda: abelian([0], 0, "Z"),
    "Z^2": lambda: abelian([0, 0], 0, "Z^2"),
    "Z/2": lambda: abelian([2], 0, "Z/2"),
    "Z/3": lambda: abelian([3], 0, "Z/3"),
    "Z/6": lambda: abelian([6], 0, "Z/6"),
    "(Z/4)^2": lambda: abelian([4, 4], 0, "(Z/4)^2"),
    "Z+Z/2": lambda: abelian([0, 2], 0, "Z+Z/2"),
    "heisenberg": heisenberg,
    "heisenberg@Z/2": lambda: heisenberg(2),
    "n3": heisenberg,
    "n4": lambda: strictly_upper(4),
    "sl2@Z/5": lambda: sl2(5),
    "sl2@Z/7": lambda: sl2(7),
}

# the named entries swept by `lieq verify catalog` and the acceptance suite
DEFAULT_CATALOG = (
    "zero", "Z", "Z^2", "Z/2", "Z/3", "Z/6", "(Z/4)^2", "Z+Z/2",
    "heisenberg", "heisenberg@Z/2", "n4", "sl2@Z/5", "sl2@Z/7",
)

_cache: dict = {}


class Catalog:
    """Named example algebras; instances are cached and immutable."""

    @staticmethod
    def names() -> list:
        return sorted(_BUILDERS)

    @staticmethod
    def get(name: str) -> LieAlgebra:
        if name not in _BUILDERS:
            raise KeyError(f"unknown catalog entry {name!r}; "
                           f"known: {', '.join(sorted(_BUILDERS))}")
        if name not in _cache:
            _cache[name] = _BUILDERS[name]()
        return _cache[name]

    @staticmethod
    def default_entries() -> list:
        return [(name, Catalog.get(name)) for name in DEFAULT_CATALOG]


def resolve_input(spec: str) -> LieAlgebra:
    """``catalog:<name>`` or a path to an algebra file."""
    if spec.startswith("catalog:"):
        return Catalog.get(spec.split(":", 1)[1])
    return load(spec)


# ---------------------------------------------------------------------------
# reports

def report_json(report) -> str:
    """Deterministic JSON text for any report with ``to_json_dict``."""
    return json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"


def write_report(report, path) -> None:
    """Persist a report; byte-identical across runs on identical input."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_json(report))


__all__ = [
    "parse", "serialize", "load", "resolve_input", "report_json",
    "write_report", "Catalog", "DEFAULT_CATALOG", "abelian", "heisenberg",
    "sl2", "strictly_upper", "zero_algebra", "direct_sum_algebras",
]
