"""Lie algebras over Z and Z/m as structure constants on a presented module.

An algebra is stored on the canonical (pruned, diagonal) basis of its
underlying module; arbitrary input presentations are brought to that form at
construction and the structure constants transported through the basis
change. Structure constants -- of a bracket and of an action -- are sparse
(k, c) term rows; dense vectors appear only at ``lie_algebra``'s input, in
``bracket`` queries and in the ``table`` view. Every algebraic identity --
Jacobi, torsion compatibility, action axioms, crossed-module conditions -- is
checked modulo the relation lattice, which is where the identities live for a
finitely presented module.

Certification follows one rule, proved here once. The lattice checks come
first: a bracket sends lattice rows into the lattice (closure), a
homomorphism sends the source lattice into the target lattice, and an action
sends the lattice rows of either side into the acted lattice. Every map an
identity is built from then descends to the presented modules, so each
identity -- Jacobi, bracket preservation, the action axioms, equivariance,
Peiffer -- is a multilinear map on them: linear in each acted argument, and
in the lattice once one argument is. Such a map vanishes when it vanishes on
all tuples from a generating set, and ``FpModule.spanning_generators`` (every
generator but the unit pivots of the reduced lattice rows) is one, so each
identity is walked on those generators only. Where the map D is alternating
in two arguments (D(x, x) = 0, so D(y, x) = -D(x, y)), increasing pairs
suffice: Jacobi in all three, bracket preservation, and each action axiom in
its two like arguments. The Peiffer identity mu(h).h' = [h, h'] is not
alternating, so it walks every ordered pair, the diagonal included. Inputs
must be certified: the algebras and products an identity brackets in are
closed, and a crossed module's mu is a ``LieHom``. Without the lattice checks
the walks prove nothing, so a report lists those failures and is not ok.

Each walk then visits only the tuples whose sum has a term (the support
rule). Every part of an identity chains structure constants -- bracket rows,
images, action constants -- and has a term only where each constant it
chains is nonzero: [[x, y], z] needs z to bracket nontrivially with some k in
the support of [x, y]. So a walk enumerates its tuples from the nonzero
structure it reads: the neighbours of each generator (``BracketLookup``),
the supports of images and constants, and the rows, images or constants
whose support holds a given index. Off those tuples the sum is empty, the
zero vector, and is never tested; each walk names the parts it reads, and
``jacobi_defects`` proves its enumeration complete. The action's two lattice
checks follow the rule too: a lattice row r of the actor meets only the
acted generators that some e_i, i in the support of r, moves, and a lattice
row of the acted object only the actors that move some generator in its
support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Optional, Sequence

from lieq.errors import NotAnIdeal, ValidationError
from lieq.exactlin import (
    FpModule,
    ModuleHom,
    Submodule,
    add_terms,
    block_kernel,
    dense,
    lambda_q_modulus,
    merged,
    quotient,
    ring_name,
    terms,
    unit_vec,
    vec_scale,
    vec_sub,
)


# ---------------------------------------------------------------------------
# validation reports

@dataclass(frozen=True)
class ValidationIssue:
    kind: str        # "jacobi" | "torsion" | "action" | "crossed-i" | ...
    where: tuple     # offending generator indices
    witness: tuple   # vector that failed to lie in the lattice

    def __str__(self):
        return f"{self.kind}{self.where}: witness {self.witness}"


@dataclass
class ValidationReport:
    subject: str
    issues: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, kind, where, witness):
        self.issues.append(ValidationIssue(kind, tuple(where), tuple(witness)))

    def __str__(self):
        if self.ok:
            return f"{self.subject}: ok"
        head = "; ".join(str(i) for i in self.issues[:3])
        more = "" if len(self.issues) <= 3 else f" (+{len(self.issues) - 3} more)"
        return f"{self.subject}: {head}{more}"


# ---------------------------------------------------------------------------
# sparse bracket rows
#
# A bracket on generators 0..n-1 is stored as ``{(s, t): ((k, c), ...)}`` for
# s < t with [s, t] nonzero, each row listing the nonzero coefficients c of
# [s, t] by increasing k. Algebras and products share this representation and
# the expansion and certification below.

def _checked_rows(rows: dict, n: int) -> dict:
    """Bracket rows on n generators, each merged, empty rows dropped.

    Keys (i, j) need 0 <= i < j < n and every term index k needs 0 <= k < n,
    even where its coefficient is 0; anything else raises ``ValueError``.
    Repeated indices are summed. The result lists its keys in sorted order.
    """
    out = {}
    for (i, j) in sorted(rows):
        if not 0 <= i < j < n:
            raise ValueError(f"bracket row ({i}, {j}) needs 0 <= i < j < {n}")
        row = tuple(rows[(i, j)])
        if any(not 0 <= k < n for k, _ in row):
            raise ValueError(f"bracket row ({i}, {j}) has a term index outside [0, {n})")
        row = merged(row)
        if row:
            out[(i, j)] = row
    return out


_NO_BRACKETS = MappingProxyType({})


class BracketLookup:
    """[s, t] of two generators as sparse terms, read off bracket rows.

    ``bracket_lookup`` builds one per algebra or product, and the holder
    keeps it. ``brackets_of(s)`` maps each generator t with [s, t] nonzero to
    [s, t], the row of (s, t) or, for s > t, that of (t, s) negated; its keys
    are the neighbours of s, which every certification walk reads. The
    lookup pickles, so algebras and products holding it do too.
    """

    def __init__(self, rows: dict):
        at = {}
        for (s, t), row in rows.items():
            at.setdefault(s, {})[t] = row
            at.setdefault(t, {})[s] = tuple((k, -c) for k, c in row)
        self._at = at

    def __call__(self, s: int, t: int) -> tuple:
        return self._at.get(s, _NO_BRACKETS).get(t, ())

    def brackets_of(self, s: int):
        """{t: [s, t]} over the generators t with [s, t] nonzero."""
        return self._at.get(s, _NO_BRACKETS)


def bracket_lookup(rows: dict) -> BracketLookup:
    """The ``bracket_sym`` of sparse rows: (s, t) -> [s, t] as sparse terms."""
    return BracketLookup(rows)


def add_bracket(acc: dict, c: int, bracket_sym, u, v) -> None:
    """acc += c * [u, v] for sparse terms u and v; ``bracket_sym(s, t)`` gives
    [s, t] of two generators as sparse terms."""
    for s, a in u:
        for t, b in v:
            add_terms(acc, c * a * b, bracket_sym(s, t))


def bracket_terms(bracket_sym, u, v) -> tuple:
    """[u, v] of sparse terms u and v as merged sparse terms."""
    acc = {}
    add_bracket(acc, 1, bracket_sym, u, v)
    return merged(acc.items())


def _holders(items) -> dict:
    """{k: [key, ...]} over the (key, term row) items: for each index k, the
    keys whose row has k in its support, in item order."""
    out = {}
    for key, row in items:
        for k, _ in row:
            out.setdefault(k, []).append(key)
    return out


def _moved(constants) -> list:
    """Per actor generator i, the set of acted generators j with e_i.h_j != 0."""
    return [{j for j, c in enumerate(row) if c} for row in constants]


def closure_defects(module: FpModule, br) -> list:
    """((r, s), witness) for lattice rows r and generators s with [r, s] outside.

    ``br`` is the ``bracket_lookup`` of the bracket rows, which the caller
    keeps.
    [r, s] can be nonzero only for generators s bracketing nontrivially with
    some generator in the support of r; those are visited in increasing order.
    """
    nbrs = br.brackets_of
    out = []
    for r in module.lattice_rows:
        for s in sorted({s for u, _ in r for s in nbrs(u)}):
            acc = {}
            add_bracket(acc, 1, br, r, ((s, 1),))
            w = module.witness(acc)
            if w is not None:
                out.append(((dense(r, module.ambient_rank), s), w))
    return out


def jacobi_defects(module: FpModule, rows: dict, br) -> list:
    """((s, t, r), witness) for Jacobi failures modulo the lattice.

    ``br`` is the ``bracket_lookup`` of ``rows``, which the caller keeps.
    s < t < r run over the module's spanning generators, which certifies the
    identity once ``closure_defects`` is empty (the module docstring says
    why): the Jacobi sum is alternating, since with [x, x] = 0 it reads
    [[x, z], x] + [[z, x], x] = 0 on (x, x, z), and invariant under cyclic
    shifts. Triples are visited on the support, by the module docstring's
    rule, in lexicographic order.

    Why no skipped triple fails. The sum is
    [[s, t], r] + [[t, r], s] - [[s, r], t], and each part [[x, y], z] is the
    sum of c [k, z] over the terms (k, c) of [x, y]. So it has a term only if
    z is in reach(x, y), the union of nbrs(k) over the support of [x, y]
    (empty when [x, y] = 0), nbrs(k) being the generators with a nonzero
    bracket with k. A triple with a term is therefore sorted(x, y, z) for a
    nonzero row (x, y) and some z in reach(x, y) other than x and y: z = r
    for the first part, z = s for the second, z = t for the third. For each
    least index s the walk collects those triples: z beyond s in the reach
    of each row (s, y), and each row (x, y) with s < x whose support meets
    nbrs(s), that is, with s in its reach. Every other triple's sum is the
    empty sum, the zero vector, so it has no witness. Only the pairs
    completing one s are held at a time.
    """
    gens = module.spanning_generators()
    keep = set(gens)
    nbrs = br.brackets_of
    holders = _holders(rows.items())
    out = []
    for s in gens:
        pairs = set()
        for y, row in nbrs(s).items():
            if y > s and y in keep:
                for z in set().union(*(nbrs(k) for k, _ in row)):
                    if z > s and z != y and z in keep:
                        pairs.add((y, z) if y < z else (z, y))
        for k in nbrs(s):
            for x, y in holders.get(k, ()):
                if x > s and x in keep and y in keep:
                    pairs.add((x, y))
        for t, r in sorted(pairs):
            acc = {}
            # [[s,t],r] + [[t,r],s] - [[s,r],t], each [x, z] read as a
            # signed row of br
            for row, z, sign in ((rows.get((s, t), ()), r, 1),
                                 (rows.get((t, r), ()), s, 1),
                                 (rows.get((s, r), ()), t, -1)):
                for k, c in row:
                    add_terms(acc, sign * c, br(k, z))
            w = module.witness(acc)
            if w is not None:
                out.append(((s, t, r), w))
    return out


def _certify(module: FpModule, rows: dict, br, subject: str) -> ValidationReport:
    """Torsion compatibility, then Jacobi, modulo the relation lattice.

    ``br`` is the ``bracket_lookup`` of ``rows``, which the caller keeps.
    """
    report = ValidationReport(subject)
    for where, w in closure_defects(module, br):
        report.add("torsion", where, w)
    for where, w in jacobi_defects(module, rows, br):
        report.add("jacobi", where, w)
    return report


class LieAlgebra:
    """Structure constants on the canonical basis of a presented module.

    ``rows`` maps (i, j), i < j, to [e_i, e_j] as sparse (k, c) terms, the
    representation ``QProduct`` uses, certified by the same closure and
    Jacobi walks; absent pairs bracket to zero. Only i < j is stored, so the
    bracket is alternating by construction (as required over rings where 2
    is not invertible). The rows are merged and checked by ``_checked_rows``
    and are all the algebra stores. ``lookup`` is the ``bracket_lookup`` of
    those rows when the caller already holds one.
    """

    def __init__(self, module: FpModule, rows: dict, name: str = "g",
                 check: bool = True, lookup=None):
        n = module.ambient_rank
        # Downstream code reads ambient coordinates as canonical ones: orders[i]
        # must kill e_i, so the lattice must be spanned by the rows d_i * e_i.
        # Lattice rows are the reduced Hermite form, unique for the lattice,
        # so any presentation of that lattice gives exactly those rows.
        diagonal_rows = tuple(((i, d),) for i, d in enumerate(module.orders) if d)
        if module.orders != module.invariant_factors \
                or module.lattice_rows != diagonal_rows:
            raise ValueError("LieAlgebra module must be in pruned diagonal form")
        self.module = module
        self.name = name
        self._br = _checked_rows(rows, n)
        self._sym = bracket_lookup(self._br) if lookup is None else lookup
        self._memo = {}
        if check:
            report = _certify(self.module, self._br, self._sym, name)
            if not report.ok:
                raise ValidationError(report)

    def cached(self, key, build):
        """``build()``, made once per key and kept in the algebra's one memo.

        No other code reads or writes the memo. Keys: ``"whole"`` (g as an
        ideal of itself), ``(kind, q)`` (the whole-algebra products),
        ``"q-free"`` (the half those products share: the Hermite form of
        their q-free relation families and their pure bracket rows),
        ``(kind, q, brace)`` (their centers) and ``("hash", q)`` (g #_q g);
        nothing over a proper ideal is kept.
        """
        obj = self._memo.get(key)
        if obj is None:
            obj = self._memo[key] = build()
        return obj

    # -- structure ----------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.module.ambient_rank

    @property
    def orders(self) -> tuple:
        return self.module.invariant_factors

    @property
    def base_modulus(self) -> int:
        return self.module.base_modulus

    @property
    def table(self) -> tuple:
        """The dense n by n table of [e_i, e_j], built from the rows on each read."""
        n = self.rank
        return tuple(tuple(dense(self._sym(i, j), n) for j in range(n))
                     for i in range(n))

    def bracket(self, u: Sequence[int], v: Sequence[int]) -> tuple:
        return dense(bracket_terms(self.bracket_sym, terms(u), terms(v)), self.rank)

    def bracket_sym(self, i: int, j: int) -> tuple:
        """[e_i, e_j] as sparse (k, c) terms, like ``QProduct.bracket_sym``."""
        return self._sym(i, j)

    def is_abelian(self) -> bool:
        return all(self.module.is_lattice_sum(row) for row in self._br.values())

    def generator_names(self) -> list:
        return [f"e{i + 1}" for i in range(self.rank)]

    def __repr__(self):
        return (f"LieAlgebra({self.name!r}, factors={list(self.orders)}, "
                f"over {ring_name(self.base_modulus)})")


def _transport(module0: FpModule, rows0: dict, br, name: str):
    """Certify bracket rows on a presentation, then move them to its pruned
    canonical basis.

    ``rows0`` are ``_checked_rows`` on the ambient generators of ``module0``
    and ``br`` their ``bracket_lookup``, kept by the algebra when its rows
    come out unchanged. Closure and Jacobi are certified on ``module0``, so a
    ``ValidationError``'s witness is in its coordinates. Transport through a
    module isomorphism keeps both, so the new algebra, whose row (a, b) is
    ``canon`` of [lift_a, lift_b], is built unchecked. Returns (algebra,
    projection_rows, lifts): projection_rows express the old ambient
    generators in new coordinates, as term rows that ``LieHom`` takes; lifts
    are the term rows of ``canonical_basis``, ambient elements representing
    the new generators.
    """
    report = _certify(module0, rows0, br, name)
    if not report.ok:
        raise ValidationError(report)
    k = module0.rank
    lifts = module0.canonical_basis()
    rows = {}
    for a in range(k):
        for b in range(a + 1, k):
            w = module0.canon(bracket_terms(br, lifts[a], lifts[b]))
            if w:
                rows[(a, b)] = w
    module = FpModule.diagonal(module0.invariant_factors, module0.base_modulus)
    alg = LieAlgebra(module, rows, name, check=False,
                     lookup=br if rows == rows0 else None)
    proj_rows = [module0.canon(((i, 1),)) for i in range(module0.ambient_rank)]
    return alg, proj_rows, lifts


def from_module_data(module0: FpModule, rows0: dict, name: str = "g") -> LieAlgebra:
    """Validate bracket rows on an arbitrary presentation, then canonize.

    ``rows0`` follows ``LieAlgebra``'s row contract on the ambient generators
    of ``module0``: ``_checked_rows`` merges them, ``_transport`` does the rest.
    """
    rows0 = _checked_rows(rows0, module0.ambient_rank)
    alg, _, _ = _transport(module0, rows0, bracket_lookup(rows0), name)
    return alg


def lie_algebra(orders: Sequence[int], brackets: Optional[dict] = None,
                modulus: int = 0, name: str = "g") -> LieAlgebra:
    """Build an algebra from per-generator orders and dense bracket vectors.

    ``brackets`` maps index pairs (i, j) to the length-n coordinate vector of
    [e_i, e_j]; (j, i) stands for the negated vector on (i, j).
    Unspecified brackets are zero. A pair on the diagonal or outside
    [0, n), an unordered pair given twice, or a vector whose length is not n
    raises ``ValueError``. This is the one dense input: each vector becomes
    a term row here.
    """
    n = len(orders)
    rows = {}
    for (i, j), vec in (brackets or {}).items():
        if i == j:
            raise ValueError("diagonal bracket must vanish")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"bracket pair ({i}, {j}) outside [0, {n})")
        if len(vec) != n:
            raise ValueError(f"bracket ({i}, {j}) has length {len(vec)}, not {n}")
        key, sign = ((i, j), 1) if i < j else ((j, i), -1)
        if key in rows:
            raise ValueError(f"bracket pair {key} given twice")
        rows[key] = tuple((k, sign * int(c)) for k, c in enumerate(vec) if c)
    return from_module_data(FpModule.diagonal(orders, modulus), rows, name)


def validate(g: LieAlgebra) -> ValidationReport:
    """Re-run the structure checks on a built algebra."""
    return _certify(g.module, g._br, g._sym, g.name)


# ---------------------------------------------------------------------------
# centers

def _adjoint_kernel(g: LieAlgebra, q: Optional[int] = None) -> Submodule:
    """Kernel of x -> ([x, e_1], ..., [x, e_n] [, q x])."""
    n = g.rank
    blocks = [(g.module, [g.bracket_sym(a, j) for a in range(n)]) for j in range(n)]
    if q is not None:
        blocks.append((g.module, [((a, q),) for a in range(n)]))
    return block_kernel(g.module, blocks)


def center(g: LieAlgebra) -> Submodule:
    """Elements bracketing to zero with the whole algebra."""
    return _adjoint_kernel(g)


def q_center(g: LieAlgebra, q: int) -> Submodule:
    """Central elements additionally annihilated by q."""
    return _adjoint_kernel(g, q)


# ---------------------------------------------------------------------------
# ideals

class Ideal:
    """A bracket-closed submodule with precomputed induced coordinates.

    ``basis`` lists the term rows of the chosen generating basis b_1..b_p
    (diagonal orders). ``be[i][j]`` holds [b_i, e_j] in parent coordinates,
    computed here once for ``hash_rows`` and the product builder to read;
    ``gb[j][i]`` holds [e_j, b_i] and ``bb[i][k]`` holds [b_i, b_k], as the
    terms in ideal coordinates that ``coords`` returns. Construction fails
    loudly when closure does not hold.
    """

    def __init__(self, parent: LieAlgebra, sub: Submodule):
        if sub.ambient is not parent.module:
            raise ValueError("submodule does not live in the parent's module")
        self.parent = parent
        self.sub = sub
        self.basis = sub.basis_rows()
        self.orders = tuple(sub.invariant_factors)
        p = len(self.basis)
        n = parent.rank
        self.be = [[bracket_terms(parent.bracket_sym, b, ((j, 1),)) for j in range(n)]
                   for b in self.basis]
        self.gb = [[None] * p for _ in range(n)]
        for j in range(n):
            for i in range(p):
                w = tuple((k, -c) for k, c in self.be[i][j])
                coords = sub.solve(w)
                if coords is None:
                    raise NotAnIdeal(f"[e{j + 1}, b{i + 1}] = {dense(w, n)} "
                                     "falls outside the submodule")
                self.gb[j][i] = coords
        # [b_i, b_k] lies in the span of the [e_j, b_k], so solve finds it
        self.bb = [[()] * p for _ in range(p)]
        for i in range(p):
            for k in range(i + 1, p):
                row = sub.solve(bracket_terms(parent.bracket_sym, self.basis[i],
                                              self.basis[k]))
                self.bb[i][k] = row
                self.bb[k][i] = tuple((t, -x) for t, x in row)

    @classmethod
    def whole(cls, g: LieAlgebra) -> "Ideal":
        """g as an ideal of itself, built once and kept in g's memo."""
        return g.cached("whole", lambda: cls(g, Submodule.full(g.module)))

    @property
    def p(self) -> int:
        return len(self.basis)

    def coords(self, v) -> Optional[tuple]:
        return self.sub.solve(v)

    def __repr__(self):
        return f"Ideal(factors={list(self.orders)} of {self.parent.name!r})"


def ideal_from_gens(g: LieAlgebra, gens) -> Ideal:
    """The ideal spanned by ``gens``, sparse (k, c) term rows of g.

    Raises ``NotAnIdeal`` when the span is not bracket-closed with g.
    """
    return Ideal(g, Submodule(g.module, gens))


def hash_rows(g: LieAlgebra, h: Ideal, q: int) -> list:
    """Term rows generating h #_q g, in the product's symbol order.

    The rows [b_i, e_j] for every basis vector b_i of the ideal h of g and
    generator e_j of g, i major, read from ``h.be``, then q b_i for each i
    when q >= 1: the images of the symbols b_i(x)e_j and {b_i} under xi.
    """
    rows = [row for be_i in h.be for row in be_i]
    if q >= 1:
        rows += [tuple((k, q * c) for k, c in b) for b in h.basis]
    return rows


def hash_product(g: LieAlgebra, h: Optional[Ideal], q: int) -> Ideal:
    """The ideal generated by all [h, g] brackets and all q-multiples of h.

    The image of both product-to-algebra homomorphisms lands here; for
    h = g and q = 0 this is the derived subalgebra. The whole-algebra ones
    (h None) are memoized on g; those over a proper ideal are built anew.
    """
    if h is not None:
        return Ideal(g, Submodule(g.module, hash_rows(g, h, q)))
    return g.cached(("hash", q), lambda: hash_product(g, Ideal.whole(g), q))


def derived_ideal(g: LieAlgebra) -> Ideal:
    return hash_product(g, None, 0)


def q_abelianization(g: LieAlgebra, q: int):
    """(g / (g #_q g) as a module, k) for k the characteristic of (base ring)/q.

    Its freeness over Z/k, ``is_free_over(*q_abelianization(g, q))``, is the
    hypothesis of the gamma-sequence injectivity, the split form of the
    tensor square and the coincidence of the tensor and exterior centers.
    """
    base, _ = quotient(g.module, hash_product(g, None, q).sub)
    return base, lambda_q_modulus(g.base_modulus, q)


def is_q_perfect(g: LieAlgebra, q: int) -> bool:
    return hash_product(g, None, q).sub.contains(Submodule.full(g.module))


def quotient_algebra(g: LieAlgebra, h: Ideal):
    """Quotient by an ideal; returns (algebra, projection LieHom)."""
    if h.parent is not g:
        raise NotAnIdeal("ideal does not belong to this algebra")
    module0, _ = quotient(g.module, h.sub)
    alg, proj_rows, lifts = _transport(module0, g._br, g._sym, f"{g.name}/h")
    hom = LieHom(g, alg, proj_rows)
    hom.section_vectors = lifts
    return alg, hom


# ---------------------------------------------------------------------------
# homomorphisms of algebras

class LieHom:
    """Bracket-preserving ModuleHom between bracketed objects.

    Source and target are algebras or symbol-presented products: the walk
    reads their ``.module``, ``.bracket_sym`` and the ``BracketLookup``
    ``_sym`` both keep. ``images`` holds one sparse (k, c) term row
    per source generator, as ``ModuleHom`` takes them. The module map and the
    bracket are checked at construction, on sparse terms.
    """

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.hom = ModuleHom(source.module, target.module, images)
        self.section_vectors = None
        bad = self.bracket_defects()
        if bad:
            report = ValidationReport("LieHom")
            report.add("bracket", *bad[0])
            raise ValidationError(report)

    def __call__(self, v):
        return self.hom(v)

    def bracket_defects(self) -> list:
        """((i, j), witness) where hom([e_i, e_j]) - [hom e_i, hom e_j] escapes.

        i < j run over the source module's spanning generators, which
        certifies the bracket (the module docstring says why): the module map
        is checked first, and the difference of the two sides is alternating.
        By the support rule a pair is visited only when some k in the support
        of [e_i, e_j] has a nonzero image, or some generators u and v in the
        supports of the two images have [u, v] nonzero, in lexicographic order.
        """
        source, target = self.source, self.target
        images = self.hom.images
        gens = source.module.spanning_generators()
        keep = set(gens)
        tnbrs = target._sym.brackets_of
        holders = _holders(enumerate(images))  # v -> the j with v in hom(e_j)
        out = []
        for i in gens:
            img_i = images[i]
            near = {j for j, bij in source._sym.brackets_of(i).items()
                    if j > i and any(images[k] for k, _ in bij)}
            near.update(j for u, _ in img_i for v in tnbrs(u)
                        for j in holders.get(v, ()) if j > i)
            for j in sorted(near & keep):
                bij, img_j = source.bracket_sym(i, j), images[j]
                acc = {}
                for k, c in bij:
                    add_terms(acc, c, images[k])
                add_bracket(acc, -1, target.bracket_sym, img_i, img_j)
                w = target.module.witness(acc)
                if w is not None:
                    out.append(((i, j), w))
        return out

    def kernel(self) -> Submodule:
        return self.hom.kernel()

    def image(self) -> Submodule:
        return self.hom.image()


# ---------------------------------------------------------------------------
# actions and crossed modules

class LieAction:
    """A left action of an algebra on a bracketed module object.

    ``constants[i][j]`` is e_i acting on the j-th generator of the acted
    object, given as sparse (k, c) terms: a repeated k is summed, a zero c is
    allowed, and an index k outside the acted rank raises ``ValueError``.
    Each constant is stored merged: the nonzero acted coordinates c by
    increasing k. The acted object is an algebra or a product, like
    ``LieHom``'s source; the walks also read its rows ``_br``.

    Building one checks only the shape and the term indices. ``validate``,
    the action part of a ``QCrossedModule``'s certification, needs a
    certified actor and acted object (an algebra, or a product checked when
    built). It checks both relation lattices on every lattice row, then walks
    the axioms with acted generators among the acted module's spanning
    generators (the module docstring says why). The lattice checks and the
    axiom walks visit only the tuples whose sum has a term, by the module
    docstring's support rule, and build a dense witness only for a defect.
    """

    def __init__(self, actor: LieAlgebra, acted, constants):
        self.actor = actor
        self.acted = acted
        nh = acted.module.ambient_rank
        rows = [[tuple(c) for c in row] for row in constants]
        if len(rows) != actor.rank or any(len(row) != nh for row in rows):
            raise ValueError("action constants must be actor rank by acted rank")
        if any(not 0 <= k < nh for row in rows for c in row for k, _ in c):
            raise ValueError("action constant index out of range")
        self.constants = tuple(tuple(merged(c) for c in row) for row in rows)

    def act(self, gvec: Sequence[int], hvec: Sequence[int]) -> tuple:
        acc = [0] * self.acted.module.ambient_rank
        hterms = terms(hvec)
        for i, ci in enumerate(gvec):
            if not ci:
                continue
            row = self.constants[i]
            for j, cj in hterms:
                c = ci * cj
                for k, x in row[j]:
                    acc[k] += c * x
        return tuple(acc)

    def validate(self) -> ValidationReport:
        """Both relation lattices are respected, and the two action axioms."""
        report = ValidationReport("LieAction")
        g, hmod = self.actor, self.acted.module
        n = g.rank
        nh = hmod.ambient_rank
        keep = set(hmod.spanning_generators())
        C = self.constants
        moved = _moved(C)
        # r.h_j: a term needs h_j moved by some e_i, i in the support of r
        for r in g.module.lattice_rows:
            for j in sorted(set().union(*(moved[i] for i, _ in r))):
                acc = {}
                for i, ci in r:
                    add_terms(acc, ci, C[i][j])
                w = hmod.witness(acc)
                if w is not None:
                    report.add("action-actor-relations", (dense(r, n), j), w)
        # e_i.s: a term needs e_i to move some h_j, j in the support of s
        movers = _holders((i, ((j, 1) for j in js)) for i, js in enumerate(moved))
        for s in hmod.lattice_rows:
            for i in sorted({i for j, _ in s for i in movers.get(j, ())}):
                acc = {}
                for j, cj in s:
                    add_terms(acc, cj, C[i][j])
                w = hmod.witness(acc)
                if w is not None:
                    report.add("action-acted-relations", (i, dense(s, nh)), w)
        # [e_i, e_k].h_j - e_i.(e_k.h_j) + e_k.(e_i.h_j): a term needs h_j
        # moved by some e_m, m in the support of [e_i, e_k], or e_k.h_j
        # moved by e_i, or e_i.h_j moved by e_k
        pre = [_holders(enumerate(row)) for row in C]  # l -> the j with l in e_i.h_j
        for i in range(n):
            for k in range(i + 1, n):
                bik = g.bracket_sym(i, k)
                near = set().union(*(moved[m] for m, _ in bik))
                near.update(j for l in moved[i] for j in pre[k].get(l, ()))
                near.update(j for l in moved[k] for j in pre[i].get(l, ()))
                for j in sorted(near & keep):
                    cij, ckj = C[i][j], C[k][j]
                    acc = {}
                    for m, c in bik:
                        add_terms(acc, c, C[m][j])
                    for l, c in ckj:
                        add_terms(acc, -c, C[i][l])
                    for l, c in cij:
                        add_terms(acc, c, C[k][l])
                    w = hmod.witness(acc)
                    if w is not None:
                        report.add("action-axiom-1", (i, k, j), w)
        # e_i.[h_j, h_l] - [e_i.h_j, h_l] - [h_j, e_i.h_l]: a term needs e_i
        # to move a generator in the support of [h_j, h_l], or l to bracket
        # with the support of e_i.h_j, or j with that of e_i.h_l
        br = self.acted.bracket_sym
        nbrs = self.acted._sym.brackets_of
        holders = _holders(self.acted._br.items())  # m -> the (j, l) with m in [h_j, h_l]
        for i in range(n):
            ci = C[i]
            pairs = {jl for m in moved[i] for jl in holders.get(m, ())}
            for x in moved[i]:
                for u, _ in ci[x]:
                    pairs.update((x, y) if x < y else (y, x)
                                 for y in nbrs(u) if y != x)
            for j, l in sorted(jl for jl in pairs if keep.issuperset(jl)):
                bjl, cij, cil = br(j, l), ci[j], ci[l]
                acc = {}
                for m, c in bjl:
                    add_terms(acc, c, ci[m])
                add_bracket(acc, -1, br, cij, ((l, 1),))
                add_bracket(acc, -1, br, ((j, 1),), cil)
                w = hmod.witness(acc)
                if w is not None:
                    report.add("action-axiom-2", (i, j, l), w)
        return report


class QCrossedModule:
    """A homomorphism with compatible action whose kernel is q-torsion,
    certified once, when built, by ``validate_q_crossed``."""

    def __init__(self, mu: LieHom, action: LieAction, q: int):
        report = validate_q_crossed(mu, action, q)
        if not report.ok:
            raise ValidationError(report)
        self.mu = mu
        self.action = action
        self.q = int(q)


def validate_q_crossed(mu: LieHom, action: LieAction, q: int) -> ValidationReport:
    """The action's issues, then equivariance, the Peiffer identity and
    q-torsion of the kernel; ``QCrossedModule`` raises unless it is ok.

    The action must act on mu's source by mu's target, else ``ValueError``.
    The actor and the acted object must be certified and ``mu`` a ``LieHom``;
    equivariance then walks the acted spanning generators and the Peiffer
    identity every ordered pair of them, as the module docstring sets out.
    """
    if action.actor is not mu.target or action.acted is not mu.source:
        raise ValueError("the action must act on mu's source by mu's target")
    report = ValidationReport("QCrossedModule")
    report.issues.extend(action.validate().issues)
    g = action.actor
    acted = action.acted
    C = action.constants
    n = g.rank
    nh = acted.module.ambient_rank
    gens = acted.module.spanning_generators()
    keep = set(gens)
    images = mu.hom.images  # mu(h_j), sparse
    moved = _moved(C)
    # mu(e_i.h_j) - [e_i, mu(h_j)]: a term needs e_i.h_j to have a support
    # index with a nonzero image, or mu(h_j) a neighbour of e_i in its support
    holders = _holders(enumerate(images))  # t -> the j with t in mu(h_j)
    for i in range(n):
        ci = C[i]
        near = {j for j in moved[i] if any(images[k] for k, _ in ci[j])}
        near.update(j for t in g._sym.brackets_of(i) for j in holders.get(t, ()))
        for j in sorted(near & keep):
            acc = {}
            for k, c in ci[j]:
                add_terms(acc, c, images[k])
            add_bracket(acc, -1, g.bracket_sym, ((i, 1),), images[j])
            w = g.module.witness(acc)
            if w is not None:
                report.add("crossed-i", (i, j), w)
    # mu(h_j).h_l - [h_j, h_l]: a term needs h_l moved by some e_m, m in the
    # support of mu(h_j), or [h_j, h_l] nonzero
    nbrs = acted._sym.brackets_of
    for j in gens:
        mj = images[j]
        near = set(nbrs(j)).union(*(moved[m] for m, _ in mj))
        for l in sorted(near & keep):
            acc = {}
            for m, c in mj:
                add_terms(acc, c, C[m][l])
            add_terms(acc, -1, acted.bracket_sym(j, l))
            w = acted.module.witness(acc)
            if w is not None:
                report.add("crossed-ii", (j, l), w)
    for kgen in mu.kernel().gens:
        if not acted.module.is_lattice_sum((k, q * c) for k, c in kgen):
            kvec = dense(kgen, nh)
            report.add("crossed-iii", (kvec,), vec_scale(q, kvec))
    return report


# ---------------------------------------------------------------------------
# derivations

class DerivationAlgebra(LieAlgebra):
    """Derivations of an algebra, with the witnessing matrices attached."""

    def __init__(self, module, rows, matrices, sub, name, check=True):
        super().__init__(module, rows, name, check=check)
        self.matrices = matrices
        self.sub = sub


def _compose_matrices(d1, d2, n):
    """Matrix of x -> d1(d2(x)) for row-convention endomorphisms."""
    out = []
    for i in range(n):
        acc = [0] * n
        for j, c in enumerate(d2[i]):
            if c:
                for k, x in enumerate(d1[j]):
                    if x:
                        acc[k] += c * x
        out.append(tuple(acc))
    return tuple(out)


def derivations(m: LieAlgebra) -> DerivationAlgebra:
    """All lattice-preserving self-maps satisfying the Leibniz identity.

    Computed as a kernel inside the n^2-dimensional endomorphism module;
    the result carries the commutator bracket.
    """
    n = m.rank
    endo = FpModule.diagonal(list(m.orders) * n, m.base_modulus)
    # endo generator i*n + j is the e_j coefficient of D(e_i); one block per generator
    # (D(d_i e_i) = d_i D(e_i)) and per pair a < b (the Leibniz identity
    # D[e_a, e_b] - [D e_a, e_b] - [e_a, D e_b]), each image sparse
    blocks = [(m.module, [((j, m.orders[i]),) if i == b else ()
                          for i in range(n) for j in range(n)]) for b in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            cab = dict(m.bracket_sym(a, b))
            blocks.append((m.module, [
                [(j, cab.get(i, 0))]
                + ([(k, -x) for k, x in m.bracket_sym(j, b)] if i == a else [])
                + ([(k, -x) for k, x in m.bracket_sym(a, j)] if i == b else [])
                for i in range(n) for j in range(n)]))
    sub = block_kernel(endo, blocks)
    basis = sub.basis()
    mats = [tuple(tuple(b[i * n + j] for j in range(n)) for i in range(n))
            for b in basis]
    k = len(basis)
    rows = {}
    for s in range(k):
        for t in range(s + 1, k):
            comm = vec_sub(
                tuple(x for row in _compose_matrices(mats[s], mats[t], n) for x in row),
                tuple(x for row in _compose_matrices(mats[t], mats[s], n) for x in row))
            coords = sub.solve(terms(comm))
            if coords is None:
                raise ValidationError(ValidationReport(
                    "derivations", [ValidationIssue("commutator-closure", (s, t), comm)]))
            rows[(s, t)] = coords
    module = FpModule.diagonal(sub.invariant_factors, m.base_modulus)
    return DerivationAlgebra(module, rows, mats, sub, f"Der({m.name})")


def adjoint_matrix(m: LieAlgebra, v: Sequence[int]) -> tuple:
    """Row-convention matrix of x -> [v, x]."""
    n = m.rank
    return tuple(m.bracket(v, unit_vec(n, i)) for i in range(n))


def inner_q_derivations(m: LieAlgebra, q: int):
    """The quotient by the q-center, as the inner q-derivation algebra.

    Returns (algebra, crossed module): the projection m -> m/Z_q(m) carries
    the bracket action and is a q-crossed module; its kernel is exactly the
    q-center, making the evident short sequence exact.
    """
    zq = q_center(m, q)
    central = Ideal(m, zq)
    ider, proj = quotient_algebra(m, central)
    ider.name = f"IDer({m.name},{q})"
    lifts = proj.section_vectors
    n = m.rank
    # [lift, e_j] as sparse terms, straight from the bracket rows
    constants = [[[(k, c * x) for i, c in lift for k, x in m.bracket_sym(i, j)]
                  for j in range(n)] for lift in lifts]
    return ider, QCrossedModule(proj, LieAction(ider, m, constants), q)


# ---------------------------------------------------------------------------
# direct sums of algebras

def direct_sum_algebras(a: LieAlgebra, b: LieAlgebra, name=None) -> LieAlgebra:
    if a.base_modulus != b.base_modulus:
        raise ValueError("mixed base rings")
    na = a.rank
    rows = dict(a._br)
    rows.update(((na + i, na + j), tuple((na + k, c) for k, c in row))
                for (i, j), row in b._br.items())
    module = FpModule.diagonal(a.orders + b.orders, a.base_modulus)
    return from_module_data(module, rows, name or f"{a.name}+{b.name}")
