"""Non-abelian q-tensor and q-exterior products of a Lie algebra and an ideal.

The product of an algebra g (canonical generators e_1..e_n) and an ideal h
(generating basis b_1..b_p) is presented on p*n pure symbols b_i(x)e_j plus,
for q >= 1, p brace symbols {b_i}. The relation lattice instantiates six
defining families on generators only -- each family is multilinear, so the
finite instantiation spans the whole lattice; the brute-force oracle in
``testkit`` cross-checks this over small finite instances:

* slot-linearity: the module relations of h in the left slot, of g in the
  right slot, and of h on braces;
* the two mixed-bracket expansion families (bracket in the left slot, and a
  bracket in the right slot re-expressed through the ideal), instantiated
  only where some bracket in the instance is nonzero;
* the brace-of-a-bracket collapse {[b, e]} = q * (b(x)e);
* for the exterior kind, vanishing of b(x)b on the ideal diagonal together
  with its polarization;
* alternating closure: [b, e](x)[b, e] = 0.

Every relation and every bracket constant is a sparse term list, written
family by family with the two layout helpers below; no relation is ever a
dense row. Each term of a mixed-bracket instance carries one bracket of g or
of h, so an instance whose brackets all vanish has no terms and adds nothing
to the lattice. The builder never makes one: it walks the supports of the
bracket rows of g and of the ideal and emits, in family order, the instances
where some bracket is nonzero. The bracket constants are expanded on the
same supports, over the pairs where they can be nonzero.

Only the brace families read q, and only the diagonal family reads the
kind. Slot-linearity on both slots, the two mixed-bracket families and the
alternating closure live on the p*n pure symbols and are shared by every
(kind, q) square of g and h, as are the pure x pure bracket rows. They make
the q-free half (``_q_free_half``): those families reduced once to Hermite
form over the pure symbols, and the pure bracket rows. A square presents
that echelon followed by its own rows -- brace slot-linearity and the brace
collapse when q >= 1, the diagonal and its polarization for the exterior
kind -- so ``module.relations`` holds the echelon rows, then the square's
own. The whole-algebra squares share one half, kept in the algebra's memo;
over a proper ideal each product builds its own.

The Lie bracket on symbols follows the product formulas (pure*pure,
brace*pure, brace*brace), expanded bilinearly through structure constants;
consistency against the lattice is checked, not assumed, and failure raises.

The bracket constants are stored once, as sparse rows: each symbol pair with
a nonzero bracket maps to its nonzero (symbol, coefficient) terms. This is
the representation ``LieAlgebra`` keeps, and a product is certified by the
same walks in ``liealg`` that certify an algebra: bracket closure pairs each
lattice row with the neighbours of its support, Jacobi visits only the
triples sorted(x, y, z) of a nonzero row (x, y) and a symbol z bracketing
with its support (the ``liealg`` support rule: every other triple sums to
the zero vector), and sums are tested for lattice membership term by term, on the Smith coordinates
the terms touch (``FpModule.is_lattice_sum``), so no check builds a dense
vector until it has a witness to report. A product is certified once,
when it is built, and a defect raises ``BracketNotWellDefined`` with its
witness. After closure passes, the build walks Jacobi on triples of the
module's ``spanning_generators`` only (the symbols that are no unit pivot of
the reduced lattice rows); the ``liealg`` module docstring says why that
suffices. On validated algebras the families above have always been found
closed; the known defect comes from a non-Jacobi table built unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import gcd
from typing import Optional, Sequence

from lieq.errors import BracketNotWellDefined, NotAbelianInput
from lieq.exactlin import (
    FpModule,
    ModuleHom,
    Submodule,
    add_terms,
    dense,
    exterior_square_ab,
    hermite_lattice,
    is_free_over,
    lattice_intersection,
    merged,
    merged_factors,
    quotient,
    tensor_square_ab,
    terms,
)
from lieq.liealg import (
    Ideal,
    LieAction,
    LieAlgebra,
    LieHom,
    QCrossedModule,
    add_bracket,
    bracket_lookup,
    bracket_terms,
    closure_defects,
    hash_rows,
    jacobi_defects,
    q_abelianization,
    quotient_algebra,
)


# The symbol layout is written down once, in the two term builders below:
# b_i(x)e_j is symbol i*n + j, and {b_i} is symbol p*n + i.

def tensor_terms(n: int, hterms, gterms, c: int = 1) -> list:
    """c * (sum a_i b_i)(x)(sum x_j e_j) as sparse symbol terms."""
    return [(i * n + j, c * a * x) for i, a in hterms for j, x in gterms]


def brace_terms(p: int, n: int, hterms, c: int = 1) -> list:
    """c * {sum a_i b_i} as sparse symbol terms."""
    return [(p * n + i, c * a) for i, a in hterms]


def _unit(i: int) -> tuple:
    """The i-th generator as sparse terms."""
    return ((i, 1),)


class QProduct:
    """A q-tensor or q-exterior product with its symbol bookkeeping.

    The bracket is kept as sparse rows ``{(s, t): ((k, c), ...)}`` for
    symbols s < t with a nonzero bracket, each row listing the nonzero
    coefficients c of [s, t] by increasing symbol k, as ``LieAlgebra`` keeps
    its own. It is the only copy of the bracket constants; the expansion and
    the checks are the shared ones in ``liealg``, which walk these rows,
    never dense vectors.
    """

    def __init__(self, kind, q, algebra, ideal, module, brackets):
        self.kind = kind
        self.q = q
        self.algebra = algebra
        self.ideal = ideal
        self.module = module
        self.p = ideal.p
        self.n = algebra.rank
        self.has_braces = q >= 1
        self.nsym = module.ambient_rank
        self._br = brackets
        self._sym = bracket_lookup(brackets)
        self._xi = None

    # -- symbols --------------------------------------------------------

    def sym_pure(self, i: int, j: int) -> int:
        return tensor_terms(self.n, _unit(i), _unit(j))[0][0]

    def sym_brace(self, i: int) -> int:
        if not self.has_braces:
            raise ValueError("no brace symbols at q = 0")
        return brace_terms(self.p, self.n, _unit(i))[0][0]

    def symbol_names(self) -> list:
        mark = "⊗" if self.kind == "tensor" else "∧"
        names = [f"b{i + 1}{mark}e{j + 1}" for i in range(self.p)
                 for j in range(self.n)]
        if self.has_braces:
            names += [f"{{b{i + 1}}}" for i in range(self.p)]
        return names

    def pure_units(self) -> list:
        """The pure symbols b_i(x)e_j as ((s, 1),) term rows, in symbol order."""
        return [_unit(self.sym_pure(i, j)) for i in range(self.p) for j in range(self.n)]

    # -- bracket ------------------------------------------------------------

    def bracket_sym(self, s: int, t: int) -> tuple:
        """[s, t] of two symbols as sparse (k, c) terms; () when zero."""
        return self._sym(s, t)

    def bracket(self, u: Sequence[int], v: Sequence[int]) -> tuple:
        return dense(bracket_terms(self.bracket_sym, terms(u), terms(v)), self.nsym)

    def invariant_factors(self) -> tuple:
        return self.module.invariant_factors

    # -- induced maps ---------------------------------------------------------

    def xi(self) -> LieHom:
        """The homomorphism onto the parent sending b(x)e to [b, e], {b} to q b."""
        if self._xi is None:
            g = self.algebra
            self._xi = LieHom(self, g, hash_rows(g, self.ideal, self.q))
        return self._xi

    # -- validation ----------------------------------------------------------

    def bracket_closure_defects(self) -> list:
        """Brackets of lattice generators with symbols that escape the lattice."""
        return [w for _, w in closure_defects(self.module, self._sym)]

    def validate_bracket_well_defined(self):
        """Raise unless the bracket descends to the presented quotient."""
        defects = self.bracket_closure_defects()
        if defects:
            raise BracketNotWellDefined(
                f"bracket does not preserve the relation lattice: {defects[0]}")

    def jacobi_defects(self) -> list:
        """((s, t, r), witness) for each Jacobi failure (expected: none).

        The walk of ``liealg.jacobi_defects``, on triples of the module's
        spanning generators; it certifies Jacobi once closure holds.
        """
        return jacobi_defects(self.module, self._br, self._sym)

    def __repr__(self):
        return (f"QProduct({self.kind}, q={self.q}, of {self.algebra.name!r}, "
                f"factors={list(self.invariant_factors())})")


@dataclass(frozen=True)
class _QFreeHalf:
    """The part of a product of g and an ideal h that no (kind, q) reads.

    ``echelon`` is the reduced Hermite form, as merged term rows over the p*n
    pure symbols, of slot-linearity on both slots, the two mixed-bracket
    families and the alternating closure (over Z/m with the m*e_s rows of the
    pure symbols); ``brackets`` holds the pure x pure bracket rows. It holds
    no reference to g, h or any product.
    """

    echelon: tuple
    brackets: dict


def _ideal_brackets(h: Ideal) -> list:
    """be_h[i][j] = [b_i, e_j] in ideal coordinates, read off ``h.gb``."""
    return [[tuple((k, -c) for k, c in h.gb[j][i]) for j in range(len(h.gb))]
            for i in range(h.p)]


def _q_free_half(g: LieAlgebra, h: Ideal) -> _QFreeHalf:
    """The rows and bracket constants shared by every (kind, q) square."""
    p, n = h.p, g.rank
    # sparse inputs, read from the ideal: [b_i, e_j] in parent coordinates,
    # [e_j, b_i] and [b_i, b_k] in ideal coordinates; be_h holds [b_i, e_j]
    # in ideal coordinates
    be_g, gb, bb = h.be, h.gb, h.bb
    be_h = _ideal_brackets(h)
    tensor = partial(tensor_terms, n)

    # each q-free relation family as sparse term lists
    rels = []
    # slot-linearity carried by the module relations of each side
    rels += [tensor(((i, o),), _unit(j))
             for i, o in enumerate(h.orders) if o for j in range(n)]
    rels += [tensor(_unit(i), ((j, d),))
             for j, d in enumerate(g.orders) if d for i in range(p)]
    # Each term of a mixed-bracket instance carries one bracket of g or h,
    # so an instance whose brackets are all zero has no terms and adds
    # nothing to the lattice. Instances are emitted only where some bracket
    # in them is nonzero, read off the supports below, in family order.
    be_supp = [{j for j in range(n) if be_g[i][j]} for i in range(p)]
    gb_supp = [{j for j in range(n) if gb[j][i]} for i in range(p)]
    g_above = [set() for _ in range(n)]
    for j, l in g._br:
        g_above[j].add(l)
    # bracket in the left slot: [b_i, b_k](x)e_j = b_i(x)[b_k,e_j] - b_k(x)[b_i,e_j],
    # for every e_j when [b_i, b_k] is nonzero, else where [b_i, e_j] or
    # [b_k, e_j] is
    rels += [tensor(bb[i][k], _unit(j)) + tensor(_unit(i), be_g[k][j], -1)
             + tensor(_unit(k), be_g[i][j])
             for i in range(p) for k in range(i + 1, p)
             for j in (range(n) if bb[i][k] else sorted(be_supp[i] | be_supp[k]))]
    # bracket in the right slot: b_i(x)[e_j,e_l] = [e_l,b_i](x)e_j - [e_j,b_i](x)e_l,
    # for every l > j when [e_j, b_i] is nonzero, else where [e_j, e_l] or
    # [e_l, b_i] is
    rels += [tensor(_unit(i), g.bracket_sym(j, l)) + tensor(gb[l][i], _unit(j), -1)
             + tensor(gb[j][i], _unit(l))
             for i in range(p) for j in range(n)
             for l in (range(j + 1, n) if j in gb_supp[i]
                       else sorted(l for l in g_above[j] | gb_supp[i] if l > j))]
    # alternating closure: a symbol brackets to zero with itself, so the
    # product formula's diagonal [b_i,e_j](x)[b_i,e_j] must die. (The
    # polarized form and the brace diagonals are consequences of the
    # families, the square's own included; the diagonal itself is not, e.g.
    # for solvable algebras over Z/2.)
    rels += [tensor(be_h[i][j], be_g[i][j])
             for i in range(p) for j in range(n) if be_h[i][j]]

    # [b_i(x)e_j, b_k(x)e_l] = [b_i,e_j](x)[b_k,e_l] for s < t, on the pairs
    # where both brackets are nonzero
    brackets = {}
    pure = [(i, j, tensor(_unit(i), _unit(j))[0][0])
            for i in range(p) for j in range(n)]
    right = [(k, l, t) for k, l, t in pure if be_g[k][l]]
    for i, j, s in pure:
        if be_h[i][j]:
            for k, l, t in right:
                if t > s and (row := merged(tensor(be_h[i][j], be_g[k][l]))):
                    brackets[(s, t)] = row
    return _QFreeHalf(hermite_lattice(rels, p * n, g.base_modulus), brackets)


def _build_product(g: LieAlgebra, h: Ideal, half: _QFreeHalf, q: int,
                   kind: str) -> QProduct:
    """The (kind, q) square of g and h on top of their shared ``half``."""
    p, n = h.p, g.rank
    braces = q >= 1
    nsym = p * n + (p if braces else 0)
    basis, be_g, bb = h.basis, h.be, h.bb
    be_h = _ideal_brackets(h)

    tensor = partial(tensor_terms, n)
    brace = partial(brace_terms, p, n)

    # the rows that read q or the kind, in family order
    rels = []
    if braces:
        # slot-linearity on braces
        rels += [brace(((i, o),)) for i, o in enumerate(h.orders) if o]
        # brace of a bracket collapses: {[b_i, e_j]} = q * (b_i(x)e_j)
        rels += [brace(be_h[i][j]) + tensor(_unit(i), _unit(j), -q)
                 for i in range(p) for j in range(n)]
    # exterior kind: the ideal diagonal dies, with polarization
    if kind == "exterior":
        rels += [tensor(_unit(i), basis[i]) for i in range(p)]
        rels += [tensor(_unit(i), basis[k]) + tensor(_unit(k), basis[i])
                 for i in range(p) for k in range(i + 1, p)]

    # the shared echelon and these rows go to the module, and on to its
    # Hermite form, as sparse term lists; no relation is ever a dense row
    module = FpModule.from_terms(nsym, [*half.echelon, *rels], g.base_modulus)

    # bracket constants on symbols, each one sparse term list: the shared
    # pure rows, which a square with braces extends in its own copy
    brackets = dict(half.brackets) if braces else half.brackets

    def set_bracket(s, t, row):
        sign = 1 if s < t else -1
        row = merged((k, sign * c) for k, c in row)
        if row:
            brackets[(min(s, t), max(s, t))] = row

    if braces:
        q2 = q * q
        for i in range(p):
            s = brace(_unit(i))[0][0]
            # [{b_i}, b_k(x)e_l] = q[b_i,b_k](x)e_l + b_k(x)q[b_i,e_l], for
            # every e_l when [b_i, b_k] is nonzero, else where [b_i, e_l] is
            ls = [l for l in range(n) if be_g[i][l]]
            for k in range(p):
                for l in (range(n) if bb[i][k] else ls):
                    set_bracket(s, tensor(_unit(k), _unit(l))[0][0],
                                tensor(bb[i][k], _unit(l), q)
                                + tensor(_unit(k), be_g[i][l], q))
            # [{b_i}, {b_k}] = q b_i (x) q b_k
            for k in range(i + 1, p):
                set_bracket(s, brace(_unit(k))[0][0],
                            tensor(_unit(i), basis[k], q2))

    prod = QProduct(kind, q, g, h, module, brackets)
    prod.validate_bracket_well_defined()
    # closure holds, so Jacobi on generator triples of the module certifies it
    bad = prod.jacobi_defects()
    if bad:
        triple, witness = bad[0]
        raise BracketNotWellDefined(
            f"bracket fails Jacobi at symbols {triple}: {witness}")
    return prod


def _product(g: LieAlgebra, h: Optional[Ideal], q: int, kind: str) -> QProduct:
    """Build a product. The whole-algebra ones (h None) are memoized on g,
    with the q-free half they share; over a proper ideal nothing is kept."""
    if h is not None and h.parent is not g:
        raise ValueError("ideal does not belong to the algebra")
    if q < 0:
        raise ValueError("q must be non-negative")
    if h is not None:
        return _build_product(g, h, _q_free_half(g, h), q, kind)

    def build():
        whole = Ideal.whole(g)
        half = g.cached("q-free", lambda: _q_free_half(g, whole))
        return _build_product(g, whole, half, q, kind)

    return g.cached((kind, q), build)


def q_tensor_product(g: LieAlgebra, h: Optional[Ideal] = None, q: int = 0) -> QProduct:
    """The non-abelian q-tensor product of g and an ideal (default: g itself)."""
    return _product(g, h, q, "tensor")


def q_exterior_product(g: LieAlgebra, h: Optional[Ideal] = None, q: int = 0) -> QProduct:
    """The non-abelian q-exterior product: the tensor product with b^b = 0."""
    return _product(g, h, q, "exterior")


def xi(prod: QProduct) -> LieHom:
    return prod.xi()


def tensor_to_exterior(tensor: QProduct, exterior: QProduct) -> ModuleHom:
    """The symbol-wise projection from the tensor onto the exterior product."""
    if tensor.kind != "tensor" or exterior.kind != "exterior":
        raise ValueError("expected a (tensor, exterior) pair")
    if tensor.nsym != exterior.nsym or tensor.q != exterior.q:
        raise ValueError("products are not comparable")
    return ModuleHom(tensor.module, exterior.module,
                     [_unit(s) for s in range(tensor.nsym)], check=True)


def check_brace_identity(prod: QProduct):
    """{xi(x)} == q x for every ambient generator; returns (ok, witnesses)."""
    if not prod.has_braces:
        raise ValueError("brace identity needs q >= 1")
    witnesses = []
    for s, row in enumerate(prod.xi().hom.images):
        coords = prod.ideal.coords(row)
        if coords is None:
            witnesses.append((s, dense(row, prod.n)))
            continue
        # {xi(s)} - q s, summed: s may itself be a brace of the sum
        acc = {s: -prod.q}
        add_terms(acc, 1, brace_terms(prod.p, prod.n, coords))
        w = prod.module.witness(acc)
        if w is not None:
            witnesses.append((s, w))
    return not witnesses, witnesses


def product_action(prod: QProduct):
    """The parent action on the product, packaged with xi as a crossed module.

    e_a acts on b_i(x)e_j as [e_a, b_i](x)e_j + b_i(x)[e_a, e_j], and on {b_i}
    as {[e_a, b_i]}; the constants are written as sparse symbol terms.
    """
    g = prod.algebra
    h = prod.ideal
    n, p = prod.n, prod.p
    constants = []
    for a in range(n):
        ab = h.gb[a]  # [e_a, b_i] in ideal coordinates
        row = [tensor_terms(n, ab[i], _unit(j))
               + tensor_terms(n, _unit(i), g.bracket_sym(a, j))
               for i in range(p) for j in range(n)]
        if prod.has_braces:
            row += [brace_terms(p, n, ab[i]) for i in range(p)]
        constants.append(row)
    action = LieAction(g, prod, constants)
    return action, QCrossedModule(prod.xi(), action, prod.q)


def curly_image(prod: QProduct) -> Submodule:
    """The brace-free part: the subalgebra spanned by the pure symbols."""
    if prod.has_braces:
        first_brace = prod.sym_brace(0)
        for row in prod._br.values():
            if any(k >= first_brace for k, _ in row):
                raise BracketNotWellDefined(
                    "pure bracket produced a brace component")
    return Submodule(prod.module, prod.pure_units())


# ---------------------------------------------------------------------------
# the universal quadratic functor

def _gamma_order(d: int) -> int:
    """Order of the diagonal quadratic generator over a cyclic factor."""
    if d == 0:
        return 0
    return d if d % 2 else 2 * d


@dataclass(frozen=True)
class GammaModule:
    """Whitehead quadratic functor of a module, by invariant factors.

    Summands are labelled ("diag", i) with order d_i or 2d_i, and
    ("cross", i, j) with order gcd(d_i, d_j), reflecting the decomposition
    of the functor over a direct sum.
    """

    base: FpModule
    summands: tuple
    module: FpModule

    def reduced_mod(self, k: int) -> "GammaModule":
        """The functor over the quotient ring of characteristic k.

        Over Z/k the presentation lives in a free Z/k-module, which quotients
        every summand order by gcd with k; k = 0 returns self.
        """
        if k == 0:
            return self
        summands = tuple(s[:-1] + (gcd(s[-1], k),) for s in self.summands)
        return GammaModule(self.base, summands,
                           FpModule.diagonal([s[-1] for s in summands]))


def gamma(module: FpModule) -> GammaModule:
    """Integer Whitehead functor from the invariant factor decomposition."""
    facs = module.invariant_factors
    summands = []
    orders = []
    for i, d in enumerate(facs):
        summands.append(("diag", i, _gamma_order(d)))
        orders.append(_gamma_order(d))
    for i in range(len(facs)):
        for j in range(i + 1, len(facs)):
            summands.append(("cross", i, j, gcd(facs[i], facs[j])))
            orders.append(gcd(facs[i], facs[j]))
    return GammaModule(module, tuple(summands), FpModule.diagonal(orders))


@dataclass
class GammaMap:
    """The quadratic-functor comparison map into the q-tensor square."""

    base: FpModule            # g / (g #_q g)
    gamma: GammaModule        # integer functor
    gamma_reduced: GammaModule  # functor over the characteristic-k quotient ring
    k: int
    product: QProduct
    hom: ModuleHom            # from gamma.module
    hom_reduced: ModuleHom    # from gamma_reduced.module


def gamma_map(g: LieAlgebra, q: int) -> GammaMap:
    """diag(i) -> lift(a_i)(x)lift(a_i), cross(i,j) -> the polarized pair."""
    base, k = q_abelianization(g, q)
    gm = gamma(base)
    gmq = gm.reduced_mod(k)
    prod = q_tensor_product(g, None, q)
    lifts = base.canonical_basis()
    rows = []
    for s in gm.summands:
        if s[0] == "diag":
            li = lifts[s[1]]
            rows.append(tensor_terms(prod.n, li, li))
        else:
            li, lj = lifts[s[1]], lifts[s[2]]
            rows.append(tensor_terms(prod.n, li, lj) + tensor_terms(prod.n, lj, li))
    # both maps send the functor's generators to the same term rows
    hom_reduced = ModuleHom(gmq.module, prod.module, rows, check=True)
    hom = ModuleHom(gm.module, prod.module, rows, check=True)
    return GammaMap(base, gm, gmq, k, prod, hom, hom_reduced)


# ---------------------------------------------------------------------------
# sequence checks

@dataclass
class SequenceReport:
    label: str
    exact_middle: bool
    surjective_end: bool
    details: dict

    @property
    def ok(self) -> bool:
        return self.exact_middle and self.surjective_end

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "sequence",
            "label": self.label,
            "exact_middle": self.exact_middle,
            "surjective_end": self.surjective_end,
            "details": self.details,
        }


@dataclass
class GammaSequenceReport:
    """Exactness of quadratic-functor -> tensor -> exterior -> 0."""

    exact: bool
    image_bracket_trivial: bool
    hypothesis_free: bool
    injective: Optional[bool]
    gamma_factors: tuple
    gamma_reduced_factors: tuple
    image_factors: tuple
    kernel_factors: tuple

    @property
    def ok(self) -> bool:
        good = self.exact and self.image_bracket_trivial
        if self.hypothesis_free:
            good = good and bool(self.injective)
        return good


def gamma_sequence_check(g: LieAlgebra, q: int) -> GammaSequenceReport:
    """Image of the quadratic map equals the kernel of the wedge projection.

    Injectivity of the comparison map is asserted from the reduced functor
    whenever the quotient by the bracket-and-multiples ideal is a free
    module over the characteristic-k quotient ring.
    """
    gm = gamma_map(g, q)
    ext = q_exterior_product(g, None, q)
    proj = tensor_to_exterior(gm.product, ext)
    img = gm.hom_reduced.image()
    ker = proj.kernel()
    exact = img.same(ker)
    prod = gm.product
    gens = gm.hom.images
    trivial = True
    for a, u in enumerate(gens):
        for v in gens[a:]:
            acc = {}
            add_bracket(acc, 1, prod.bracket_sym, u, v)
            trivial = trivial and prod.module.witness(acc) is None
    free = is_free_over(gm.base, gm.k)
    injective = gm.hom_reduced.kernel().is_zero() if free else None
    return GammaSequenceReport(
        exact=exact,
        image_bracket_trivial=trivial,
        hypothesis_free=free,
        injective=injective,
        gamma_factors=gm.gamma.module.invariant_factors,
        gamma_reduced_factors=gm.gamma_reduced.module.invariant_factors,
        image_factors=img.invariant_factors,
        kernel_factors=ker.invariant_factors,
    )


def right_exact_check(g: LieAlgebra, h: Ideal, q: int,
                      kind: str = "exterior") -> SequenceReport:
    """h-product -> g-product -> quotient-product -> 0, middle-exact and onto.

    ``kind`` "exterior" checks the full q-exterior products; "curly" checks
    the brace-free (pure-symbol) parts with the same induced maps; any other
    ``kind`` raises ``ValueError`` before anything is built.
    """
    if kind not in ("exterior", "curly"):
        raise ValueError("kind must be 'exterior' or 'curly'")
    p1 = q_exterior_product(g, h, q)
    p2 = q_exterior_product(g, None, q)
    gbar, pi = quotient_algebra(g, h)
    p3 = q_exterior_product(gbar, None, q)

    # h-symbols into g-symbols: b_i(x)e_j to (b_i as a vector of g)(x)e_j
    rows1 = [tensor_terms(p2.n, b, _unit(j)) for b in h.basis for j in range(p1.n)]
    if p1.has_braces:
        rows1 += [brace_terms(p2.p, p2.n, b) for b in h.basis]
    m1 = ModuleHom(p1.module, p2.module, rows1, check=True)

    # g-symbols into gbar-symbols through the projection on both slots
    proj = pi.hom.images
    rows2 = [tensor_terms(p3.n, proj[u], proj[j])
             for u in range(p2.p) for j in range(p2.n)]
    if p2.has_braces:
        rows2 += [brace_terms(p3.p, p3.n, proj[u]) for u in range(p2.p)]
    m2 = ModuleHom(p2.module, p3.module, rows2, check=True)

    details = {
        "first_factors": list(p1.invariant_factors()),
        "middle_factors": list(p2.invariant_factors()),
        "end_factors": list(p3.invariant_factors()),
    }
    if kind == "exterior":
        img = m1.image()
        ker = m2.kernel()
        exact = img.same(ker)
        surj = m2.is_surjective()
        label = "right-exact(exterior)"
    else:
        # Brace-free slice of the same two induced maps: the kernel of the
        # restriction must match the brace-free part of the full image.
        pure2 = p2.pure_units()
        ker = Submodule(p2.module, lattice_intersection(
            p2.module, pure2, m2.kernel().gens))
        img = Submodule(p2.module, lattice_intersection(
            p2.module, pure2, m1.images))
        exact = img.same(ker)
        # The image of the first algebra's own brace-free part can be
        # strictly smaller than the kernel; record that comparison too.
        literal = Submodule(p2.module, [m1.images[s] for ((s, _),) in p1.pure_units()])
        details["literal_image_exact"] = literal.same(ker)
        image3 = Submodule(p3.module, [m2.images[s] for ((s, _),) in pure2])
        surj = image3.contains(Submodule(p3.module, p3.pure_units()))
        label = "right-exact(curly)"

    return SequenceReport(
        label=label,
        exact_middle=exact,
        surjective_end=surj,
        details=details,
    )


# ---------------------------------------------------------------------------
# abelian decomposition and the split form of the tensor square

@dataclass
class AbelianSquareReport:
    q: int
    products_abelian: bool
    tensor_factors: tuple
    tensor_expected: tuple
    exterior_factors: tuple
    exterior_expected: tuple

    @property
    def ok(self) -> bool:
        return (self.products_abelian
                and self.tensor_factors == self.tensor_expected
                and self.exterior_factors == self.exterior_expected)


def abelian_square_check(g: LieAlgebra, q: int) -> AbelianSquareReport:
    """Closed form of both squares of an abelian algebra.

    For q >= 1 the square decomposes as g itself (carried by the braces)
    plus the plain module square of g/qg; at q = 0 there are no braces and
    the square is the plain module square of g.
    """
    if not g.is_abelian():
        raise NotAbelianInput(f"{g.name} has a nonzero bracket")
    pt = q_tensor_product(g, None, q)
    pe = q_exterior_product(g, None, q)
    abelian = all(pt.module.is_lattice_sum(w) for w in pt._br.values()) and \
        all(pe.module.is_lattice_sum(w) for w in pe._br.values())
    if q >= 1:
        gq, _ = quotient(g.module, Submodule(g.module, [((i, q),) for i in range(g.rank)]))
        lead = [g.module.invariant_factors]
    else:
        gq = g.module
        lead = []
    tmod, _ = tensor_square_ab(gq)
    emod, _ = exterior_square_ab(gq)
    return AbelianSquareReport(
        q=q,
        products_abelian=abelian,
        tensor_factors=pt.invariant_factors(),
        tensor_expected=merged_factors(lead + [tmod.invariant_factors]),
        exterior_factors=pe.invariant_factors(),
        exterior_expected=merged_factors(lead + [emod.invariant_factors]),
    )


@dataclass
class SplitReport:
    """Both sides of the tensor = exterior x quadratic-functor comparison.

    Reported under the freeness hypothesis; the sides are compared with the
    functor taken over the characteristic-k quotient ring (the integer
    functor's factors are recorded too, for review).
    """

    hypothesis_met: bool
    tensor_factors: tuple
    split_factors: Optional[tuple]
    gamma_reduced_factors: Optional[tuple]
    gamma_integer_factors: Optional[tuple]
    matches: Optional[bool]


def split_decomposition_check(g: LieAlgebra, q: int) -> SplitReport:
    gm = gamma_map(g, q)
    pt = gm.product
    if not is_free_over(gm.base, gm.k):
        return SplitReport(False, pt.invariant_factors(), None, None, None, None)
    pe = q_exterior_product(g, None, q)
    split = merged_factors([pe.invariant_factors(),
                            gm.gamma_reduced.module.invariant_factors])
    return SplitReport(
        hypothesis_met=True,
        tensor_factors=pt.invariant_factors(),
        split_factors=split,
        gamma_reduced_factors=gm.gamma_reduced.module.invariant_factors,
        gamma_integer_factors=gm.gamma.module.invariant_factors,
        matches=(split == pt.invariant_factors()),
    )
