"""Exact integer linear algebra and finitely presented module arithmetic.

A finitely presented module is a quotient of Z^n (or (Z/m)^n, realized over Z
by appending m*e_i relations) by the lattice spanned by its relation rows,
kept as sparse (k, c) term rows (``terms``): the Hermite kernel takes them
as they are. Lattice rows are the reduced row Hermite form, unique for the
lattice, as merged term rows: a row's pivot is its first term. Its
unit pivots eliminate generators outright; the Smith normal form of what is
left, the core, yields canonical coordinates and invariant factors, and the
eliminated generators get theirs by back-substitution. Back-substitution on
Hermite rows also decides membership in submodules -- which is everything
the Lie-algebraic layers above need. All arithmetic is
arbitrary-precision; nothing here ever rounds or overflows.

Row-vector convention throughout: vectors are tuples, and a homomorphism is
given by the term rows of its generators' images, ``h(v) = sum v_i images[i]``.
Every list of rows is a list of term rows: a homomorphism's images, a
submodule's generators (``Submodule.gens``), kernel bases, relations,
lattice and Hermite rows, Smith columns and lifts; ``combination`` sums
them, and so are the single elements that ``hermite_coords``, ``canon``,
``lift_pruned`` and ``Submodule.solve`` take and return. Dense vectors stay
at the edges: ``FpModule(n, rows)``, ``witness``, ``ModuleHom.__call__``
and the test-facing ``contains_vec``, ``is_lattice_member``,
``same_element`` and ``Submodule.basis``. ``hnf_rows`` returns dense rows;
each caller converts them to terms once.
Dense matrices (``IntMatrix``) appear only in ``snf`` and ``det``, the
Smith-form reference.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from math import gcd
from typing import Iterable, Optional, Sequence

# identity_matrix has no caller here; it stays importable from this module,
# with matmul and det, for the benchmark's own tests
from lieq._kernel import identity_matrix  # noqa: F401
from lieq._kernel import hnf_rows, matmul, snf_with_transforms
from lieq.errors import NotWellDefined


# ---------------------------------------------------------------------------
# vector / matrix helpers

def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a):
    return tuple(c * x for x in a)


def vec_addmul(acc: list, c: int, row: Sequence) -> None:
    """acc += c * row, in place; skips when c is zero."""
    if c:
        for k, x in enumerate(row):
            if x:
                acc[k] += c * x


def apply_matrix(v: Sequence, rows: Sequence[Sequence], ncols: int) -> tuple:
    """Row vector times matrix, exploiting sparsity of v (benchmark and tests only)."""
    acc = [0] * ncols
    for i, c in enumerate(v):
        if c:
            vec_addmul(acc, c, rows[i])
    return tuple(acc)


def unit_vec(n: int, i: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(n))


# ---------------------------------------------------------------------------
# sparse terms
#
# Between layers an element is a list of (k, c) terms: coefficient c on
# generator k. A list may repeat an index (the terms are summed) and may hold
# zero coefficients; ``merged`` gives the canonical form.

def terms(vec: Sequence[int]) -> tuple:
    """The nonzero (k, c) terms of a dense vector."""
    return tuple((k, c) for k, c in enumerate(vec) if c)


def add_terms(acc: dict, c: int, row) -> None:
    """acc += c * row, accumulating the sparse (k, x) terms of row by index."""
    for k, x in row:
        acc[k] = acc.get(k, 0) + c * x


def merged(row) -> tuple:
    """Sparse terms with repeated indices summed: nonzero, by increasing index."""
    acc = {}
    add_terms(acc, 1, row)
    return tuple((k, c) for k, c in sorted(acc.items()) if c)


def combination(coeffs, rows) -> dict:
    """Sum of c * rows[i] over the (i, c) terms of coeffs, {index: coefficient}."""
    acc = {}
    for i, c in coeffs:
        if c:
            add_terms(acc, c, rows[i])
    return acc


def dense(row, n: int) -> tuple:
    """The length-n vector of sparse (k, c) terms, repeated indices summed."""
    vec = [0] * n
    for k, c in row:
        vec[k] += c
    return tuple(vec)


class IntMatrix:
    """Immutable arbitrary-precision integer matrix."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable[int]], ncols: Optional[int] = None):
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        if rows:
            ncols = len(rows[0])
            for r in rows:
                if len(r) != ncols:
                    raise ValueError("ragged matrix")
        elif ncols is None:
            ncols = 0
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        return IntMatrix(matmul([list(r) for r in self.rows],
                                [list(r) for r in other.rows]),
                         ncols=other.ncols)

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows \
            and self.ncols == other.ncols

    def __hash__(self):
        return hash((self.rows, self.ncols))

    def __repr__(self):
        return f"IntMatrix({list(map(list, self.rows))!r})"


def det(m: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return 1
    a = [list(r) for r in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def snf(m: IntMatrix):
    """Smith normal form: returns (D, U, V) with U*M*V = D.

    D is diagonal with d_1 | d_2 | ... and non-negative entries; U and V are
    unimodular.
    """
    d, u, v, _ = snf_with_transforms([list(r) for r in m.rows], m.nrows, m.ncols)
    return (IntMatrix(d, ncols=m.ncols),
            IntMatrix(u, ncols=m.nrows),
            IntMatrix(v, ncols=m.ncols))


def augmented_kernel(stack: Iterable, left: int, width: int) -> list:
    """Right parts of the reduced Hermite rows of ``stack`` whose left part is 0.

    ``stack`` holds sparse (k, c) term rows of the given width. For rows
    (x_i @ M | x_i) over rows (L | 0), ``left`` columns wide on the left,
    these are a basis of { x : x @ M in the row lattice of L }: in echelon
    form, the rows with a zero left part span the part of the stack's lattice
    that is zero on the left. Each is returned as term rows, indexed from the
    first right column.
    """
    return [terms(r[left:]) for r in hnf_rows(stack, width) if not any(r[:left])]


def hermite_lattice(rels: Sequence, n: int, m: int = 0) -> tuple:
    """The reduced Hermite form of the term rows ``rels`` over Z/m, as
    merged term rows led by their pivots: over Z when m is 0, else with the
    rows m*e_i of the n generators appended. ``FpModule`` takes its
    ``lattice_rows`` from here.
    """
    rows = [*rels, *(((i, m),) for i in range(n))] if m else rels
    return tuple(terms(r) for r in hnf_rows(rows, n))


def hermite_coords(rows: Sequence, v) -> Optional[tuple]:
    """The alpha with ``alpha @ rows == v`` for Hermite ``rows``, or None.

    ``rows`` are merged term rows in echelon order, each led by its pivot;
    ``v`` is (k, c) terms, alpha merged terms over row indices. The least
    column of the running support must be a pivot (found by bisection)
    that divides it exactly; that row is subtracted, and nothing may be left.
    """
    r = {}
    add_terms(r, 1, v)
    heap, alpha, i = sorted(r), [], 0
    while heap:
        c = heappop(heap)
        if not (x := r.pop(c)):
            continue
        i = bisect_left(rows, c, i, key=lambda row: row[0][0])
        if i == len(rows) or rows[i][0][0] != c or x % rows[i][0][1]:
            return None
        a = x // rows[i][0][1]
        for k, y in rows[i][1:]:
            if k not in r:
                heappush(heap, k)
            r[k] = r.get(k, 0) - a * y
        alpha.append((i, a))
    return tuple(alpha)


def _reduced_terms(acc: Sequence[int], orders: Sequence[int]) -> tuple:
    """The nonzero (j, acc[j] mod orders[j]) terms; order 0 leaves acc[j]."""
    return tuple((j, y) for j, (x, d) in enumerate(zip(acc, orders))
                 if (y := x % d if d else x))


# ---------------------------------------------------------------------------
# finitely presented modules

class FpModule:
    """Quotient of an ambient free module by an integer relation lattice.

    ``relations`` holds the presenting rows as sparse (k, c) term rows, the
    ``terms`` vocabulary, whether they came in dense (``FpModule(n, rows)``)
    or as terms (``FpModule.from_terms``); ``lattice_rows`` holds the
    reduced Hermite form as merged term rows, each led by its pivot. The
    Smith columns (one term row over invariant-factor indices per ambient
    generator) and the lifts of the canonical generators (term rows over
    ambient generators) are term rows too.

    ``base_modulus`` 0 means base ring Z; m >= 2 means Z/m, realized by
    silently appending m*e_i relations for every ambient generator so a
    single integer pipeline serves both rings.

    ``orders`` has one entry per ambient rank, in divisibility order, 0
    denoting an infinite cyclic factor; ``invariant_factors`` is the same
    list with the trivial (=1) factors elided.

    The Smith form runs on the core of the reduced Hermite form only, after
    Havas, Holt and Rees ("Recognizing badly presented Z-modules", 1993). A
    unit pivot c is zero in every other lattice row, so its row
    e_c + sum r_k e_k eliminates generator c, and the module is Z^S modulo
    the other rows restricted to S, the columns that are no unit pivot
    (``spanning_generators``). The Smith columns W of generator k in S are
    row k of the core's V; those of c are -sum r_k W[k] by back-substitution.
    The canonical generators lift to rows of the core's V^-1, placed on S.
    """

    __slots__ = ("ambient_rank", "base_modulus", "relations", "lattice_rows",
                 "orders", "invariant_factors", "_gens", "_lifts", "_w_cols")

    def __init__(self, ambient_rank: int, relations: Iterable[Sequence[int]],
                 base_modulus: int = 0):
        n = int(ambient_rank)
        rels = [tuple(int(x) for x in r) for r in relations]
        if any(len(r) != n for r in rels):
            raise ValueError("relation length does not match ambient rank")
        self._present(n, [terms(r) for r in rels], base_modulus)

    @classmethod
    def from_terms(cls, ambient_rank: int, relations: Iterable,
                   base_modulus: int = 0) -> "FpModule":
        """The module presented by sparse (k, c) term rows, as ``terms`` makes.

        A row may repeat an index and hold zero coefficients; every index
        must lie in [0, ambient_rank).
        """
        n = int(ambient_rank)
        rels = [tuple(r) for r in relations]
        if any(not 0 <= k < n for r in rels for k, _ in r):
            raise ValueError("relation index out of ambient range")
        module = cls.__new__(cls)
        module._present(n, rels, base_modulus)
        return module

    def _present(self, n: int, rels: list, base_modulus: int) -> None:
        m = int(base_modulus)
        if n < 0:
            raise ValueError("negative ambient rank")
        if m < 0 or m == 1:
            raise ValueError("base modulus must be 0 (ring Z) or >= 2 (ring Z/m)")
        self.ambient_rank = n
        self.base_modulus = m
        self.relations = tuple(rels)
        self.lattice_rows = hermite_lattice(rels, n, m)
        units, core = [], []
        for row in self.lattice_rows:
            (units if row[0][1] == 1 else core).append(row)
        unit_cols = {row[0][0] for row in units}
        self._gens = gens = tuple(k for k in range(n) if k not in unit_cols)
        core = [[r.get(k, 0) for k in gens] for r in map(dict, core)]
        d, _, v, vinv = snf_with_transforms(core, len(core), len(gens))
        core_orders = [d[i][i] if i < len(core) else 0 for i in range(len(gens))]
        self.orders = (1,) * len(units) + tuple(core_orders)
        self.invariant_factors = tuple(o for o in core_orders if o != 1)
        keep = [i for i, o in enumerate(core_orders) if o != 1]
        w_cols = [None] * n
        for k, vk in zip(gens, v):
            w_cols[k] = tuple((j, vk[i]) for j, i in enumerate(keep) if vk[i])
        for row in units:
            w_cols[row[0][0]] = merged(combination(((k, -x) for k, x in row[1:]),
                                                   w_cols).items())
        self._w_cols = tuple(w_cols)
        self._lifts = tuple(tuple((k, x) for k, x in zip(gens, vinv[i]) if x)
                            for i in keep)

    # -- constructors -------------------------------------------------------

    @classmethod
    def diagonal(cls, orders: Sequence[int], base_modulus: int = 0) -> "FpModule":
        """Module presented by d_i * e_i relations (d_i = 0 meaning free)."""
        return cls.from_terms(len(orders), [((i, d),) for i, d in enumerate(orders) if d],
                              base_modulus)

    # -- queries ------------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def spanning_generators(self) -> tuple:
        """Indices of ambient generators whose classes generate the module.

        Every generator but the unit pivots of ``lattice_rows``: in reduced
        Hermite form a pivot 1 has zeros above and below it, so its row
        writes that generator through later generators that are no unit pivot.
        """
        return self._gens

    def _smith_coords(self, terms: Iterable) -> list:
        """Sum of c * (row i of W) over the (i, c) terms, W the Smith columns."""
        acc = [0] * len(self.invariant_factors)
        cols = self._w_cols
        for i, c in terms:
            if c:
                for j, x in cols[i]:
                    acc[j] += c * x
        return acc

    def witness(self, acc: dict) -> Optional[tuple]:
        """The dense vector of the sparse sum ``acc`` if it escapes the lattice.

        ``acc`` maps generator indices to coefficients; None when the sum is
        zero or a lattice element.
        """
        if not any(acc.values()) or self.is_lattice_sum(acc.items()):
            return None
        return dense(acc.items(), self.ambient_rank)

    def canon(self, v) -> tuple:
        """Reduced coordinates of the terms v, merged terms over the factors."""
        return _reduced_terms(self._smith_coords(v), self.invariant_factors)

    def is_lattice_member(self, v: Sequence[int]) -> bool:
        return self.is_lattice_sum(enumerate(v))

    def is_lattice_sum(self, terms: Iterable) -> bool:
        """Whether the sum of c * e_i over the (i, c) terms is in the lattice.

        The sparse form of ``is_lattice_member``: a term may repeat an index,
        only the listed generators are visited, and only the Smith
        coordinates their columns touch are summed and tested; the others
        are 0.
        """
        facs = self.invariant_factors
        return all((x % facs[j] == 0) if facs[j] else (x == 0)
                   for j, x in combination(terms, self._w_cols).items())

    def same_element(self, a: Sequence[int], b: Sequence[int]) -> bool:
        return self.is_lattice_member(vec_sub(a, b))

    def lift_pruned(self, coords) -> tuple:
        """Ambient merged terms representing the canonical coordinates coords."""
        return merged(combination(coords, self._lifts).items())

    def canonical_basis(self) -> list:
        """Ambient representatives of the canonical generators, as term rows."""
        return list(self._lifts)

    def __repr__(self):
        return (f"FpModule(rank={self.ambient_rank}, over {ring_name(self.base_modulus)}, "
                f"factors={list(self.invariant_factors)})")


# ---------------------------------------------------------------------------
# homomorphisms

class ModuleHom:
    """Homomorphism between finitely presented modules.

    ``images`` holds one sparse (k, c) term row per source generator, as
    ``block_kernel`` takes them: the image of e_i in target coordinates. A
    row may repeat an index and hold zero coefficients; each is merged once
    and kept in ``images``. Construction verifies that the source relation
    lattice maps into the target lattice, summing the images of each lattice
    row and testing the sum term by term.
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source: FpModule, target: FpModule,
                 images: Iterable, check: bool = True):
        nt = target.ambient_rank
        images = [tuple(r) for r in images]
        if len(images) != source.ambient_rank:
            raise ValueError("hom needs one image per source generator")
        if any(not 0 <= k < nt for r in images for k, _ in r):
            raise ValueError("image index out of target range")
        self.source = source
        self.target = target
        self.images = tuple(merged(r) for r in images)
        if check:
            for r in source.lattice_rows:
                w = target.witness(combination(r, self.images))
                if w is not None:
                    raise NotWellDefined(
                        f"relation {dense(r, source.ambient_rank)} maps to {w}, "
                        "outside the target lattice")

    def __call__(self, v: Sequence[int]) -> tuple:
        return dense(combination(enumerate(v), self.images).items(),
                     self.target.ambient_rank)

    def image(self) -> "Submodule":
        return Submodule(self.target, self.images)

    def kernel(self) -> "Submodule":
        """Preimage of the target relation lattice, as a source submodule."""
        return block_kernel(self.source, [(self.target, self.images)])

    def is_surjective(self) -> bool:
        return self.image().same(Submodule.full(self.target))

    def __repr__(self):
        return f"ModuleHom({self.source!r} -> {self.target!r})"


def block_kernel(source: FpModule, blocks) -> "Submodule":
    """Kernel of x -> (x @ M_1, ..., x @ M_b) into the sum T_1 + ... + T_b.

    ``blocks`` lists pairs (T_i, images), one image per source generator:
    its row of M_i as sparse (k, c) terms. Each block goes through the known
    Smith columns of its own summand, so the sum is never presented or
    reduced: x is in the kernel iff every x @ M_i @ W_i vanishes modulo the
    orders of T_i. Each Smith column is reduced modulo its order and dropped
    when it is then zero; the kernel is read off one augmented stack, with a
    modulus row per kept finite column.
    """
    ns = source.ambient_rank
    cols = []
    for tgt, images in blocks:
        if len(images) != ns:
            raise ValueError("block map needs one image per source generator")
        coords = [tgt._smith_coords(img) for img in images]
        for k, d in enumerate(tgt.invariant_factors):
            col = [c[k] % d if d else c[k] for c in coords]
            if any(col):
                cols.append((d, col))
    width = len(cols)
    stack = [[(k, col[i]) for k, (_, col) in enumerate(cols) if col[i]]
             + [(width + i, 1)] for i in range(ns)]
    stack += [((k, d),) for k, (d, _) in enumerate(cols) if d]
    return Submodule(source, augmented_kernel(stack, width, width + ns))


# ---------------------------------------------------------------------------
# submodules and quotients

class Submodule:
    """Submodule of an FpModule generated by explicit ambient elements.

    ``gens`` holds one sparse (k, c) term row per generator, the ``terms``
    vocabulary that ``FpModule.from_terms`` and ``ModuleHom`` take: a row
    may repeat an index (the terms are summed) and hold zero coefficients,
    and every index must lie in [0, ambient_rank). The rows are kept as
    given. Keeps the ambient module, the generators, and (lazily) Hermite term
    rows and an abstract presentation with a canonical generating basis, so
    a submodule doubles as a module-with-embedding. ``solve`` takes and
    returns term rows and ``basis_rows`` gives the basis as term rows;
    ``contains_vec`` and ``basis`` are the dense, test-facing views.
    """

    def __init__(self, ambient: FpModule, gens: Iterable):
        n = ambient.ambient_rank
        self.ambient = ambient
        self.gens = tuple(tuple(g) for g in gens)
        if any(not 0 <= k < n for g in self.gens for k, _ in g):
            raise ValueError("generator index out of ambient range")
        self._hermite = None
        self._abstract = None
        self._basis = None
        self._signs = None
        self._is_full = False

    @classmethod
    def full(cls, ambient: FpModule) -> "Submodule":
        """The whole module, with the canonical generators as basis.

        Only meaningful for modules already in pruned diagonal form (every
        Lie-algebra module is); then basis vectors are the ambient units.
        """
        n = ambient.ambient_rank
        sub = cls(ambient, [((i, 1),) for i in range(n)])
        if ambient.orders == ambient.invariant_factors:
            sub._is_full = True
            sub._basis = list(sub.gens)
        return sub

    # -- membership ---------------------------------------------------------

    def contains_vec(self, v: Sequence[int]) -> bool:
        return hermite_coords(self._hermite_rows(), terms(v)) is not None

    def contains(self, other: "Submodule") -> bool:
        rows = self._hermite_rows()
        return all(hermite_coords(rows, g) is not None for g in other.gens)

    def same(self, other: "Submodule") -> bool:
        """Equality of Hermite rows; both must live in one ambient module."""
        return self._hermite_rows() == other._hermite_rows()

    def is_zero(self) -> bool:
        return all(self.ambient.is_lattice_sum(g) for g in self.gens)

    # -- abstract structure --------------------------------------------------

    def _hermite_rows(self) -> tuple:
        """Reduced Hermite term rows of the sub-lattice plus the ambient lattice."""
        if self._hermite is None:
            rows = hnf_rows(self.gens + self.ambient.lattice_rows,
                            self.ambient.ambient_rank)
            self._hermite = tuple(terms(r) for r in rows)
        return self._hermite

    @property
    def abstract(self) -> FpModule:
        """Presentation of the submodule on its Hermite rows."""
        if self._abstract is None:
            # Hermite rows are independent, so each ambient lattice row has
            # unique coordinates, and those span the relations.
            hermite = self._hermite_rows()
            rels = [hermite_coords(hermite, r) for r in self.ambient.lattice_rows]
            self._abstract = FpModule.from_terms(len(hermite), rels,
                                                 self.ambient.base_modulus)
        return self._abstract

    @property
    def invariant_factors(self) -> tuple:
        if self._is_full:
            return self.ambient.invariant_factors
        return self.abstract.invariant_factors

    def basis_rows(self) -> list:
        """A canonical generating basis, as merged term rows.

        A function of the submodule alone, not of its generators: the
        invariant-factor generators of the presentation on the Hermite rows,
        each negated if its first term is negative.
        """
        if self._basis is None:
            rows = [merged(combination(alpha, self._hermite_rows()).items())
                    for alpha in self.abstract.canonical_basis()]
            self._signs = [-1 if r[0][1] < 0 else 1 for r in rows]
            self._basis = [tuple((k, s * c) for k, c in r)
                           for s, r in zip(self._signs, rows)]
        return self._basis

    def basis(self) -> list:
        """``basis_rows`` as dense ambient vectors."""
        return [dense(b, self.ambient.ambient_rank) for b in self.basis_rows()]

    def solve(self, v) -> Optional[tuple]:
        """Coordinates of the terms v over ``basis_rows``, as ``canon``'s, or None."""
        if self._is_full:
            return self.ambient.canon(v)
        alpha = hermite_coords(self._hermite_rows(), v)
        if alpha is None:
            return None
        self.basis_rows()  # sets the signs
        acc = self.abstract._smith_coords(alpha)
        return _reduced_terms([s * x for s, x in zip(self._signs, acc)],
                              self.abstract.invariant_factors)

    def as_module_with_embedding(self):
        """(diagonal FpModule, embedding ModuleHom into the ambient)."""
        mod = FpModule.diagonal(self.invariant_factors, self.ambient.base_modulus)
        return mod, ModuleHom(mod, self.ambient, self.basis_rows())

    def __repr__(self):
        return (f"Submodule(factors={list(self.invariant_factors)} "
                f"of {self.ambient!r})")


def quotient(module: FpModule, sub: Submodule):
    """Quotient module plus the projection homomorphism."""
    if sub.ambient is not module:
        raise ValueError("submodule does not live in the given module")
    q = FpModule.from_terms(module.ambient_rank, module.lattice_rows + sub.gens,
                            module.base_modulus)
    proj = ModuleHom(module, q, [((i, 1),) for i in range(module.ambient_rank)],
                     check=False)
    return q, proj


def lattice_intersection(module: FpModule, gens_a: Sequence, gens_b: Sequence) -> list:
    """Term rows generating (span(gens_a)+L) intersect (span(gens_b)+L).

    ``gens_a`` and ``gens_b`` are term rows, as ``Submodule`` takes them.
    The stack (a | a) over (b | 0): a row with zero left part is some
    x @ a == -y @ b, and its right part is that common element.
    """
    n = module.ambient_rank
    stack = [(*a, *((n + k, c) for k, c in a)) for a in [*gens_a, *module.lattice_rows]]
    stack += [*gens_b, *module.lattice_rows]
    return augmented_kernel(stack, n, 2 * n)


# ---------------------------------------------------------------------------
# closed forms for abelian squares

def merged_factors(factor_lists: Iterable[Sequence[int]]) -> tuple:
    """Invariant factors of the direct sum of diagonal modules."""
    orders = [d for lst in factor_lists for d in lst]
    return FpModule.diagonal(orders).invariant_factors


def is_free_over(module: FpModule, k: int) -> bool:
    """True iff the module is free over Z (k=0), Z/k (k>=2), or zero (k=1)."""
    facs = module.invariant_factors
    if k == 0:
        return all(d == 0 for d in facs)
    if k == 1:
        return not facs
    return all(d == k for d in facs)


def tensor_square_ab(module: FpModule):
    """Tensor square of the underlying abelian module, with (i,j) labels.

    For M = +Z/d_i this is +_{i,j} Z/gcd(d_i, d_j), gcd(0, d) = d.
    """
    facs = module.invariant_factors
    labels = [(i, j) for i in range(len(facs)) for j in range(len(facs))]
    orders = [gcd(facs[i], facs[j]) for i, j in labels]
    return FpModule.diagonal(orders, module.base_modulus), labels


def exterior_square_ab(module: FpModule):
    """Exterior square of the underlying abelian module, with i<j labels."""
    facs = module.invariant_factors
    labels = [(i, j) for i in range(len(facs)) for j in range(i + 1, len(facs))]
    orders = [gcd(facs[i], facs[j]) for i, j in labels]
    return FpModule.diagonal(orders, module.base_modulus), labels


def lambda_q_modulus(base_modulus: int, q: int) -> int:
    """Characteristic of the quotient ring (base ring)/q: gcd(q, m)."""
    return gcd(q, base_modulus)


def ring_name(m: int) -> str:
    """The text of Z/m: "Z" when m is 0, else "Z/m"."""
    return "Z" if m == 0 else f"Z/{m}"


def describe_factors(factors: Sequence[int]) -> str:
    """Human form of an invariant factor list, e.g. 'Z/2 + Z'."""
    if not factors:
        return "0"
    return " + ".join(ring_name(d) for d in factors)
