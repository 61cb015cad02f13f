"""Brute-force oracles over small finite instances.

These deliberately avoid the main presentation pipeline: products are built
by instantiating the defining relation families over *all* module elements
(not just generators) inside the universal bilinear stage, closing the
relation subgroup by enumeration, and reading invariant factors off the
sizes of its p^k-torsion. Agreement with the Smith-normal-form pipeline on
every small instance is what grounds the generator-only instantiation used
there.

Product oracles use no Hermite or Smith form, only element enumeration, and
each stage costs about the size of the relation subgroup, not of the
ambient: the closure adds one coset at a time, so every element is made by
one addition, and the torsion sizes come from extending that subgroup by the
p^k e_i. Every relation family but the brace one depends on the algebra
alone, so a ``BracketTable`` walks them once and closes them once per kind,
and the (q, kind) products of one algebra share that closure: at q = 0 it
is the relation subgroup, and at q >= 1 a product pads it and extends it by
its brace family only. The quadratic functor oracle (``brute_gamma``) is a
lattice over Z, so it reduces its relation rows instead, after dropping the
instances that the others already span (``gamma_relation_rows``).
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import gcd
from typing import Iterable, Sequence

from lieq.errors import TooLarge
from lieq.exactlin import FpModule
from lieq.liealg import LieAlgebra

SIZE_CAP = 4096
GAMMA_CAP = 16


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


class FiniteEnumeration:
    """A finite module +Z/o_i with explicit element tuples and arithmetic."""

    def __init__(self, orders: Sequence[int]):
        orders = tuple(int(o) for o in orders)
        if any(o < 1 for o in orders):
            raise ValueError("finite enumeration needs all orders >= 1")
        if _prod(orders) > SIZE_CAP:
            raise TooLarge(f"module of order {_prod(orders)} exceeds {SIZE_CAP}")
        self.orders = orders
        self.size = _prod(orders)

    def elements(self):
        return itertools.product(*[range(o) for o in self.orders])

    def _check(self, *vs) -> None:
        if any(len(v) != len(self.orders) for v in vs):
            raise ValueError("vector length does not match ambient rank")

    def reduce(self, v) -> tuple:
        self._check(v)
        return tuple(x % o for x, o in zip(v, self.orders))

    def add(self, a, b) -> tuple:
        self._check(a, b)
        return tuple((x + y) % o for x, y, o in zip(a, b, self.orders))

    def scale(self, c, a) -> tuple:
        self._check(a)
        return tuple((c * x) % o for x, o in zip(a, self.orders))

    def zero(self) -> tuple:
        return (0,) * len(self.orders)


def _extend(ambient: FiniteEnumeration, closed: set,
            gens: Iterable[Sequence[int]]) -> set:
    """Extend the subgroup ``closed`` in place by each of ``gens``, which
    must be reduced vectors of ``ambient``.

    Adding g to a subgroup H gives the disjoint cosets H + c g for
    0 <= c < m, where m is the least c >= 1 with c g in H. For c < m, c g
    lies in no coset H + j g with j < c (else (c - j) g would be in H), so
    the walk stops exactly at m and makes each new element by one addition.
    """
    orders = ambient.orders
    for g in gens:
        if g in closed:
            continue
        old = list(closed)
        step = g
        while step not in closed:
            closed.update([tuple((x + y) % o for x, y, o in zip(h, step, orders))
                           for h in old])
            step = tuple((x + y) % o for x, y, o in zip(step, g, orders))
    return closed


def subgroup_closure(ambient: FiniteEnumeration, gens: Iterable[Sequence[int]]) -> set:
    """All sums of the given elements, built one coset at a time."""
    return _extend(ambient, {ambient.zero()}, map(ambient.reduce, gens))


def _factorize(n: int) -> dict:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _invariants_from_census(ambient: FiniteEnumeration, sub: set) -> tuple:
    """Invariant factors of Q = ambient/sub from the sizes of its p^k-torsion.

    Multiplication by p^k maps Q onto p^k Q, and its kernel is Q[p^k], the
    classes killed by p^k; so |Q[p^k]| = |Q| / |p^k Q|. The image p^k Q is
    (p^k A + H)/H, and p^k A + H is H extended by the p^k e_i, so
    |Q[p^k]| = |A| / |p^k A + H| with no scan of the ambient A. For each
    prime p, |Q[p^k]| = p^(sum min(lambda_i, k)); successive differences give
    the conjugate partition of the p-part, which assembles into the
    divisibility chain. Only enumeration is used, no Hermite or Smith form.
    """
    qsize = ambient.size // len(sub)
    if qsize == 1:
        return ()
    rank = len(ambient.orders)
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    partitions = {}
    for p in _factorize(qsize):
        logs = [0]
        k = 1
        while True:
            span = _extend(ambient, set(sub),
                           [ambient.scale(p ** k, e) for e in units])
            count = ambient.size // len(span)
            s_k = 0
            c = count
            while c > 1:
                c //= p
                s_k += 1
            logs.append(s_k)
            if logs[-1] == logs[-2]:
                logs.pop()
                break
            k += 1
        conj = [logs[i] - logs[i - 1] for i in range(1, len(logs))]
        lam = []
        i = 1
        while conj and i <= conj[0]:
            lam.append(sum(1 for m in conj if m >= i))
            i += 1
        partitions[p] = sorted(lam, reverse=True)
    width = max(len(v) for v in partitions.values())
    factors = []
    for j in range(width):
        d = 1
        for p, lam in partitions.items():
            if j < len(lam):
                d *= p ** lam[j]
        factors.append(d)
    return tuple(sorted(factors))


def brute_module_quotient(ambient_orders: Sequence[int],
                          relations: Iterable[Sequence[int]]) -> tuple:
    """Invariant factors of a finite module modulo enumerated relations."""
    ambient = FiniteEnumeration(ambient_orders)
    sub = subgroup_closure(ambient, relations)
    return _invariants_from_census(ambient, sub)


# ---------------------------------------------------------------------------
# brute product presentations

def _jacobi_instances(br, ten, tensors, orders) -> set:
    """Both Jacobi-type families on the pure block, one id triple at a time.

    ``br`` is the bracket table and ``ten`` the pure-tensor id table of
    ``BracketTable``, ``tensors`` the distinct pure tensors and ``orders``
    the pure slot orders. The instances are collected as a set of id
    triples, and the modular combination ``u - v + w`` runs once per
    distinct triple.
    """
    idx = range(len(br))
    cols = [[row[x] for row in br] for x in idx]
    triples = set()
    for x in idx:
        tx, bx = ten[x], br[x]
        for xp in idx:
            # [x,x'] (x) y - x (x) [x',y] + x' (x) [x,y], over every y
            txp = ten[xp]
            triples.update(zip(ten[bx[xp]], [tx[b] for b in br[xp]],
                               [txp[b] for b in bx]))
    for x in idx:
        tx, cx = ten[x], cols[x]
        for y in idx:
            # x (x) [y,y'] - [y',x] (x) y + [y,x] (x) y', over every y'
            triples.update(zip([tx[b] for b in br[y]], [ten[b][y] for b in cx],
                               ten[br[y][x]]))
    return {tuple((a - b + c) % o for a, b, c, o in
                  zip(tensors[i], tensors[j], tensors[k], orders))
            for i, j, k in triples}


class BracketTable:
    """The elements of a small finite algebra and the brackets among them.

    ``elems`` lists the elements in ``FiniteEnumeration.elements`` order, and
    ``br[x][y]`` is the index of the reduced bracket of elements x and y:
    |g|^2 calls of ``g.bracket``. Every relation family of a q-square except
    the brace one lives on the n^2 pure slots x (x) y and depends on g
    alone, so the table also holds those instances (``pure_instances``),
    built on first use by one walk of the Jacobi-type families, and the
    subgroup they generate (``pure_closure``), built on first use per kind.
    The (q, kind) products of one algebra share one table, and with it that
    walk and those closures.
    """

    def __init__(self, g: LieAlgebra):
        if any(o == 0 for o in g.orders) or g.rank and _prod(g.orders) > SIZE_CAP:
            raise TooLarge("brute products need a small finite algebra")
        self.g = g
        self.gmod = gmod = FiniteEnumeration(g.orders if g.rank else [])
        self.elems = elems = list(gmod.elements())
        index = {x: i for i, x in enumerate(elems)}
        self.br = [[index[gmod.reduce(g.bracket(x, y))] for y in elems]
                   for x in elems]
        n = g.rank
        self.pure_orders = tuple(gcd(g.orders[i], g.orders[j])
                                 for i in range(n) for j in range(n))
        self._closures = {}

    def pure_tensor(self, x, y) -> tuple:
        """x (x) y on the n^2 pure slots."""
        n, orders = self.g.rank, self.pure_orders
        return tuple((x[i] * y[j]) % orders[i * n + j]
                     for i in range(n) for j in range(n))

    @cached_property
    def tensor_ids(self) -> tuple:
        """(tensors, ten): the distinct pure tensors, and ``ten[x][y]``, the
        index of x (x) y among them, for element indices x and y."""
        ids = {}
        ten = [[ids.setdefault(self.pure_tensor(x, y), len(ids))
                for y in self.elems] for x in self.elems]
        return list(ids), ten

    @cached_property
    def pure_instances(self) -> dict:
        """The q-free relation instances on the pure slots, by kind.

        Both Jacobi-type families, plus the diagonal family of the kind:
        x (x) x for the exterior kind, and [x,y] (x) [x,y] for the tensor
        kind (the alternating closure of the symbol bracket: brackets
        tensored with themselves die even there).
        """
        tensors, ten = self.tensor_ids
        jacobi = _jacobi_instances(self.br, ten, tensors, self.pure_orders)
        brackets = {b for row in self.br for b in row}
        return {"exterior": jacobi | {tensors[ten[x][x]]
                                      for x in range(len(self.elems))},
                "tensor": jacobi | {tensors[ten[b][b]] for b in brackets}}

    def pure_closure(self, kind: str) -> set:
        """The subgroup of the pure slots that ``pure_instances[kind]``
        generates: the relation subgroup of the q = 0 square of that kind.

        Products share the set; none may change it.
        """
        closed = self._closures.get(kind)
        if closed is None:
            closed = self._closures[kind] = subgroup_closure(
                FiniteEnumeration(self.pure_orders), self.pure_instances[kind])
        return closed


class BruteProduct:
    """Element-level model of a q-tensor/exterior square of a finite algebra.

    The ambient is the bilinear stage (tensor square of the module, plus one
    brace block for q >= 1); the remaining relation families are instantiated
    over every element pair/triple and closed by enumeration. All but the
    brace family come from the ``BracketTable`` of g, which also holds the
    tables over element pairs: pass one to share it, and the instances with
    it, between the products of one algebra. At q = 0 the relation subgroup
    is the table's ``pure_closure`` itself; when q >= 1 a product pads that
    subgroup with n zero brace slots and extends it by its own brace family
    {[x,y]} - q (x (x) y) alone.
    """

    def __init__(self, g: LieAlgebra, q: int, kind: str, table=None):
        if table is None:
            table = BracketTable(g)
        elif table.g is not g:
            raise ValueError("bracket table of another algebra")
        self.g = g
        self.q = q
        self.kind = kind
        self.n = g.rank
        self.table = table
        self.gmod = table.gmod
        self.brace = q >= 1
        orders = list(table.pure_orders) + (list(g.orders) if self.brace else [])
        self.ambient = FiniteEnumeration(orders)
        pure = table.pure_closure(kind)
        if self.brace:
            pad = (0,) * self.n
            self.sub = _extend(self.ambient, {v + pad for v in pure},
                               self._brace_instances())
        else:
            self.sub = pure

    def tensor_elt(self, x, y) -> tuple:
        vec = self.table.pure_tensor(x, y)
        return vec + (0,) * self.n if self.brace else vec

    def brace_elt(self, x) -> tuple:
        vec = [0] * (self.n * self.n) + list(x)
        return self.ambient.reduce(tuple(vec))

    def _bracket(self, x, y) -> tuple:
        return self.gmod.reduce(self.g.bracket(x, y))

    def _brace_instances(self) -> set:
        """{[x,y]} - q (x (x) y), once per distinct (x (x) y, [x,y])."""
        table = self.table
        q, orders, elems = self.q, table.pure_orders, table.elems
        tensors, ten = table.tensor_ids
        pairs = {p for tx, bx in zip(ten, table.br) for p in zip(tx, bx)}
        return {tuple(-q * a % o for a, o in zip(tensors[t], orders))
                + elems[b] for t, b in pairs}

    def _relation_instances(self):
        """Every relation instance that generates ``sub``, zero dropped."""
        pure = self.table.pure_instances[self.kind]
        if not self.brace:
            seen = set(pure)
        else:
            pad = (0,) * self.n
            seen = {v + pad for v in pure} | self._brace_instances()
        seen.discard(self.ambient.zero())
        return seen

    def invariant_factors(self) -> tuple:
        return _invariants_from_census(self.ambient, self.sub)

    def is_zero(self, vec) -> bool:
        return self.ambient.reduce(vec) in self.sub


def brute_q_square(g: LieAlgebra, q: int, kind: str, table=None) -> tuple:
    """Invariant factors of the q-square of a small finite algebra.

    ``table``, a ``BracketTable`` of g, is shared rather than rebuilt.
    """
    return BruteProduct(g, q, kind, table).invariant_factors()


def brute_center(g: LieAlgebra, q: int, kind: str,
                 include_brace: bool = True) -> list:
    """Elements annihilating everything in the brute product.

    ``kind`` picks tensor or exterior; ``include_brace`` False gives the
    Ellis variants. Conditions are evaluated by direct membership over all
    elements.
    """
    prod = BruteProduct(g, q, kind)
    elems = list(prod.gmod.elements())
    out = []
    for x in elems:
        if include_brace and prod.brace and not prod.is_zero(prod.brace_elt(x)):
            continue
        if all(prod.is_zero(prod.tensor_elt(x, y)) for y in elems):
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# brute quadratic functor

def gamma_relation_rows(A: FiniteEnumeration):
    """Relation rows of the quadratic functor of A, one symbol per element.

    Symbols are indexed in ``A.elements()`` order, so index 0 is the zero
    element; each row is a tuple of sparse (k, c) terms, repeated indices
    summed. The defining families, for a, b, c in A and every scalar
    lam >= 0, are
      1. [lam a] - lam^2 [a];
      2. F(a, b, c) = [a+b+c] - [a+b] - [a+c] - [b+c] + [a] + [b] + [c];
      3. [lam a + b] - [lam a] + lam [a] + (lam - 1) [b] - lam [a+b].
    With the cross-effect c(x, y) = [x+y] - [x] - [y], symmetric in x and y,
    F(a, b, c) is c(a+b, c) - c(a, c) - c(b, c), so c is additive in each
    slot modulo family 2. F is symmetric in (a, b, c), and F(a, 0, c) is
    [0], so [0] and every c(0, y) lie in the lattice. Family 3 is
    c(lam a, b) - lam c(a, b), which follows from additivity by induction on
    lam.

    The same induction, with [(k+1) a] = [k a] + [a] + c(k a, a) and
    c(k a, a) = k c(a, a), gives [k a] = k [a] + C(k, 2) c(a, a) for every
    k >= 0. So the family-1 row at lam is C(lam, 2) phi(a), with
    phi(a) = [2a] - 4 [a] = c(a, a) - 2 [a], the family-1 row at lam = 2.

    The rows kept are F over the index-ordered triples a <= b <= c of
    nonzero elements that contain a generator, yielded first and in
    decreasing lexicographic order; then [0]; then phi(e_i) for each
    generator e_i of A. The order changes no Hermite form, only the
    reduction steps the kernel takes to reach it: over the 25 groups of
    order <= 16 it takes 16,309, against 25,532 with [0] and the phi rows
    first and the triples in increasing order. The rows span every
    instance, in two steps.
      - Family 2. With D(x) = c(x, c), F(a, b, c) = D(a+b) - D(a) - D(b),
        and expanding each term gives
        F(a, b' + g, c) = F(a + b', g, c) + F(a, b', c) - F(b', g, c).
        Every b is a sum of generators, so induction on their number, from
        F(a, 0, c) = [0], writes F(a, b, c) through rows whose middle
        argument is a generator. By symmetry those are kept rows, or [0]
        when a or c is zero.
      - Family 1. phi is additive modulo family 2: c is bilinear and
        symmetric there, so phi(a+b) - phi(a) - phi(b)
        = c(a+b, a+b) - c(a, a) - c(b, b) - 2 c(a, b) = 0. Hence phi(a) is
        the sum of the phi(e_i) over a's generator expansion, and every
        family-1 row, C(lam, 2) phi(a), lies in the span.
    """
    elems = list(A.elements())
    index = {e: i for i, e in enumerate(elems)}
    nsym = len(elems)
    add = [[index[A.add(a, b)] for b in elems] for a in elems]
    rank = len(A.orders)
    gens = {index[A.reduce(tuple(int(i == j) for j in range(rank)))]
            for i in range(rank)} - {0}
    for ia in range(nsym - 1, 0, -1):
        add_a = add[ia]
        for ib in range(nsym - 1, ia - 1, -1):
            iab, add_b = add_a[ib], add[ib]
            for ic in range(nsym - 1, ib - 1, -1):
                if ia in gens or ib in gens or ic in gens:
                    yield ((add[iab][ic], 1), (ia, 1), (ib, 1), (ic, 1),
                           (iab, -1), (add_a[ic], -1), (add_b[ic], -1))
    yield ((0, 1),)
    for ia in sorted(gens):
        yield ((add[ia][ia], 1), (ia, -4))


def brute_gamma(orders: Sequence[int]) -> tuple:
    """Invariant factors of the quadratic functor of a finite module.

    One integer generator per module element, modulo the relation lattice of
    ``gamma_relation_rows``: the span of every instance of the defining
    families, over every element tuple and every scalar. The closed form
    cross-checks it.
    """
    A = FiniteEnumeration(orders)
    if A.size > GAMMA_CAP:
        raise TooLarge(f"module of order {A.size} exceeds {GAMMA_CAP}")
    return FpModule.from_terms(A.size, gamma_relation_rows(A)).invariant_factors
