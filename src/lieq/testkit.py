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
p^k e_i. The quadratic functor oracle (``brute_gamma``) is a lattice over
Z, so it reduces its relation rows instead.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
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
    """Extend the subgroup ``closed`` in place by each of ``gens``.

    Adding g to a subgroup H gives the disjoint cosets H + c g for
    0 <= c < m, where m is the least c >= 1 with c g in H. For c < m, c g
    lies in no coset H + j g with j < c (else (c - j) g would be in H), so
    the walk stops exactly at m and makes each new element by one addition.
    """
    orders = ambient.orders
    for g in gens:
        g = ambient.reduce(g)
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
    return _extend(ambient, {ambient.zero()}, gens)


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

class BracketTable:
    """The elements of a small finite algebra and the brackets among them.

    ``elems`` lists the elements in ``FiniteEnumeration.elements`` order, and
    ``br[x][y]`` is the index of the reduced bracket of elements x and y:
    |g|^2 calls of ``g.bracket``. It depends on the algebra only, so the
    (q, kind) products of one algebra can share one table.
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


class BruteProduct:
    """Element-level model of a q-tensor/exterior square of a finite algebra.

    The ambient is the bilinear stage (tensor square of the module, plus one
    brace block for q >= 1); the remaining relation families are instantiated
    over every element pair/triple and closed by enumeration. Two tables
    over element pairs serve them: the ``BracketTable`` of g (pass one to
    share it between the products of one algebra) and the id of the pure
    tensor, one int per distinct tensor. The two Jacobi-type families are
    collected as a set of id triples, and the modular combination
    ``u - v + w`` runs once per distinct triple.
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
        self.pure_orders = [gcd(g.orders[i], g.orders[j])
                            for i in range(self.n) for j in range(self.n)]
        self.brace = q >= 1
        orders = self.pure_orders + (list(g.orders) if self.brace else [])
        self.ambient = FiniteEnumeration(orders)
        self.sub = subgroup_closure(self.ambient, self._relation_instances())

    def tensor_elt(self, x, y) -> tuple:
        n = self.n
        vec = [(x[i] * y[j]) % self.pure_orders[i * n + j] if self.pure_orders[i * n + j] else 0
               for i in range(n) for j in range(n)]
        if self.brace:
            vec += [0] * n
        return tuple(vec)

    def brace_elt(self, x) -> tuple:
        vec = [0] * (self.n * self.n) + list(x)
        return self.ambient.reduce(tuple(vec))

    def _bracket(self, x, y) -> tuple:
        return self.gmod.reduce(self.g.bracket(x, y))

    def _relation_instances(self):
        orders = self.ambient.orders
        zero = self.ambient.zero()
        elems, br = self.table.elems, self.table.br
        ids = {}
        ten = [[ids.setdefault(self.tensor_elt(x, y), len(ids)) for y in elems]
               for x in elems]
        tensors = list(ids)
        idx = range(len(elems))
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

        def comb(u, v, w):
            return tuple((a - b + c) % o for a, b, c, o in zip(u, v, w, orders))

        seen = {comb(tensors[i], tensors[j], tensors[k]) for i, j, k in triples}
        if self.brace:
            q = self.q
            braces = [self.brace_elt(x) for x in elems]
            for x in idx:
                for y in idx:
                    # {[x,y]} - q (x (x) y)
                    qt = tuple(q * a for a in tensors[ten[x][y]])
                    seen.add(comb(braces[br[x][y]], qt, zero))
        if self.kind == "exterior":
            for x in idx:
                seen.add(tensors[ten[x][x]])
        else:
            # alternating closure of the symbol bracket: brackets tensored
            # with themselves die even in the tensor kind
            for b in {b for row in br for b in row}:
                seen.add(tensors[ten[b][b]])
        seen.discard(zero)
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

    Symbols are indexed in ``A.elements()`` order; each row is a tuple of
    sparse (k, c) terms, repeated indices summed. The defining families,
    for a, b, c in A and every scalar lam >= 0, are
      1. [lam a] - lam^2 [a];
      2. [a+b+c] - [a+b] - [a+c] - [b+c] + [a] + [b] + [c];
      3. [lam a + b] - [lam a] + lam [a] + (lam - 1) [b] - lam [a+b].
    Only families 1 and 2 are instantiated. With the cross-effect
    c(a, b) = [a+b] - [a] - [b], family 2 is c(a+b, c) - c(a, c) - c(b, c),
    so c is additive in each slot, and family 3 is c(lam a, b) - lam c(a, b).
    Family 1 at lam = 0 gives [0], so c(0, b) = -[0] lies in the lattice, and
    c((lam+1) a, b) = c(lam a, b) + c(a, b) modulo family 2: family 3 follows
    by induction on lam.

    Finite scalar ranges give the full lattice over every lam >= 0. Let e be
    the exponent of A and write lam = r + e t with 0 <= r < e, so lam a = r a.
    For fixed r and a, a family-1 row is then R0 + t R1 + t^2 R2 with integer
    rows R_i. In the binomial basis, t^2 = t + 2 C(t, 2) with C(t, 2) an
    integer, so
      R(t) = R(0) + t (R(1) - R(0)) + C(t, 2) (R(2) - 2 R(1) + R(0)):
    the rows at t in {0, 1, 2} span every t, hence lam runs over [0, 3e). A
    family-2 row is symmetric in (a, b, c), so index-ordered triples
    a <= b <= c give every row. No scalar or triple outside these ranges
    adds to the lattice.
    """
    elems = list(A.elements())
    index = {e: i for i, e in enumerate(elems)}
    nsym = len(elems)
    exponent = lcm(*A.orders) if A.orders else 1
    add = [[index[A.add(a, b)] for b in elems] for a in elems]
    scale = [[index[A.scale(lam, a)] for a in elems] for lam in range(exponent)]
    for ia in range(nsym):
        for lam in range(3 * exponent):
            yield ((scale[lam % exponent][ia], 1), (ia, -lam * lam))
    for ia in range(nsym):
        for ib in range(ia, nsym):
            iab = add[ia][ib]
            add_a, add_b = add[ia], add[ib]
            for ic in range(ib, nsym):
                yield ((add[iab][ic], 1), (ia, 1), (ib, 1), (ic, 1),
                       (iab, -1), (add_a[ic], -1), (add_b[ic], -1))


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
