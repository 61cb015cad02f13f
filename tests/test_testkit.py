"""The brute-force oracles themselves, on the spec'd small instances."""

import random
from math import lcm

import pytest

from lieq import _kernel, exactlin, testkit, verify
from lieq._kernel import hnf_rows
from lieq.capability import ellis_centers, exterior_center
from lieq.errors import TooLarge, ValidationError
from lieq.exactlin import terms
from lieq.io_catalog import Catalog
from lieq.liealg import lie_algebra
from lieq.qtensor import q_exterior_product, q_tensor_product
from lieq.testkit import (
    BruteProduct,
    FiniteEnumeration,
    brute_center,
    brute_gamma,
    brute_module_quotient,
    brute_q_square,
    gamma_relation_rows,
    subgroup_closure,
)


def test_finite_enumeration():
    m = FiniteEnumeration([2, 3])
    assert m.size == 6
    assert len(list(m.elements())) == 6
    assert m.add((1, 2), (1, 2)) == (0, 1)
    with pytest.raises(TooLarge):
        FiniteEnumeration([2] * 13)


def test_input_checks_raise():
    for orders in ([0], [2, -1]):
        with pytest.raises(ValueError,
                           match="finite enumeration needs all orders >= 1"):
            FiniteEnumeration(orders)
    # equal constants, another algebra object: the table's shared relation
    # instances belong to the object it was built from
    g = lie_algebra([2, 2], {(0, 1): (0, 1)}, 2, "solv")
    twin = lie_algebra([2, 2], {(0, 1): (0, 1)}, 2, "solv")
    table = testkit.BracketTable(g)
    with pytest.raises(ValueError, match="bracket table of another algebra"):
        BruteProduct(twin, 0, "tensor", table)


def test_brute_module_quotient_examples():
    assert brute_module_quotient([4], []) == (4,)
    assert brute_module_quotient([4], [(2,)]) == (2,)
    # (1,1) has order 4 in Z/2+Z/4, so the quotient is Z/2
    assert brute_module_quotient([2, 4], [(1, 1)]) == (2,)
    assert brute_module_quotient([4, 4], [(1, 1)]) == (4,)


def test_subgroup_closure():
    m = FiniteEnumeration([6])
    assert sorted(subgroup_closure(m, [(2,)])) == [(0,), (2,), (4,)]


def test_wrong_length_vectors_are_rejected():
    """A short or long relation is an error, not a truncated one."""
    with pytest.raises(ValueError, match="does not match ambient rank"):
        brute_module_quotient([4, 4], [(2,)])
    with pytest.raises(ValueError, match="does not match ambient rank"):
        brute_module_quotient([4], [(1, 2)])
    m = FiniteEnumeration([2, 3])
    for call in (lambda: m.reduce((1,)), lambda: m.add((1, 1), (1,)),
                 lambda: m.scale(2, (1, 1, 1))):
        with pytest.raises(ValueError, match="does not match ambient rank"):
            call()


def test_product_oracle_uses_no_lattice_reduction(monkeypatch):
    """BruteProduct, the closure and the census enumerate elements only."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the product oracle reached the pipeline")

    g = Catalog.get("heisenberg@Z/2")
    monkeypatch.setattr(exactlin, "hnf_rows", forbidden)
    monkeypatch.setattr(testkit, "FpModule", forbidden)
    monkeypatch.setattr(_kernel, "hnf_rows", forbidden)
    monkeypatch.setattr(exactlin, "snf_with_transforms", forbidden)
    monkeypatch.setattr(exactlin, "FpModule", forbidden)
    for q in (0, 2):
        for kind in ("tensor", "exterior"):
            assert BruteProduct(g, q, kind).invariant_factors()
    assert brute_module_quotient([8, 4, 2], [(2, 1, 1)]) == (2, 8)


def test_brute_square_matches_spec_examples():
    z2 = Catalog.get("Z/2")
    assert brute_q_square(z2, 2, "tensor") == (2, 2)
    assert brute_q_square(z2, 2, "exterior") == (2,)


def test_brute_square_heisenberg_mod2():
    g = Catalog.get("heisenberg@Z/2")
    for q in (0, 2):
        for kind, build in (("tensor", q_tensor_product),
                            ("exterior", q_exterior_product)):
            assert brute_q_square(g, q, kind) == tuple(
                sorted(build(g, None, q).invariant_factors()))


def test_brute_gamma_examples():
    assert brute_gamma([]) == ()
    assert brute_gamma([2]) == (4,)
    assert brute_gamma([3]) == (3,)
    assert brute_gamma([2, 2]) == (2, 4, 4)
    with pytest.raises(TooLarge):
        brute_gamma([17])


def test_brute_center_examples():
    zero = Catalog.get("zero")
    assert brute_center(zero, 2, "exterior") == [()]
    z2 = Catalog.get("Z/2")
    assert brute_center(z2, 2, "exterior", include_brace=True) == [(0,)]
    assert brute_center(z2, 2, "exterior", include_brace=False) == [(0,), (1,)]


def _assert_brute_centers_match_pipeline(g, q):
    elems = list(FiniteEnumeration(g.orders).elements())
    brute = set(brute_center(g, q, "exterior", include_brace=True))
    sub = exterior_center(g, q)
    assert brute == {x for x in elems if sub.contains_vec(x)}
    brute_e = set(brute_center(g, q, "exterior", include_brace=False))
    sub_e = ellis_centers(g, q)[1]
    assert brute_e == {x for x in elems if sub_e.contains_vec(x)}


def test_brute_center_matches_pipeline():
    g = Catalog.get("heisenberg@Z/2")
    for q in (0, 2):
        _assert_brute_centers_match_pipeline(g, q)


def test_brute_rejects_infinite():
    with pytest.raises(TooLarge):
        brute_q_square(Catalog.get("Z"), 2, "tensor")


def test_solvable_rank2_diagonal_relation():
    """The instance that forces the alternating-closure relations."""
    g = lie_algebra([2, 2], {(0, 1): (0, 1)}, 2, "solv")
    for kind in ("tensor", "exterior"):
        assert brute_q_square(g, 0, kind) == tuple(sorted(
            (q_tensor_product if kind == "tensor" else q_exterior_product)
            (g, None, 0).invariant_factors()))


# ---------------------------------------------------------------------------
# the oracles as they were first written: every bracket recomputed per
# instance, scalars over 0..exponent^2 and all ordered triples. Kept here as
# references for the table-driven versions.

def reference_relation_instances(prod):
    ambient = prod.ambient
    add, neg = ambient.add, (lambda v: ambient.scale(-1, v))
    elems = list(prod.gmod.elements())
    seen = set()
    for x in elems:
        for xp in elems:
            bxxp = prod._bracket(x, xp)
            for y in elems:
                vec = add(prod.tensor_elt(bxxp, y),
                          add(neg(prod.tensor_elt(x, prod._bracket(xp, y))),
                              prod.tensor_elt(xp, prod._bracket(x, y))))
                seen.add(vec)
    for x in elems:
        for y in elems:
            byx = prod._bracket(y, x)
            for yp in elems:
                vec = add(prod.tensor_elt(x, prod._bracket(y, yp)),
                          add(neg(prod.tensor_elt(prod._bracket(yp, x), y)),
                              prod.tensor_elt(byx, yp)))
                seen.add(vec)
    if prod.brace:
        for x in elems:
            for y in elems:
                vec = add(prod.brace_elt(prod._bracket(x, y)),
                          ambient.scale(-prod.q, prod.tensor_elt(x, y)))
                seen.add(vec)
    if prod.kind == "exterior":
        for x in elems:
            seen.add(prod.tensor_elt(x, x))
    else:
        for x in elems:
            for y in elems:
                b = prod._bracket(x, y)
                seen.add(prod.tensor_elt(b, b))
    seen.discard(ambient.zero())
    return seen


def reference_subgroup_closure(ambient, gens):
    gens = sorted({ambient.reduce(g) for g in gens} - {ambient.zero()})
    closed = {ambient.zero()}
    queue = [ambient.zero()]
    while queue:
        x = queue.pop()
        for g in gens:
            y = ambient.add(x, g)
            if y not in closed:
                closed.add(y)
                queue.append(y)
    return closed


def reference_census(ambient, sub):
    qsize = ambient.size // len(sub)
    if qsize == 1:
        return ()
    partitions = {}
    for p in testkit._factorize(qsize):
        logs = [0]
        k = 1
        while True:
            count = sum(1 for a in ambient.elements()
                        if ambient.scale(p ** k, a) in sub) // len(sub)
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


def reference_gamma_rows(A):
    elems = list(A.elements())
    index = {e: i for i, e in enumerate(elems)}
    nsym = len(elems)
    exponent = lcm(*A.orders) if A.orders else 1
    cap = exponent * exponent
    for a in elems:
        ia = index[a]
        for lam in range(cap + 1):
            row = [0] * nsym
            row[index[A.scale(lam, a)]] += 1
            row[ia] -= lam * lam
            yield row
    for a in elems:
        for b in elems:
            ab = A.add(a, b)
            for c in elems:
                row = [0] * nsym
                row[index[A.add(ab, c)]] += 1
                row[index[a]] += 1
                row[index[b]] += 1
                row[index[c]] += 1
                row[index[ab]] -= 1
                row[index[A.add(a, c)]] -= 1
                row[index[A.add(b, c)]] -= 1
                yield row
    for a in elems:
        for b in elems:
            ab = A.add(a, b)
            for lam in range(cap + 1):
                la = A.scale(lam, a)
                row = [0] * nsym
                row[index[A.add(la, b)]] += 1
                row[index[a]] += lam
                row[index[b]] += lam - 1
                row[index[ab]] -= lam
                row[index[la]] -= 1
                yield row


def test_relation_instances_match_reference():
    """Each product with a table of its own, and with one ``BracketTable``
    shared by every (q, kind) product of its algebra.

    The largest q comes first, so the shared q-free instances serve a padded
    ambient before an unpadded one; a product that changed them, or padded
    them wrongly, would differ from the reference.
    """
    algs = verify.oracle_rank2_algebras()
    z2 = [g for g in algs if g.orders[0] == 2]
    z3 = [g for g in algs if g.orders[0] == 3]
    assert len(z2) == 5
    cases = [(g, range(5)) for g in z2]
    nonabelian_z3 = [g for g in z3 if g.name in
                     ("rank2[0,1]@Z/3", "rank2[1,0]@Z/3", "rank2[1,2]@Z/3")]
    cases += [(g, (0, 2)) for g in [Catalog.get("heisenberg@Z/2")] + nonabelian_z3]
    for g, qs in cases:
        table = testkit.BracketTable(g)
        for q in sorted(qs, reverse=True):
            for kind in ("tensor", "exterior"):
                for prod in (BruteProduct(g, q, kind),
                             BruteProduct(g, q, kind, table)):
                    assert prod._relation_instances() == \
                        reference_relation_instances(prod), (g.name, q, kind)


def test_oracle_sweep_walks_the_jacobi_families_once_per_algebra(monkeypatch):
    walks = []
    walk = testkit._jacobi_instances

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(testkit, "_jacobi_instances", counted)
    results = verify.check_oracle_products()
    assert len(results) == 150 and all(r.ok for r in results)
    assert len(walks) == len(verify.oracle_rank2_algebras()) == 15


def test_oracle_sweep_closes_the_pure_instances_once_per_algebra_and_kind(
        monkeypatch):
    closures = []
    closure = testkit.subgroup_closure

    def counted(ambient, gens):
        closures.append(ambient.orders)
        return closure(ambient, gens)

    monkeypatch.setattr(testkit, "subgroup_closure", counted)
    results = verify.check_oracle_products()
    assert len(results) == 150 and all(r.ok for r in results)
    assert len(closures) == 2 * len(verify.oracle_rank2_algebras()) == 30


def test_relation_instances_match_reference_past_size_cap(monkeypatch):
    """Filiform L4 over Z/2, where the two Jacobi-type families differ.

    On rank 2, and on every valid rank-3 table over Z/2 and over
    Z/2+Z/2+Z/4, the two families have equal instance sets, so the cases
    above would not notice either one missing. L4 has an ambient of 2^16
    elements, past SIZE_CAP; only the instance sets are compared here, so the
    cap is raised and the closure skipped.
    """
    monkeypatch.setattr(testkit, "SIZE_CAP", 2 ** 16)
    monkeypatch.setattr(testkit, "subgroup_closure", lambda ambient, gens: set())
    g = lie_algebra([2, 2, 2, 2], {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1)},
                    2, "L4@Z/2")
    prod = BruteProduct(g, 0, "tensor")
    assert prod._relation_instances() == reference_relation_instances(prod)


def random_generators(rng, orders):
    """A seeded generator list with zero, duplicate, negative and unreduced
    entries mixed in."""
    gens = [tuple(rng.randrange(-2 * o, 2 * o) for o in orders)
            for _ in range(rng.randrange(0, 4))]
    if gens:
        first = gens[0]
        gens.append(first)
        gens.append(tuple(x + 3 * o for x, o in zip(first, orders)))
        gens.append(tuple(-x for x in gens[-1]))
    gens.append((0,) * len(orders))
    rng.shuffle(gens)
    return gens


def test_subgroup_closure_matches_reference():
    rng = random.Random(14)
    for orders in ([4, 6, 9], [2, 8], [3, 3, 3, 3]):
        ambient = FiniteEnumeration(orders)
        sizes = set()
        for _ in range(40):
            gens = random_generators(rng, orders)
            closed = subgroup_closure(ambient, gens)
            assert closed == reference_subgroup_closure(ambient, gens), \
                (orders, gens)
            sizes.add(len(closed))
        assert len(sizes) >= 4, (orders, sizes)


def test_census_matches_reference():
    rng = random.Random(15)
    deep = 0
    for orders in ([8, 4, 2], [9, 27], [4, 6, 12]):
        ambient = FiniteEnumeration(orders)
        for _ in range(25):
            sub = subgroup_closure(ambient, random_generators(rng, orders))
            factors = testkit._invariants_from_census(ambient, sub)
            assert factors == reference_census(ambient, sub), (orders, sub)
            # an element of order p^2 makes the k-loop run three steps
            deep += any(f % (p * p) == 0 for f in factors for p in (2, 3))
    assert deep >= 30


def test_census_matches_reference_on_the_oracle_sweep():
    for g in verify.oracle_rank2_algebras():
        for q in range(5):
            for kind in ("tensor", "exterior"):
                prod = BruteProduct(g, q, kind)
                assert prod.invariant_factors() == \
                    reference_census(prod.ambient, prod.sub), (g.name, q, kind)


def test_gamma_rows_span_the_reference_lattice():
    groups = [orders for orders in verify._abelian_groups_up_to(16)
              if lcm(*orders) <= 8]
    assert len(groups) == 17
    for orders in groups:
        A = FiniteEnumeration(orders)
        assert hnf_rows(gamma_relation_rows(A), A.size) == \
            hnf_rows([terms(r) for r in reference_gamma_rows(A)], A.size), orders


def test_gamma_rows_span_the_dropped_instances_past_exponent_8():
    """The groups of order <= 16 too wide for the reference lattice.

    The rows of ``gamma_relation_rows`` must span every instance they leave
    out: the family-1 rows at every a and every lam in [0, 3e), e the
    exponent, and the family-2 rows at every triple (a, b, c). Rows lie in
    the lattice when adding them leaves the Hermite form unchanged; the form
    of the kept rows stands for them.
    """
    groups = list(verify._abelian_groups_up_to(16))
    assert len(groups) == 25
    assert sum(1 for orders in groups
               for _ in gamma_relation_rows(FiniteEnumeration(orders))) == 2209
    wide = [orders for orders in groups if lcm(*orders) > 8]
    assert len(wide) == 8
    for orders in wide:
        A = FiniteEnumeration(orders)
        n = A.size
        elems = list(A.elements())
        index = {e: i for i, e in enumerate(elems)}
        hermite = hnf_rows(gamma_relation_rows(A), n)
        rows = [terms(r) for r in hermite]
        dropped = [((index[A.scale(lam, a)], 1), (index[a], -lam * lam))
                   for a in elems for lam in range(3 * lcm(*orders))]
        dropped += [((index[A.add(A.add(a, b), c)], 1), (index[a], 1),
                     (index[b], 1), (index[c], 1), (index[A.add(a, b)], -1),
                     (index[A.add(a, c)], -1), (index[A.add(b, c)], -1))
                    for a in elems for b in elems for c in elems]
        assert hnf_rows(rows + dropped, n) == hermite, orders


# ---------------------------------------------------------------------------
# random structure constants

def random_rank3_mod2():
    """Eight distinct seeded rank-3 tables over Z/2 that pass validation."""
    rng = random.Random(2026)
    pairs = ((0, 1), (0, 2), (1, 2))
    seen, algs = set(), []
    while len(algs) < 8:
        table = tuple(tuple(rng.randrange(2) for _ in range(3)) for _ in pairs)
        if table in seen:
            continue
        seen.add(table)
        try:
            g = lie_algebra([2, 2, 2], dict(zip(pairs, table)), 2,
                            f"random{table}")
        except ValidationError:
            continue
        algs.append(g)
    return algs


def test_shared_closures_match_the_closure_of_every_instance():
    """Each product's subgroup, the table's pure closure padded and extended
    by the brace family, against one closure of all its relation instances:
    the 150 oracle cases and the seeded rank-3 tables, with one table per
    algebra."""
    cases = [(g, range(5)) for g in verify.oracle_rank2_algebras()]
    cases += [(g, range(5)) for g in random_rank3_mod2()]
    count = 0
    for g, qs in cases:
        table = testkit.BracketTable(g)
        for q in qs:
            for kind in ("tensor", "exterior"):
                prod = BruteProduct(g, q, kind, table)
                assert prod.sub == subgroup_closure(
                    prod.ambient, prod._relation_instances()), (g.name, q, kind)
                count += 1
    assert count == 150 + 80


def test_random_rank3_mod2_matches_pipeline():
    """Rank 3 over Z/3 (order 27) puts the q >= 1 ambient past SIZE_CAP."""
    for g in random_rank3_mod2():
        for q in (0, 2):
            for kind, build in (("tensor", q_tensor_product),
                                ("exterior", q_exterior_product)):
                assert brute_q_square(g, q, kind) == tuple(sorted(
                    build(g, None, q).invariant_factors())), (g.name, q, kind)
        _assert_brute_centers_match_pipeline(g, 2)
