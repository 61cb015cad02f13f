"""Exact linear algebra: SNF, modules, submodules, kernels, quotients."""

import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from lieq.errors import NotWellDefined
from lieq.exactlin import (
    FpModule,
    IntMatrix,
    ModuleHom,
    Submodule,
    apply_matrix,
    block_kernel,
    dense,
    det,
    describe_factors,
    exterior_square_ab,
    hermite_coords,
    is_free_over,
    lambda_q_modulus,
    merged,
    merged_factors,
    quotient,
    snf,
    tensor_square_ab,
    terms,
    unit_vec,
)
from lieq.testkit import brute_module_quotient

matrices = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-20, 20), min_size=c, max_size=c),
            min_size=r, max_size=r)))


# -- Smith normal form --------------------------------------------------------

def test_snf_zero_matrix():
    d, u, v = snf(IntMatrix([[0, 0], [0, 0]]))
    assert d == IntMatrix([[0, 0], [0, 0]])
    assert u == IntMatrix([[1, 0], [0, 1]])
    assert v == IntMatrix([[1, 0], [0, 1]])


def test_snf_identity():
    m = IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    d, u, v = snf(m)
    assert d == m


def test_snf_2x2_example():
    m = IntMatrix([[2, 4], [6, 8]])
    d, u, v = snf(m)
    assert d == IntMatrix([[2, 0], [0, 4]])
    assert u * m * v == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_snf_postconditions(rows):
    m = IntMatrix(rows)
    d, u, v = snf(m)
    assert u * m * v == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [d[i][i] for i in range(min(m.nrows, m.ncols))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    assert all(d[i][j] == 0 for i in range(m.nrows)
               for j in range(m.ncols) if i != j)


def _minor_gcd(rows, k):
    """k-th determinantal divisor: gcd of all k x k minors."""
    m = len(rows)
    n = len(rows[0])
    g = 0
    for ris in itertools.combinations(range(m), k):
        for cis in itertools.combinations(range(n), k):
            sub = IntMatrix([[rows[i][j] for j in cis] for i in ris])
            g = gcd(g, det(sub))
    return g


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8).flatmap(
    lambda n: st.lists(st.lists(st.integers(-20, 20), min_size=n, max_size=n),
                       min_size=2, max_size=8)))
def test_snf_determinantal_divisors(rows):
    m = IntMatrix(rows)
    d, _, _ = snf(m)
    diag = [d[i][i] for i in range(min(m.nrows, m.ncols))]
    for k in range(1, min(3, len(diag)) + 1):
        prod = 1
        for x in diag[:k]:
            prod *= x
        assert abs(prod) == abs(_minor_gcd(rows, k))


# -- canonicalization ----------------------------------------------------------

def test_canonicalize_examples():
    assert FpModule(1, [], 0).invariant_factors == (0,)
    assert FpModule(1, [[2]], 0).invariant_factors == (2,)
    m = FpModule(2, [[2, 0], [0, 4]], 0)
    assert m.invariant_factors == (2, 4)
    # independent oracle: the same lattice inside (Z/8)^2, order census
    assert brute_module_quotient([8, 8], [(2, 0), (0, 4)]) == (2, 4)


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_canonicalize_idempotent(rows):
    m = FpModule(len(rows[0]), rows)
    again = FpModule.diagonal(m.invariant_factors)
    assert again.invariant_factors == m.invariant_factors


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(1, 4))
def test_modulus_divides_factors(m, n):
    mod = FpModule(n, [], m)
    assert all(d >= 1 and m % d == 0 for d in mod.invariant_factors)


def test_roundtrip_coordinates():
    m = FpModule(3, [[2, 4, 0], [0, 6, 3]])
    for v in [(1, 0, 0), (0, 1, 0), (3, -2, 5)]:
        w = m.canon(terms(v))
        lifted = dense(m.lift_pruned(w), m.ambient_rank)
        assert m.same_element(v, lifted)


def _check_core_smith(m, vectors):
    """Orders, lifts and membership of m against the full lattice's Smith form."""
    n = m.ambient_rank
    rows = m.lattice_rows
    d, _, _ = snf(IntMatrix([dense(r, n) for r in rows], ncols=n))
    assert m.orders == tuple(d[i][i] if i < len(rows) else 0 for i in range(n))
    for t, lift in enumerate(m.canonical_basis()):
        assert dense(m.canon(lift), m.rank) == unit_vec(m.rank, t)
    for v in vectors:
        assert m.is_lattice_member(v) == (hermite_coords(rows, terms(v)) is not None)


def reference_hermite_coords(rows, v):
    """The dense back-substitution that ``hermite_coords`` replaced, kept verbatim.

    ``rows`` are merged term rows in echelon order, each led by its pivot;
    ``v`` is a dense vector. Back-substitution: divide exactly at each
    pivot; nothing may be left.
    """
    r = list(v)
    alpha = []
    for row in rows:
        c, p = row[0]
        a, rem = divmod(r[c], p)
        if rem:
            return None
        if a:
            for k, x in row:
                r[k] -= a * x
        alpha.append(a)
    return None if any(r) else tuple(alpha)


def _split_terms(rng, v):
    """v as shuffled (k, c) terms: entries split in two, zeros, cancelling pairs."""
    row = []
    for k, x in enumerate(v):
        if x or rng.random() < 0.3:
            part = rng.randint(-3, 3)
            row += [(k, part), (k, x - part)]
        if rng.random() < 0.2:
            y = rng.randint(1, 5)
            row += [(k, y), (k, -y)]
        if rng.random() < 0.2:
            row.append((k, 0))
    rng.shuffle(row)
    return row


def test_hermite_coords_on_terms_matches_the_dense_reference():
    """Members and non-members of random lattices over Z, Z/4 and Z/6."""
    rng = random.Random(20261020)
    members = strangers = 0
    for base in (0, 4, 6):
        for _ in range(120):
            n = rng.randint(1, 7)
            rels = [[rng.choice((0, 0, 0, 1, 2, 3, -2, 6)) for _ in range(n)]
                    for _ in range(rng.randint(0, n + 2))]
            rows = FpModule.from_terms(n, map(terms, rels), base).lattice_rows
            dense_rows = [dense(r, n) for r in rows]
            for _ in range(4):
                coeffs = [rng.randint(-3, 3) for _ in rows]
                inside = tuple(sum(c * r[k] for c, r in zip(coeffs, dense_rows))
                               for k in range(n))
                anywhere = tuple(rng.randint(-7, 7) for _ in range(n))
                for v in (inside, anywhere):
                    want = reference_hermite_coords(rows, v)
                    got = hermite_coords(rows, _split_terms(rng, v))
                    assert got is None or got == merged(got)
                    assert (None if got is None else dense(got, len(rows))) == want
                    members += want is not None
                    strangers += want is None
    assert members >= 1500 and strangers >= 1000


def reference_is_lattice_sum(module, row):
    """The dense membership rule that ``is_lattice_sum`` replaced, kept verbatim:
    every Smith coordinate is summed and tested against its factor."""
    return all((x % d == 0) if d else (x == 0)
               for x, d in zip(module._smith_coords(row), module.invariant_factors))


def test_sparse_lattice_membership_matches_the_dense_rule():
    """Random modules over Z, Z/4 and Z/6; the term lists repeat indices, hold
    zero coefficients and cancelling pairs, and touch unit-pivot columns."""
    rng = random.Random(20261021)
    members = strangers = on_units = 0
    for base in (0, 4, 6):
        for _ in range(120):
            n = rng.randint(1, 7)
            rels = [[rng.choice((0, 0, 0, 1, 2, 3, -2, 6)) for _ in range(n)]
                    for _ in range(rng.randint(0, n + 2))]
            m = FpModule.from_terms(n, map(terms, rels), base)
            rows = [dense(r, n) for r in m.lattice_rows]
            units = {r[0][0] for r in m.lattice_rows if r[0][1] == 1}
            for _ in range(4):
                coeffs = [rng.randint(-3, 3) for _ in rows]
                inside = tuple(sum(c * r[k] for c, r in zip(coeffs, rows))
                               for k in range(n))
                anywhere = tuple(rng.randint(-7, 7) for _ in range(n))
                for v in (inside, anywhere):
                    row = _split_terms(rng, v)
                    want = reference_is_lattice_sum(m, row)
                    assert m.is_lattice_sum(row) == want
                    assert m.is_lattice_sum(iter(row)) == want
                    members += want
                    strangers += not want
                    on_units += any(c and k in units for k, c in row)
    assert members >= 1500 and strangers >= 1000 and on_units >= 1000


def _lattice_and_random_vectors(rng, m):
    n = m.ambient_rank
    rows = [dense(r, n) for r in m.lattice_rows]
    out = []
    for _ in range(6):
        out.append(tuple(rng.randint(-6, 6) for _ in range(n)))
        coeffs = [rng.randint(-3, 3) for _ in rows]
        out.append(tuple(sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(n)))
    return out


def test_core_smith_form_matches_the_full_one():
    rng = random.Random(20231104)
    rings, cores = set(), 0
    for _ in range(200):
        n = rng.randint(2, 6)
        relations = [tuple(rng.choice((0, 0, 1, 2, 3, -2)) for _ in range(n))
                     for _ in range(rng.randint(1, n + 1))]
        m = FpModule(n, relations, rng.choice((0, 2, 3, 4)))
        rings.add(m.base_modulus)
        _check_core_smith(m, _lattice_and_random_vectors(rng, m))
        units = sum(next(x for x in dense(r, n) if x) == 1 for r in m.lattice_rows)
        cores += 0 < units < len(m.lattice_rows)
    assert rings == {0, 2, 3, 4}
    assert cores >= 50


@settings(max_examples=60, deadline=None)
@given(matrices, st.sampled_from([0, 2, 3, 4]), st.randoms(use_true_random=False))
def test_core_smith_form_matches_the_full_one_on_any_matrix(rows, base, rng):
    m = FpModule(len(rows[0]), rows, base)
    _check_core_smith(m, _lattice_and_random_vectors(rng, m))


# -- submodules ----------------------------------------------------------------

def test_submodule_examples():
    z2 = FpModule(2, [])
    assert Submodule(z2, []).is_zero()
    z = FpModule(1, [])
    s = Submodule(z, [terms((2,))])
    assert s.invariant_factors == (0,)
    assert s.basis() == [(2,)] or s.basis() == [(-2,)]
    z4 = FpModule(1, [], 4)
    s = Submodule(z4, [terms((2,))])
    assert s.invariant_factors == (2,)
    assert s.contains_vec((2,)) and not s.contains_vec((1,))


def test_submodule_takes_term_rows_inside_the_ambient_rank():
    z2 = FpModule(2, [])
    # repeated indices are summed and zero coefficients allowed
    messy = Submodule(z2, [((1, 3), (0, 0), (1, -1), (1, 0))])
    assert messy.same(Submodule(z2, [((1, 2),)]))
    assert messy.basis() == [(0, 2)]
    assert Submodule(z2, [((0, 0),)]).is_zero()
    # an index outside [0, 2) is rejected, even with coefficient 0
    for row in (((2, 1),), ((2, 0),), ((-1, 1),), ((0, 1), (2, 0))):
        with pytest.raises(ValueError, match="generator index out of ambient range"):
            Submodule(z2, [row])


def test_submodule_solve_and_embedding():
    z4sq = FpModule(2, [], 4)
    s = Submodule(z4sq, [terms((1, 1)), terms((2, 0))])
    mod, emb = s.as_module_with_embedding()
    for t, b in enumerate(s.basis()):
        assert emb(unit_vec(mod.ambient_rank, t)) == b
    coords = s.solve(terms((3, 1)))
    assert coords is not None
    acc = [0, 0]
    for c, b in zip(dense(coords, len(s.basis())), s.basis()):
        acc[0] += c * b[0]
        acc[1] += c * b[1]
    assert z4sq.same_element(tuple(acc), (3, 1))
    assert s.solve(terms((0, 1))) is None or s.contains_vec((0, 1))


def _divisors_or_free(m):
    """Orders a diagonal summand may take over Z (m = 0) or Z/m."""
    return [0, 1, 2, 3, 4, 6] if m == 0 else [d for d in range(1, m + 1) if m % d == 0]


@st.composite
def diagonal_modules(draw, base_modulus, min_rank=0, max_rank=4):
    """Random diagonal module, orders 1 (zero summands) included."""
    n = draw(st.integers(min_rank, max_rank))
    orders = draw(st.lists(st.sampled_from(_divisors_or_free(base_modulus)),
                           min_size=n, max_size=n))
    return FpModule.diagonal(orders, base_modulus)


vectors = st.integers(-6, 6)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_basis_is_a_function_of_the_submodule(data):
    m = data.draw(st.sampled_from([0, 2, 4, 6]))
    ambient = data.draw(diagonal_modules(m, min_rank=1))
    n = ambient.ambient_rank
    gens = data.draw(st.lists(st.lists(vectors, min_size=n, max_size=n),
                              max_size=4))
    # Same sub-lattice, other generators: permute, negate, add multiples of
    # the other generators and of ambient relations, append a combination.
    other = [list(g) for g in data.draw(st.permutations(gens))]
    lattice = [dense(r, n) for r in ambient.lattice_rows]
    for i, g in enumerate(other):
        if data.draw(st.booleans()):
            other[i] = g = [-x for x in g]
        for j in range(len(other)):
            if j != i:
                c = data.draw(st.integers(-3, 3))
                g[:] = [x + c * y for x, y in zip(g, other[j])]
        for r in lattice:
            c = data.draw(st.integers(-2, 2))
            g[:] = [x + c * y for x, y in zip(g, r)]
    if other:
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(other),
                                    max_size=len(other)))
        other.append([sum(c * g[k] for c, g in zip(coeffs, other))
                      for k in range(n)])
    a, b = Submodule(ambient, map(terms, gens)), Submodule(ambient, map(terms, other))
    assert a.same(b)
    assert a.basis() == b.basis()
    assert a.invariant_factors == b.invariant_factors
    for v in a.basis():
        assert next(x for x in v if x) > 0
    assert Submodule(ambient, map(terms, a.basis())).same(a)


# -- kernels -------------------------------------------------------------------

def test_kernel_examples():
    z6 = FpModule(1, [], 6)
    assert ModuleHom(z6, z6, [terms([1])]).kernel().is_zero()
    z = FpModule(1, [])
    assert ModuleHom(z, z, [terms([0])]).kernel().invariant_factors == (0,)
    # multiplication by 2 on Z/6: enumerating residues gives {0, 3} = Z/2
    k = ModuleHom(z6, z6, [terms([2])]).kernel()
    assert k.invariant_factors == (2,)
    assert k.contains_vec((3,)) and not k.contains_vec((1,))
    brute = [x for x in range(6) if (2 * x) % 6 == 0]
    assert brute == [0, 3]


def _sparse(blocks):
    """The dense block rows as the sparse images ``block_kernel`` takes."""
    return [(t, [terms(r) for r in rows]) for t, rows in blocks]


def _stacked_kernels(source, blocks):
    """Kernel of a block map through the direct sum presented by hand.

    Returned twice: through a ModuleHom into the stacked module, reduced anew,
    and as the left kernel of the images stacked over its lattice, read off
    the Smith form U * stack * V == D as the rows of U whose row of D is zero.
    """
    ns = source.ambient_rank
    total = sum(t.ambient_rank for t, _ in blocks)
    rels, rows, off = [], [[] for _ in range(ns)], 0
    for t, mat in blocks:
        for r in t.relations:
            rels.append([0] * off + list(dense(r, t.ambient_rank))
                        + [0] * (total - off - t.ambient_rank))
        for row, img in zip(rows, mat):
            row.extend(img)
        off += t.ambient_rank
    stacked = FpModule(total, rels, source.base_modulus)
    via_hom = ModuleHom(source, stacked, [terms(r) for r in rows],
                        check=False).kernel()
    stack = rows + [list(dense(r, total)) for r in stacked.lattice_rows]
    if stack and total:
        d, u, _ = snf(IntMatrix(stack, ncols=total))
        sols = [u[i] for i in range(len(stack)) if not any(d[i])]
    else:
        sols = [unit_vec(len(stack), i) for i in range(len(stack))]
    return via_hom, Submodule(source, [terms(x[:ns]) for x in sols])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_block_kernel_matches_stacked_module(data):
    m = data.draw(st.sampled_from([0, 0, 2, 4, 6]))
    source = data.draw(diagonal_modules(m))
    ns = source.ambient_rank
    blocks = []
    for t in data.draw(st.lists(diagonal_modules(m), max_size=4)):
        nt = t.ambient_rank
        blocks.append((t, data.draw(st.lists(
            st.lists(vectors, min_size=nt, max_size=nt), min_size=ns, max_size=ns))))
    got = block_kernel(source, _sparse(blocks))
    for want in _stacked_kernels(source, blocks):
        assert got.same(want)
        assert got.basis() == want.basis()


def test_block_kernel_zero_rank_and_zero_module_blocks():
    src = FpModule.diagonal([0, 4])
    empty = FpModule.diagonal([])
    trivial = FpModule.diagonal([1, 1])
    z2 = FpModule.diagonal([2])
    blocks = [(empty, [(), ()]), (trivial, [(1, 5), (3, 0)]), (z2, [(1,), (1,)])]
    got = block_kernel(src, _sparse(blocks))
    for want in _stacked_kernels(src, blocks):
        assert got.same(want)
    assert got.contains_vec((1, 1)) and not got.contains_vec((1, 0))
    # nothing to map into: the kernel is everything
    assert block_kernel(src, _sparse([(empty, [(), ()])])).same(Submodule.full(src))
    assert block_kernel(src, []).same(Submodule.full(src))
    with pytest.raises(ValueError, match="one image per source generator"):
        block_kernel(src, _sparse([(z2, [(1,)])]))


def test_hom_validation_rejects_bad_maps():
    z2 = FpModule(1, [], 2)
    z = FpModule(1, [])
    with pytest.raises(NotWellDefined, match=r"relation \(2,\) maps to \(2,\)"):
        ModuleHom(z2, z, [terms([1])])  # 2*1 = 0 must map to 0 in Z
    with pytest.raises(ValueError, match="one image per source generator"):
        ModuleHom(z, z, [])
    with pytest.raises(ValueError, match="one image per source generator"):
        ModuleHom(z, z, [((0, 1),), ()])
    # an index outside the target is rejected even with coefficient 0
    for row in (((1, 1),), ((-1, 1),), ((0, 1), (1, 0))):
        with pytest.raises(ValueError, match="image index out of target range"):
            ModuleHom(z, z, [row])


def _messy_terms(rng, vec):
    """vec as shuffled terms with split coefficients, zeros and cancelling pairs."""
    out = []
    for k, c in enumerate(vec):
        a = rng.randint(-3, 3)
        out += [(k, a), (k, c - a)] if rng.random() < 0.5 else [(k, c)]
        if rng.random() < 0.3:
            out += [(k, 0)]
        if rng.random() < 0.3:
            out += [(k, 5), (k, -5)]
    rng.shuffle(out)
    return out


def test_hom_on_messy_term_rows_matches_the_dense_map():
    rng = random.Random(1601)
    for _ in range(40):
        m = rng.choice([0, 0, 4, 6])
        src_ord = [rng.choice([0, 2, 3, 4, 6]) for _ in range(rng.randint(1, 3))]
        tgt_ord = [rng.choice([0, 2, 4, 6]) for _ in range(rng.randint(1, 3))]
        src = FpModule.diagonal(src_ord, m)
        tgt = FpModule.diagonal(tgt_ord, m)
        ns, nt = len(src_ord), len(tgt_ord)
        # d * e_i must map into the target lattice, d the order of e_i
        rows = []
        for d in (gcd(d, m) for d in src_ord):
            row = []
            for o in (gcd(o, m) for o in tgt_ord):
                step = 1 if d == 0 else (0 if o == 0 else o // gcd(o, d))
                row.append(step * rng.randint(-3, 3))
            rows.append(row)
        messy = [_messy_terms(rng, r) for r in rows]
        h = ModuleHom(src, tgt, messy)
        assert h.images == tuple(terms(r) for r in rows)
        assert tuple(dense(r, nt) for r in h.image().gens) == tuple(tuple(r) for r in rows)
        # a submodule takes the same messy rows and spans the same image
        sub = Submodule(tgt, messy)
        assert sub.same(h.image())
        assert sub.basis() == h.image().basis()
        ker = h.kernel()
        for v in itertools.product(range(-1, 6), repeat=ns):
            img = apply_matrix(v, rows, nt)
            assert h(v) == img
            assert ker.contains_vec(v) == tgt.is_lattice_member(img), (rows, v)


def _combination(coeffs, rows, n):
    return tuple(sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(n))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_submodule_solve_recombines_over_the_basis(data):
    m = data.draw(st.sampled_from([0, 0, 2, 4, 6]))
    ambient = data.draw(diagonal_modules(m, min_rank=1))
    n = ambient.ambient_rank
    gens = data.draw(st.lists(st.lists(vectors, min_size=n, max_size=n),
                              max_size=4))
    sub = Submodule(ambient, map(terms, gens))
    # membership oracle through the Smith form of the bigger lattice
    oracle = FpModule(n, [dense(r, n) for r in ambient.lattice_rows] + gens)
    spanning = gens + [list(dense(r, n)) for r in ambient.lattice_rows]
    inside = _combination(data.draw(st.lists(
        vectors, min_size=len(spanning), max_size=len(spanning))), spanning, n)
    anywhere = tuple(data.draw(st.lists(vectors, min_size=n, max_size=n)))
    for v in (inside, anywhere):
        coords = sub.solve(terms(v))
        assert (coords is not None) == oracle.is_lattice_member(v)
        if coords is not None:
            coords = dense(coords, len(sub.basis()))
            assert ambient.same_element(_combination(coords, sub.basis(), n), v)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4),
       st.lists(st.lists(st.integers(-6, 6), min_size=1, max_size=4),
                min_size=1, max_size=4))
def test_first_isomorphism(ns, nt, rows):
    rows = [list(r[:nt]) + [0] * (nt - len(r)) for r in rows[:ns]]
    rows += [[0] * nt] * (ns - len(rows))
    src = FpModule(ns, [])  # free source: any matrix is a valid hom
    tgt = FpModule(nt, [[3 if i == j else 0 for j in range(nt)]
                        for i in range(nt)])
    h = ModuleHom(src, tgt, [terms(r) for r in rows])
    ker = h.kernel()
    q, _ = quotient(src, ker)
    assert q.invariant_factors == h.image().invariant_factors


# -- quotients ------------------------------------------------------------------

def test_quotient_examples():
    z = FpModule(1, [])
    q, _ = quotient(z, Submodule(z, [terms((2,))]))
    assert q.invariant_factors == (2,)
    z4sq = FpModule(2, [], 4)
    q, _ = quotient(z4sq, Submodule(z4sq, [terms((1, 1))]))
    assert q.invariant_factors == (4,)
    m = FpModule(2, [[2, 0]])
    q, _ = quotient(m, Submodule(m, []))
    assert q.invariant_factors == m.invariant_factors


# -- freeness and abelian squares -----------------------------------------------

def test_is_free_over():
    assert is_free_over(FpModule.diagonal([0, 0]), 0)
    assert not is_free_over(FpModule.diagonal([2, 4]), 4)
    assert is_free_over(FpModule.diagonal([3, 3]), 3)
    assert is_free_over(FpModule.diagonal([]), 1)
    assert not is_free_over(FpModule.diagonal([2]), 1)


def test_abelian_squares():
    z = FpModule.diagonal([0])
    assert tensor_square_ab(z)[0].invariant_factors == (0,)
    assert exterior_square_ab(z)[0].invariant_factors == ()
    m = FpModule.diagonal([2, 4])
    assert tensor_square_ab(m)[0].invariant_factors == (2, 2, 2, 4)
    m33 = FpModule.diagonal([3, 3])
    assert exterior_square_ab(m33)[0].invariant_factors == (3,)


def test_merged_factors_and_describe():
    assert merged_factors([(2,), (0, 3)]) == (6, 0)
    assert describe_factors((2, 0)) == "Z/2 + Z"
    assert describe_factors(()) == "0"


def test_lambda_q_modulus():
    assert lambda_q_modulus(0, 2) == 2
    assert lambda_q_modulus(0, 0) == 0
    assert lambda_q_modulus(6, 4) == 2
    assert lambda_q_modulus(5, 2) == 1


# -- input checks -----------------------------------------------------------------

def _foreign_quotient():
    return quotient(FpModule(1, []), Submodule(FpModule(1, []), []))


@pytest.mark.parametrize("call, message", [
    (lambda: IntMatrix([[1, 2], [3]]), "ragged matrix"),
    (lambda: IntMatrix([[1, 2]]) * IntMatrix([[1, 2]]), "dimension mismatch"),
    (lambda: det(IntMatrix([[1, 2]])), "non-square"),
    (lambda: FpModule(2, [(1, 2, 3)]), "relation length does not match"),
    (lambda: FpModule.from_terms(2, [((2, 1),)]), "relation index out of ambient range"),
    (lambda: FpModule.from_terms(-1, []), "negative ambient rank"),
    (lambda: FpModule(1, [], 1), "base modulus must be 0"),
    (lambda: FpModule.from_terms(1, [], -2), "base modulus must be 0"),
    (_foreign_quotient, "does not live in the given module"),
], ids=["ragged", "matmul-shape", "det-shape", "relation-length", "relation-index",
        "negative-rank", "modulus-1", "modulus-negative", "foreign-submodule"])
def test_input_checks_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()
