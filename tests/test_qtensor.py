"""Products, xi maps, actions, the quadratic functor, and the sequence checks."""

import copy
import gc
import random
from math import comb, gcd

import pytest

from lieq import exactlin, liealg, qtensor
from lieq.errors import BracketNotWellDefined, NotAbelianInput, ValidationError
from lieq.exactlin import (
    FpModule,
    ModuleHom,
    apply_matrix,
    dense,
    merged_factors,
    quotient,
    terms,
    unit_vec,
    vec_add,
    vec_sub,
)
from lieq.io_catalog import Catalog, heisenberg, strictly_upper
from lieq.liealg import (
    Ideal,
    LieAction,
    LieAlgebra,
    ValidationReport,
    center,
    derived_ideal,
    hash_product,
    ideal_from_gens,
    inner_q_derivations,
    lie_algebra,
    validate_q_crossed,
)
from lieq.qtensor import (
    QProduct,
    abelian_square_check,
    check_brace_identity,
    curly_image,
    gamma,
    gamma_map,
    gamma_sequence_check,
    product_action,
    q_exterior_product,
    q_tensor_product,
    right_exact_check,
    split_decomposition_check,
    tensor_to_exterior,
    xi,
)


def test_square_examples_rank_one():
    z = Catalog.get("Z")
    assert q_tensor_product(z, None, 2).invariant_factors() == (2, 0)
    assert q_exterior_product(z, None, 2).invariant_factors() == (0,)
    z2 = Catalog.get("Z/2")
    assert q_tensor_product(z2, None, 2).invariant_factors() == (2, 2)
    assert q_exterior_product(z2, None, 2).invariant_factors() == (2,)


def test_classical_square_of_abelian_is_module_square():
    zz = Catalog.get("Z^2")
    p = q_tensor_product(zz, None, 0)
    assert p.invariant_factors() == (0, 0, 0, 0)
    assert not p._br  # identically zero bracket


def test_perfect_tensor_equals_exterior():
    sl2 = Catalog.get("sl2@Z/5")
    for q in (0, 2, 3):
        t = q_tensor_product(sl2, None, q).invariant_factors()
        e = q_exterior_product(sl2, None, q).invariant_factors()
        assert t == e == (5, 5, 5)


def test_products_validate_bracket_and_jacobi():
    for name in ("Z", "Z/6", "heisenberg", "heisenberg@Z/2", "sl2@Z/5"):
        g = Catalog.get(name)
        for q in (0, 2):
            for build in (q_tensor_product, q_exterior_product):
                prod = build(g, None, q)
                prod.validate_bracket_well_defined()
                assert prod.jacobi_defects() == []


def test_xi_examples():
    z = Catalog.get("Z")
    p = q_tensor_product(z, None, 2)
    hom = xi(p)
    assert hom.image().contains_vec((2,)) and not hom.image().contains_vec((1,))
    g = Catalog.get("heisenberg")
    p = q_tensor_product(g, None, 0)
    assert xi(p).image().same(hash_product(g, None, 0).sub)
    ab = lie_algebra([0, 0], {}, 0)
    assert xi(q_tensor_product(ab, None, 0)).image().is_zero()


def test_xi_image_equals_hash_product_sweep():
    from lieq.io_catalog import DEFAULT_CATALOG
    for name in DEFAULT_CATALOG:
        g = Catalog.get(name)
        for q in (0, 1, 2, 3, 4):
            for build in (q_tensor_product, q_exterior_product):
                assert xi(build(g, None, q)).image().same(
                    hash_product(g, None, q).sub), (name, q)


def test_xi_preserves_brackets():
    g = Catalog.get("heisenberg")
    assert not xi(q_tensor_product(g, None, 2)).bracket_defects()


def test_brace_identity():
    z = Catalog.get("Z")
    ok, _ = check_brace_identity(q_tensor_product(z, None, 2))
    assert ok
    with pytest.raises(ValueError):
        check_brace_identity(q_tensor_product(z, None, 0))
    for name in ("Z/6", "heisenberg", "sl2@Z/5"):
        g = Catalog.get(name)
        for q in (1, 2, 3):
            ok, wit = check_brace_identity(q_exterior_product(g, None, q))
            assert ok, (name, q, wit)


def test_brace_identity_witness_sums_colliding_terms():
    # With xi({b}) corrupted to 3b, {xi({b})} - 2{b} = {b}: the brace term and
    # the subtracted symbol share an index, and the witness is their sum.
    prod = copy.copy(q_tensor_product(Catalog.get("Z"), None, 2))
    good = prod.xi()
    assert tuple(dense(r, 1) for r in good.hom.image().gens) == ((0,), (2,))
    bad = copy.copy(good)
    bad.hom = ModuleHom(good.hom.source, good.hom.target,
                        [terms(r) for r in [(0,), (3,)]], check=False)
    prod._xi = bad
    assert check_brace_identity(prod) == (False, [(1, (0, 1))])


def test_product_action_validates():
    for name in ("Z", "Z/2", "heisenberg"):
        g = Catalog.get(name)
        for q in (0, 2):
            _, xm = product_action(q_tensor_product(g, None, q))
            assert validate_q_crossed(xm.mu, xm.action, xm.q).ok


def test_product_action_condition_iii_z2():
    z2 = Catalog.get("Z/2")
    _, xm = product_action(q_tensor_product(z2, None, 2))
    ker = xm.mu.kernel()
    assert ker.invariant_factors == (2, 2)
    assert validate_q_crossed(xm.mu, xm.action, xm.q).ok


def test_curly_image_rejects_a_pure_bracket_with_a_brace_component():
    prod = copy.copy(q_tensor_product(Catalog.get("heisenberg"), None, 2))
    prod._br = dict(prod._br)
    key = min(prod._br)
    prod._br[key] += ((prod.sym_brace(0), 1),)
    with pytest.raises(BracketNotWellDefined,
                       match=r"^pure bracket produced a brace component$"):
        curly_image(prod)


def test_curly_image():
    z = Catalog.get("Z")
    assert curly_image(q_exterior_product(z, None, 2)).is_zero()
    full = curly_image(q_tensor_product(z, None, 0))
    assert full.invariant_factors == (0,)
    z2 = Catalog.get("Z/2")
    p = q_tensor_product(z2, None, 2)
    c = curly_image(p)
    assert c.invariant_factors == (2,)
    assert c.contains_vec(dense(p.pure_units()[0], p.nsym))


def test_gamma_closed_form():
    assert gamma(FpModule.diagonal([0])).module.invariant_factors == (0,)
    assert gamma(FpModule.diagonal([2])).module.invariant_factors == (4,)
    assert gamma(FpModule.diagonal([3])).module.invariant_factors == (3,)
    assert gamma(FpModule.diagonal([2, 2])).module.invariant_factors == (2, 4, 4)
    g = gamma(FpModule.diagonal([0, 2]))
    labels = [s[0] for s in g.summands]
    assert labels == ["diag", "diag", "cross"]


def test_gamma_reduced_mod():
    g = gamma(FpModule.diagonal([2]))
    assert g.reduced_mod(2).module.invariant_factors == (2,)
    assert g.reduced_mod(0) is g


def test_gamma_map_example():
    z = Catalog.get("Z")
    gm = gamma_map(z, 2)
    assert gm.gamma.module.invariant_factors == (4,)
    assert gm.gamma_reduced.module.invariant_factors == (2,)
    img = gm.hom.image()
    assert img.invariant_factors == (2,)
    # image lands in the kernel of the wedge projection
    proj = tensor_to_exterior(gm.product, q_exterior_product(z, None, 2))
    for row in gm.hom.image().gens:
        assert proj.kernel().contains_vec(dense(row, gm.product.nsym))
    assert gamma_map(z, 2).hom.source is gm.gamma.module or \
        gamma_map(z, 2).hom.source.invariant_factors == (4,)


def test_gamma_sequence_checks():
    z = Catalog.get("Z")
    rep = gamma_sequence_check(z, 2)
    assert rep.exact and rep.hypothesis_free and rep.injective
    sl2 = Catalog.get("sl2@Z/5")
    rep = gamma_sequence_check(sl2, 0)
    assert rep.exact and rep.gamma_factors == ()
    z22 = lie_algebra([2, 2], {}, 0, "(Z/2)^2")
    rep = gamma_sequence_check(z22, 2)
    assert rep.exact and rep.hypothesis_free and rep.injective
    assert rep.gamma_factors == (2, 4, 4)
    assert rep.gamma_reduced_factors == (2, 2, 2)


def test_right_exactness_trivial_ideals():
    g = Catalog.get("heisenberg")
    rep = right_exact_check(g, ideal_from_gens(g, []), 2, "exterior")
    assert rep.exact_middle and rep.surjective_end
    rep = right_exact_check(g, Ideal.whole(g), 2, "exterior")
    assert rep.exact_middle and rep.surjective_end


def test_right_exactness_h3_center():
    g = Catalog.get("heisenberg")
    cen = Ideal(g, center(g))
    for q in (0, 2):
        for kind in ("exterior", "curly"):
            rep = right_exact_check(g, cen, q, kind)
            assert rep.exact_middle and rep.surjective_end, (q, kind)


def test_curly_literal_image_counterexample_is_pinned():
    """The brace-free part of the ideal product does not reach the whole
    kernel at q = 2: {e3} = 2(e1^e2) is pure in the big product only."""
    g = Catalog.get("heisenberg")
    cen = Ideal(g, center(g))
    rep = right_exact_check(g, cen, 2, "curly")
    assert rep.exact_middle
    assert rep.details["literal_image_exact"] is False
    rep0 = right_exact_check(g, cen, 0, "curly")
    assert rep0.details["literal_image_exact"] is True


def test_input_checks_raise(monkeypatch):
    g, other = Catalog.get("heisenberg"), Catalog.get("sl2@Z/5")
    with pytest.raises(ValueError, match="no brace symbols at q = 0"):
        q_tensor_product(g, None, 0).sym_brace(0)
    with pytest.raises(ValueError, match="ideal does not belong to the algebra"):
        q_tensor_product(g, Ideal.whole(other), 2)
    with pytest.raises(ValueError, match="q must be non-negative"):
        q_exterior_product(g, None, -1)
    tensor, exterior = q_tensor_product(g, None, 2), q_exterior_product(g, None, 2)
    with pytest.raises(ValueError, match=r"expected a \(tensor, exterior\) pair"):
        tensor_to_exterior(exterior, tensor)
    with pytest.raises(ValueError, match="products are not comparable"):
        tensor_to_exterior(tensor, q_exterior_product(g, None, 0))
    # a bad kind is rejected before any product is built
    def no_build(*args):
        raise AssertionError("a product was built before the kind was checked")

    monkeypatch.setattr(qtensor, "_build_product", no_build)
    with pytest.raises(ValueError, match="kind must be 'exterior' or 'curly'"):
        right_exact_check(g, ideal_from_gens(g, []), 0, "tensor")


def test_abelian_square_check():
    z = Catalog.get("Z")
    for q in (0, 1, 2, 3, 4, 6):
        assert abelian_square_check(z, q).ok
    with pytest.raises(NotAbelianInput):
        abelian_square_check(Catalog.get("heisenberg"), 2)


def test_split_decomposition():
    z = Catalog.get("Z")
    rep = split_decomposition_check(z, 2)
    assert rep.hypothesis_met and rep.matches
    assert rep.tensor_factors == (2, 0)
    assert rep.gamma_integer_factors == (4,)
    assert rep.gamma_reduced_factors == (2,)
    sl2 = Catalog.get("sl2@Z/5")
    rep = split_decomposition_check(sl2, 0)
    assert rep.hypothesis_met and rep.matches
    z33 = lie_algebra([3, 3], {}, 0, "(Z/3)^2")
    rep = split_decomposition_check(z33, 3)
    assert rep.hypothesis_met and rep.matches
    z24 = lie_algebra([2, 4], {}, 0, "Z/2+Z/4")
    rep = split_decomposition_check(z24, 4)
    assert not rep.hypothesis_met


def test_products_of_ideal_pairs():
    g = Catalog.get("heisenberg")
    cen = Ideal(g, center(g))
    p = q_exterior_product(g, cen, 2)
    assert p.p == 1 and p.nsym == 4
    assert p.invariant_factors() == (2, 2, 0)


def test_remark_q_perfect_tensor_is_exterior():
    for name in ("sl2@Z/5", "sl2@Z/7"):
        g = Catalog.get(name)
        for q in (0, 1, 2, 3, 4, 6):
            assert (q_tensor_product(g, None, q).invariant_factors()
                    == q_exterior_product(g, None, q).invariant_factors())
            assert xi(q_tensor_product(g, None, q)).hom.is_surjective()


def test_projection_kernel_is_generated_by_alternating_instances():
    for name in ("Z/6", "heisenberg", "heisenberg@Z/2"):
        g = Catalog.get(name)
        for q in (0, 2):
            pt = q_tensor_product(g, None, q)
            pe = q_exterior_product(g, None, q)
            proj = tensor_to_exterior(pt, pe)
            n = g.rank
            gens = [unit_vec(pt.nsym, pt.sym_pure(i, i)) for i in range(n)]
            for i in range(n):
                for k in range(i + 1, n):
                    row = [0] * pt.nsym
                    row[pt.sym_pure(i, k)] = 1
                    row[pt.sym_pure(k, i)] = 1
                    gens.append(tuple(row))
            from lieq.exactlin import Submodule
            assert proj.kernel().same(Submodule(pt.module, map(terms, gens))), (name, q)


# -- sparse bracket checks against a dense reference ---------------------------

def _dense_brackets(prod):
    """The bracket rows of a product as dense vectors, keyed (s, t), s < t."""
    out = {}
    for key, row in prod._br.items():
        vec = [0] * prod.nsym
        for k, c in row:
            vec[k] = c
        out[key] = vec
    return out


def _dense_bracket(br, s, t):
    """[s, t] of two symbols as a dense vector, or None when zero."""
    if s < t:
        return br.get((s, t))
    w = br.get((t, s))
    return None if w is None else [-x for x in w]


def dense_closure_defects(prod):
    br = _dense_brackets(prod)
    n = prod.nsym
    out = []
    for r in [dense(r, n) for r in prod.module.lattice_rows]:
        for s in range(n):
            acc = [0] * n
            for u, cu in enumerate(r):
                w = _dense_bracket(br, u, s) if cu and u != s else None
                for k, x in enumerate(w or ()):
                    acc[k] += cu * x
            if any(acc) and not prod.module.is_lattice_member(acc):
                out.append(tuple(acc))
    return out


def dense_jacobi_defects(prod, gens):
    """Every triple s < t < r of the indices ``gens`` with two symbols in some
    bracket (the rest sum to 0)."""
    br = _dense_brackets(prod)
    n = prod.nsym
    touched = {s for pair in br for s in pair}
    gens = sorted(gens)
    out = []
    for a, s in enumerate(gens):
        for b, t in enumerate(gens[a + 1:], a + 1):
            for r in gens[b + 1:]:
                if len(touched.intersection((s, t, r))) < 2:
                    continue
                acc = [0] * n
                for x, y, z in ((s, t, r), (t, r, s), (r, s, t)):
                    for u, cu in enumerate(_dense_bracket(br, x, y) or ()):
                        w = _dense_bracket(br, u, z) if cu and u != z else None
                        for k, xx in enumerate(w or ()):
                            acc[k] += cu * xx
                if any(acc) and not prod.module.is_lattice_member(acc):
                    out.append(((s, t, r), tuple(acc)))
    return out


def _corrupted(prod, rng):
    """The product with 1-3 random bracket coefficients shifted."""
    br = dict(prod._br)
    for _ in range(rng.randint(1, 3)):
        s, t = sorted(rng.sample(range(prod.nsym), 2))
        row = dict(br.get((s, t), ()))
        k = rng.randrange(prod.nsym)
        row[k] = row.get(k, 0) + rng.choice((-2, -1, 1, 2))
        row = tuple((k, c) for k, c in sorted(row.items()) if c)
        if row:
            br[(s, t)] = row
        else:
            br.pop((s, t), None)
    return QProduct(prod.kind, prod.q, prod.algebra, prod.ideal, prod.module, br)


def test_sparse_checks_match_dense_reference():
    rng = random.Random(20230601)
    nonempty = 0
    for name in ("n4", "heisenberg", "heisenberg@Z/2"):
        g = Catalog.get(name)
        for q in (0, 2):
            for build in (q_tensor_product, q_exterior_product):
                prod = build(g, None, q)
                gens = prod.module.spanning_generators()
                assert prod.bracket_closure_defects() == []
                assert prod.jacobi_defects() == []
                for _ in range(2):
                    bad = _corrupted(prod, rng)
                    closure = bad.bracket_closure_defects()
                    jacobi = bad.jacobi_defects()
                    assert closure == dense_closure_defects(bad), (name, q)
                    assert jacobi == dense_jacobi_defects(bad, gens), (name, q)
                    if not closure:
                        full = dense_jacobi_defects(bad, range(bad.nsym))
                        assert bool(jacobi) == bool(full), (name, q)
                    nonempty += bool(closure) + bool(jacobi)
    assert nonempty >= 10


def test_corrupted_bracket_trips_closure_and_jacobi():
    g = Catalog.get("heisenberg")
    prod = q_tensor_product(g, None, 0)
    # [b1(x)e1, b3(x)e3] := b1(x)e1, while b3(x)e3 lies in the lattice
    assert prod.module.is_lattice_member(unit_vec(9, 8))
    br = dict(prod._br)
    br[(0, 8)] = ((0, 1),)
    bad = QProduct("tensor", 0, g, prod.ideal, prod.module, br)
    with pytest.raises(BracketNotWellDefined):
        bad.validate_bracket_well_defined()
    assert bad.jacobi_defects() == [((0, 1, 3), (1, 0, 0, 0, 0, 0, 0, 0, 0))]


def test_product_of_unchecked_non_jacobi_table_raises():
    # the negative-control table: the Jacobi sum on e1, e2, e3 is -e3
    rows = {(0, 1): ((2, 1),), (0, 2): ((0, 1),)}
    g = LieAlgebra(FpModule.diagonal([0, 0, 0]), rows, "bad", check=False)
    for build in (q_tensor_product, q_exterior_product):
        for q in (0, 2):
            with pytest.raises(BracketNotWellDefined):
                build(g, None, q)


def test_product_build_raises_when_closure_holds_and_jacobi_fails(monkeypatch):
    # No real table reaches this raise: every non-Jacobi table tried fails
    # closure first. So the build's brackets get two extra rows on a free
    # module, where closure is empty: [s0, s1] = s2 and [s2, s3] = s0, whose
    # Jacobi sum on (s0, s1, s3) is [s2, s3] = s0.
    class CorruptedProduct(qtensor.QProduct):
        def __init__(self, kind, q, g, h, module, brackets):
            brackets = {**brackets, (0, 1): ((2, 1),), (2, 3): ((0, 1),)}
            super().__init__(kind, q, g, h, module, brackets)

    monkeypatch.setattr(qtensor, "QProduct", CorruptedProduct)
    g = lie_algebra([0, 0])  # built here, so no memoized product is reused
    with pytest.raises(BracketNotWellDefined) as err:
        q_tensor_product(g, None, 0)
    assert str(err.value) == \
        "bracket fails Jacobi at symbols (0, 1, 3): (1, 0, 0, 0)"


def _shifted_between_free_symbols(prod, free, rng):
    """The product with 1-3 brackets of two symbols in no lattice row shifted.

    Closure brackets lattice rows with symbols, and neither symbol of a
    shifted pair occurs in a lattice row, so closure still passes.
    """
    br = dict(prod._br)
    for _ in range(rng.randint(1, 3)):
        s, t = sorted(rng.sample(free, 2))
        row = dict(br.get((s, t), ()))
        k = rng.randrange(prod.nsym)
        row[k] = row.get(k, 0) + rng.choice((-2, -1, 1, 2))
        br[(s, t)] = tuple((k, c) for k, c in sorted(row.items()) if c)
    return QProduct(prod.kind, prod.q, prod.algebra, prod.ideal, prod.module,
                    {key: row for key, row in br.items() if row})


def test_generator_walk_agrees_with_full_walk_after_closure():
    rng = random.Random(20231102)
    cases = failing = 0
    for name in ("n3", "n4", "heisenberg", "heisenberg@Z/2", "Z^2"):
        g = Catalog.get(name)
        for q in (0, 2):
            for build in (q_tensor_product, q_exterior_product):
                prod = build(g, None, q)
                gens = prod.module.spanning_generators()
                support = {k for r in prod.module.lattice_rows
                           for k, x in enumerate(dense(r, prod.nsym)) if x}
                free = [k for k in range(prod.nsym) if k not in support]
                bad = [_corrupted(prod, rng) for _ in range(4)]
                if len(free) >= 2:
                    bad += [_shifted_between_free_symbols(prod, free, rng)
                            for _ in range(8)]
                for p in [prod] + bad:
                    if p.bracket_closure_defects():
                        continue
                    full = dense_jacobi_defects(p, range(p.nsym))
                    on_gens = p.jacobi_defects()
                    assert bool(on_gens) == bool(full), (name, q)
                    assert set(on_gens) <= set(full), (name, q)
                    assert on_gens == dense_jacobi_defects(p, gens), (name, q)
                    cases += 1
                    failing += bool(full) and len(gens) < prod.nsym
    assert cases >= 60
    assert failing >= 5


def test_product_build_walks_jacobi_on_generator_triples(monkeypatch):
    g = strictly_upper(5)
    walking, visits = [], []
    walk, witness = qtensor.jacobi_defects, FpModule.witness

    def counting_walk(*args):
        walking.append(True)
        try:
            return walk(*args)
        finally:
            walking.pop()

    def counting_witness(self, acc):
        if walking:
            visits.append(1)
        return witness(self, acc)

    monkeypatch.setattr(qtensor, "jacobi_defects", counting_walk)
    monkeypatch.setattr(FpModule, "witness", counting_witness)
    prod = q_exterior_product(g, None, 2)
    bound = comb(len(prod.module.spanning_generators()), 3)
    assert 0 < len(visits) <= bound


def test_product_module_runs_one_smith_form_on_its_hermite_core(monkeypatch):
    g = strictly_upper(5)
    shapes = []
    smith = exactlin.snf_with_transforms

    def recording_smith(mat, nrows, ncols):
        shapes.append((nrows, ncols))
        return smith(mat, nrows, ncols)

    monkeypatch.setattr(exactlin, "snf_with_transforms", recording_smith)
    prod = q_exterior_product(g, None, 2)
    # 110 symbols and 100 lattice rows, 83 of them unit pivots
    assert prod.nsym == 110 and len(prod.module.lattice_rows) == 100
    assert shapes == [(17, 27)]
    assert len(prod.module.spanning_generators()) == 27



def test_a_square_and_its_xi_bracket_each_basis_pair_once(monkeypatch):
    """The ideal owns [b_i, e_j]: building the whole-algebra q=2 tensor
    square of n5 (rank n = 10) and its xi computes the n^2 brackets
    [b_i, e_j] and the n(n-1)/2 brackets [b_i, b_k] once each, and the
    product builder and ``hash_rows`` compute none again."""
    g = strictly_upper(5)
    calls = []
    real = liealg.bracket_terms

    def counting(bracket_sym, u, v):
        calls.append((u, v))
        return real(bracket_sym, u, v)

    monkeypatch.setattr(liealg, "bracket_terms", counting)
    monkeypatch.setattr(qtensor, "bracket_terms", counting)
    q_tensor_product(g, None, 2).xi()
    n = g.rank
    assert n == 10
    assert len(calls) == n * n + n * (n - 1) // 2 == 145

def test_product_relations_reach_the_hermite_form_as_terms(monkeypatch):
    g = strictly_upper(5)
    calls = []
    hermite = exactlin.hnf_rows

    def recording_hermite(rows, ncols):
        rows = list(rows)
        calls.append((rows, ncols))
        return hermite(rows, ncols)

    monkeypatch.setattr(exactlin, "hnf_rows", recording_hermite)
    prod = q_exterior_product(g, None, 2)
    module_calls = [rows for rows, ncols in calls if ncols == prod.nsym]
    assert len(module_calls) == 1
    rows = module_calls[0]
    assert all(isinstance(r, tuple) and all(
        isinstance(t, tuple) and len(t) == 2 for t in r) for r in rows)
    assert rows == list(prod.module.relations)
    assert len(rows) == 230
    assert all(rows)
    assert max(len(r) for r in rows) == 2


def test_heisenberg_exterior_squares_have_the_multiplier_rank():
    """h_(2m+1) over Z at q=0: the Schur multiplier has rank 2m^2 - m - 1
    (Batten, Moneyhun and Stitzinger 1996), and g' = Z, so g^g has
    2m^2 - m free factors."""
    for m in range(2, 11):
        n = 2 * m + 1
        g = lie_algebra([0] * n, {(i, m + i): unit_vec(n, n - 1) for i in range(m)},
                        0, f"h{n}")
        factors = q_exterior_product(g, None, 0).invariant_factors()
        assert factors.count(0) == 2 * m * m - m, (m, factors)


def test_xi_is_certified_on_generator_pairs(monkeypatch):
    prod = q_exterior_product(strictly_upper(5), None, 2)
    visits = []
    witness = FpModule.witness

    def counting_witness(self, acc):
        visits.append(1)
        return witness(self, acc)

    monkeypatch.setattr(FpModule, "witness", counting_witness)
    hom = prod.xi()
    bound = comb(len(prod.module.spanning_generators()), 2)
    assert 0 < len(visits) <= bound


def test_each_product_build_looks_up_brackets_once(monkeypatch):
    algebras = [heisenberg(), heisenberg(2), strictly_upper(4)]
    ideals = [derived_ideal(g) for g in algebras]
    calls = []
    lookup = liealg.bracket_lookup

    def counting_lookup(rows):
        calls.append(rows)
        return lookup(rows)

    monkeypatch.setattr(liealg, "bracket_lookup", counting_lookup)
    monkeypatch.setattr(qtensor, "bracket_lookup", counting_lookup)
    builds = 0
    for g, h in zip(algebras, ideals):
        for q in (0, 2):
            for build in (q_tensor_product, q_exterior_product):
                for ideal in (None, h):
                    build(g, ideal, q)
                    builds += 1
    assert len(calls) == builds


def test_each_algebra_build_looks_up_brackets_once(monkeypatch):
    calls = []
    lookup = liealg.bracket_lookup

    def counting_lookup(rows):
        calls.append(rows)
        return lookup(rows)

    monkeypatch.setattr(liealg, "bracket_lookup", counting_lookup)
    filiform = [lambda n=n: lie_algebra([0] * n, {(0, i): unit_vec(n, i + 1)
                                                  for i in range(1, n - 1)})
                for n in (6, 8)]
    builds = [lambda: lie_algebra([0, 0]), lambda: lie_algebra([0, 2]),
              lambda: lie_algebra([4, 4]), heisenberg, lambda: heisenberg(2),
              lambda: strictly_upper(4), lambda: strictly_upper(5),
              lambda: lie_algebra([2, 2], {(0, 1): (0, 1)}, 2)] + filiform
    for build in builds:
        calls.clear()
        g = build()
        assert calls == [g._br]
    # a transport that changes the rows looks up both row sets: in sl2 over
    # Z/5, [e, h] = -2e comes out as 3e, and orders (0, 2) come out as (2, 0)
    sl2 = {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)}
    for build in (lambda: lie_algebra([5] * 3, sl2, 5),
                  lambda: lie_algebra([0, 2], {(0, 1): (0, 1)})):
        calls.clear()
        g = build()
        assert len(calls) == 2 and calls[1] == g._br != calls[0]
    # a quotient looks up its own rows once; its parent already holds one
    g = heisenberg()
    calls.clear()
    alg, _ = liealg.quotient_algebra(g, Ideal(g, center(g)))
    assert calls == [alg._br]


def dense_action_report(action, gens):
    """The action checks on dense unit vectors, through ``act`` and ``bracket``:
    the lattice checks on every generator, the axioms with acted generators
    in the indices ``gens``."""
    report = ValidationReport("LieAction")
    gens = sorted(gens)
    act = action.act
    g, acted, hmod = action.actor, action.acted, action.acted.module
    n, nh = g.rank, hmod.ambient_rank
    for r in [dense(r, n) for r in g.module.lattice_rows]:
        for j in range(nh):
            w = act(r, unit_vec(nh, j))
            if not hmod.is_lattice_member(w):
                report.add("action-actor-relations", (tuple(r), j), w)
    for s in [dense(s, nh) for s in hmod.lattice_rows]:
        for i in range(n):
            w = act(unit_vec(n, i), s)
            if not hmod.is_lattice_member(w):
                report.add("action-acted-relations", (i, tuple(s)), w)
    for i in range(n):
        ei = unit_vec(n, i)
        for k in range(i + 1, n):
            ek = unit_vec(n, k)
            for j in gens:
                ej = unit_vec(nh, j)
                w = vec_sub(act(g.table[i][k], ej),
                            vec_sub(act(ei, act(ek, ej)), act(ek, act(ei, ej))))
                if not hmod.is_lattice_member(w):
                    report.add("action-axiom-1", (i, k, j), w)
    for i in range(n):
        ei = unit_vec(n, i)
        for a, j in enumerate(gens):
            ej = unit_vec(nh, j)
            for l in gens[a + 1:]:
                el = unit_vec(nh, l)
                w = vec_sub(act(ei, acted.bracket(ej, el)),
                            vec_add(acted.bracket(act(ei, ej), el),
                                    acted.bracket(ej, act(ei, el))))
                if not hmod.is_lattice_member(w):
                    report.add("action-axiom-2", (i, j, l), w)
    return report


def dense_crossed_report(mu, action, q, gens):
    """The crossed-module checks on dense unit vectors, after the action's,
    with acted generators in the indices ``gens``: the Peiffer identity on
    every ordered pair, the diagonal included."""
    report = ValidationReport("QCrossedModule")
    report.issues.extend(dense_action_report(action, gens).issues)
    gens = sorted(gens)
    acted = action.acted
    g = action.actor
    n, nh = g.rank, acted.module.ambient_rank
    for i in range(n):
        ei = unit_vec(n, i)
        for j in gens:
            ej = unit_vec(nh, j)
            w = vec_sub(mu(action.act(ei, ej)), g.bracket(ei, mu(ej)))
            if not g.module.is_lattice_member(w):
                report.add("crossed-i", (i, j), w)
    for j in gens:
        ej = unit_vec(nh, j)
        for l in gens:
            el = unit_vec(nh, l)
            w = vec_sub(action.act(mu(ej), el), acted.bracket(ej, el))
            if not acted.module.is_lattice_member(w):
                report.add("crossed-ii", (j, l), w)
    for kgen in (dense(r, nh) for r in mu.kernel().gens):
        w = tuple(q * x for x in kgen)
        if not acted.module.is_lattice_member(w):
            report.add("crossed-iii", (tuple(kgen),), w)
    return report


def _corrupted_crossed(xm, rng):
    """The crossed module's action with 1-3 random constants shifted."""
    action = xm.action
    nh = action.acted.module.ambient_rank
    constants = [list(row) for row in action.constants]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(len(constants)), rng.randrange(nh)
        constants[i][j] += ((rng.randrange(nh), rng.choice((-2, -1, 1, 2))),)
    return LieAction(action.actor, action.acted, constants)


def _lattices_respected(issues):
    """Whether an action's lattice checks passed, so the walks on spanning
    generators certify the rest."""
    return not any(i.kind in ("action-actor-relations", "action-acted-relations")
                   for i in issues)


def test_sparse_action_checks_match_dense_reference():
    rng = random.Random(20230602)
    nonempty = closed = 0
    kinds = set()
    for name in ("heisenberg", "heisenberg@Z/2", "n4", "sl2@Z/5"):
        g = Catalog.get(name)
        for q in (0, 2):
            crossed = [product_action(build(g, None, q))[1]
                       for build in (q_tensor_product, q_exterior_product)]
            crossed.append(inner_q_derivations(g, q)[1])
            for xm in crossed:
                assert validate_q_crossed(xm.mu, xm.action, xm.q).ok
                bad = _corrupted_crossed(xm, rng)
                hmod = bad.acted.module
                issues = validate_q_crossed(xm.mu, bad, xm.q).issues
                gens = hmod.spanning_generators()
                dense_issues = dense_crossed_report(xm.mu, bad, xm.q, gens).issues
                assert issues == dense_issues, (name, q)
                if _lattices_respected(issues):
                    full = dense_crossed_report(xm.mu, bad, xm.q,
                                                range(hmod.ambient_rank))
                    assert (not issues) == full.ok, (name, q)
                    closed += 1
                nonempty += bool(issues)
                kinds.update(i.kind for i in issues)
    assert nonempty >= 16
    assert closed >= 5
    assert {"action-axiom-1", "action-axiom-2", "crossed-i", "crossed-ii"} <= kinds


def _corrupted_off_generators(xm, rng):
    """The crossed module's action with 1-3 constants shifted, each on an
    acted symbol outside the spanning generators (a unit pivot)."""
    action = xm.action
    hmod = action.acted.module
    nh = hmod.ambient_rank
    pivots = sorted(set(range(nh)) - set(hmod.spanning_generators()))
    constants = [list(row) for row in action.constants]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(len(constants)), rng.choice(pivots)
        constants[i][j] += ((rng.randrange(nh), rng.choice((-2, -1, 1, 2))),)
    return LieAction(action.actor, action.acted, constants)


def test_corruption_off_the_spanning_generators_is_caught():
    # The walks never take an acted unit pivot as an argument, so a defect
    # in its constants must surface through the lattice checks.
    rng = random.Random(20231104)
    failing = 0
    for name in ("heisenberg", "heisenberg@Z/2", "n4", "Z^2"):
        g = Catalog.get(name)
        for q in (0, 2):
            for build in (q_tensor_product, q_exterior_product):
                _, xm = product_action(build(g, None, q))
                hmod = xm.action.acted.module
                if len(hmod.spanning_generators()) == hmod.ambient_rank:
                    continue
                for _ in range(2):
                    bad = _corrupted_off_generators(xm, rng)
                    full = dense_crossed_report(xm.mu, bad, xm.q,
                                                range(hmod.ambient_rank))
                    report = validate_q_crossed(xm.mu, bad, xm.q)
                    assert report.ok == full.ok, (name, q)
                    failing += not full.ok
    assert failing >= 5


def unimodular(rng, n, bits):
    """A seeded basis change P with its inverse, det P = +-1.

    Elementary row operations with multipliers in [-3, 3] until an entry of
    P or its inverse reaches ``bits`` bits, then a row negated half the time.
    """
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    pinv = [[int(i == j) for j in range(n)] for i in range(n)]
    while max(abs(x) for r in p + pinv for x in r).bit_length() < bits:
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in pinv:        # P' = E P, so P'^-1 = P^-1 E^-1
            row[j] -= c * row[i]
    if rng.random() < 0.5:
        i = rng.randrange(n)
        p[i] = [-x for x in p[i]]
        for row in pinv:
            row[i] = -row[i]
    return p, pinv


def conjugate(g, p, pinv):
    """The Z-algebra g on the basis f_i = sum_a p[i][a] e_a."""
    n = g.rank
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = apply_matrix(g.bracket(p[i], p[j]), pinv, n)
            if any(w):
                brackets[(i, j)] = w
    return lie_algebra([0] * n, brackets, 0, "conjugate")


def test_product_lattices_stay_reduced_and_small_on_conjugates():
    # Unreduced Hermite rows reached 57 bits on these conjugates.
    h = heisenberg()
    want = {(build, q): build(h, None, q).invariant_factors()
            for build in (q_tensor_product, q_exterior_product) for q in (0, 2)}
    rng = random.Random(2024)
    for _ in range(10):
        g = conjugate(h, *unimodular(rng, 3, 6))
        for (build, q), factors in want.items():
            prod = build(g, None, q)
            assert prod.invariant_factors() == factors
            rows = [dense(r, prod.nsym) for r in prod.module.lattice_rows]
            for i, row in enumerate(rows):
                c = next(k for k, x in enumerate(row) if x)
                assert row[c] > 0
                assert all(0 <= above[c] < row[c] for above in rows[:i])
            assert max(abs(x).bit_length() for r in rows for x in r) <= 16


# ---------------------------------------------------------------------------
# the Jacobi-type relation families on proper ideals

def random_valid_algebras():
    """Seeded valid tables of rank 2 to 4 over Z, Z/2, Z/3, Z/4 and Z/6.

    Each bracket coefficient is nonzero with probability 0.3; a table that
    fails Jacobi is drawn again. Up to five distinct tables per ring and
    rank (rank 2 over Z/2 has only four).
    """
    rng = random.Random(2306)
    algs = []
    for m in (0, 2, 3, 4, 6):
        coeffs = (-1, 1, 2) if m == 0 else tuple(range(1, m))
        for n in (2, 3, 4):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            seen, found = set(), 0
            for _ in range(4000):
                table = tuple(tuple(rng.choice(coeffs) if rng.random() < 0.3 else 0
                                    for _ in range(n)) for _ in pairs)
                if table in seen:
                    continue
                seen.add(table)
                try:
                    algs.append(lie_algebra([m] * n, dict(zip(pairs, table)), m,
                                            f"random{table}@{m}"))
                except ValidationError:
                    continue
                found += 1
                if found == 5:
                    break
    return algs


def test_central_ideal_tensor_closed_form():
    """For M = Z(g): M(x)g = M(x)g^ab at q = 0, and M + M(x)g^ab(x)Z/q at q >= 1.

    On a central ideal [b, e] = 0, so the left-slot and alternating families
    vanish and the brace collapse reads q * (b(x)e) = 0. The right-slot
    family b(x)[e, e'] = [e', b](x)e - [e, b](x)e' = 0 kills M(x)[g, g],
    leaving M(x)g^ab by right exactness; the braces {b} keep the orders of
    M. Tensor products are over Z, factor by factor: Z/a (x) Z/b = Z/gcd.
    """
    algs = [Catalog.get(name) for name in Catalog.names()] + random_valid_algebras()
    assert len(algs) == 88
    cut = 0
    for g in algs:
        m = Ideal(g, center(g))
        ab = quotient(g.module, derived_ideal(g).sub)[0].invariant_factors
        for q in range(5):
            pure = [gcd(x, a, q) for x in m.orders for a in ab]
            want = merged_factors([m.orders if q else (), pure])
            assert q_tensor_product(g, m, q).invariant_factors() == want, (g.name, q)
        # without the right-slot family all of M(x)g would survive at q = 0
        cut += merged_factors([[gcd(x, a) for x in m.orders for a in ab]]) != \
            merged_factors([[gcd(x, d) for x in m.orders for d in g.orders]])
    # so the closed form tells the right-slot family's absence on 38 of 88
    assert cut == 38
    h = Catalog.get("heisenberg")
    assert q_tensor_product(h, Ideal(h, center(h)), 0).invariant_factors() == (0, 0)


def test_left_slot_family_on_derived_ideal():
    """g = (Z/2)^3 with [e1,e3] = e1, [e2,e3] = e2; h = [g, g] = span(x, y).

    Here x = e1 and y = e2 (h's basis lists them in either order). Over Z/2,
    [x, e3] = x, [y, e3] = y, and x, y bracket to zero with e1, e2 and each
    other. The six symbols b(x)e, b in {x, y}, have order 2, and
    * the right-slot family at (e1, e3) and (e2, e3) reads
      b(x)e1 = -b(x)e1 and b(x)e2 = -b(x)e2: nothing new mod 2;
    * the left-slot family at e3 reads [x, y](x)e3 = x(x)[y, e3] - y(x)[x, e3],
      that is 0 = x(x)y - y(x)x, so x(x)y = y(x)x;
    * alternating closure kills [x, e3](x)[x, e3] = x(x)x and likewise y(x)y;
    * at q = 2 the brace collapse {[x, e3]} = 2 x(x)e3 gives {x} = 0, and
      likewise {y} = 0, so the braces die.
    What is left is x(x)y, x(x)e3 and y(x)e3: factors (2, 2, 2). Without
    the left-slot family x(x)y and y(x)x stay apart: (2, 2, 2, 2).
    """
    g = lie_algebra([2, 2, 2], {(0, 2): (1, 0, 0), (1, 2): (0, 1, 0)}, 2)
    h = derived_ideal(g)
    assert sorted(h.basis) == [((0, 1),), ((1, 1),)]
    for q in (0, 2):
        assert q_tensor_product(g, h, q).invariant_factors() == (2, 2, 2)


# ---------------------------------------------------------------------------
# assembly on the bracket support

def full_family_assembly(g, h, q, kind):
    """(q-free relations, (kind, q) relations, brackets) of a product, each
    family on every generator tuple.

    The reference for the builder's support walk: the two mixed-bracket
    families get an instance for every (i < k, j) and (i, j < l), empty or
    not, and the bracket loops visit every symbol pair. The q-free rows are
    slot-linearity on both slots, the two mixed-bracket families and the
    alternating closure; the (kind, q) rows are the brace slot-linearity,
    the brace collapse and the exterior diagonal with its polarization, in
    that family order.
    """
    h = Ideal.whole(g) if h is None else h
    p, n = h.p, g.rank
    basis, be_g, gb, bb = h.basis, h.be, h.gb, h.bb
    be_h = [[tuple((k, -c) for k, c in gb[j][i]) for j in range(n)] for i in range(p)]
    unit = qtensor._unit

    def tensor(u, v, c=1):
        return qtensor.tensor_terms(n, u, v, c)

    def brace(u):
        return qtensor.brace_terms(p, n, u)

    rels = [tensor(((i, o),), unit(j)) for i, o in enumerate(h.orders) if o
            for j in range(n)]
    rels += [tensor(unit(i), ((j, d),)) for j, d in enumerate(g.orders) if d
             for i in range(p)]
    rels += [tensor(bb[i][k], unit(j)) + tensor(unit(i), be_g[k][j], -1)
             + tensor(unit(k), be_g[i][j])
             for i in range(p) for k in range(i + 1, p) for j in range(n)]
    rels += [tensor(unit(i), g.bracket_sym(j, l)) + tensor(gb[l][i], unit(j), -1)
             + tensor(gb[j][i], unit(l))
             for i in range(p) for j in range(n) for l in range(j + 1, n)]
    rels += [tensor(be_h[i][j], be_g[i][j]) for i in range(p) for j in range(n)
             if be_h[i][j]]
    own = []
    if q:
        own += [brace(((i, o),)) for i, o in enumerate(h.orders) if o]
        own += [brace(be_h[i][j]) + tensor(unit(i), unit(j), -q)
                for i in range(p) for j in range(n)]
    if kind == "exterior":
        own += [tensor(unit(i), basis[i]) for i in range(p)]
        own += [tensor(unit(i), basis[k]) + tensor(unit(k), basis[i])
                for i in range(p) for k in range(i + 1, p)]

    brackets = {}

    def set_bracket(s, t, row):
        sign = 1 if s < t else -1
        row = exactlin.merged((k, sign * c) for k, c in row)
        if row:
            brackets[(min(s, t), max(s, t))] = row

    pure = [(i, j, i * n + j) for i in range(p) for j in range(n)]
    for i, j, s in pure:
        for k, l, t in pure:
            if t > s:
                set_bracket(s, t, tensor(be_h[i][j], be_g[k][l]))
    if q:
        for i in range(p):
            s = p * n + i
            for k, l, t in pure:
                set_bracket(s, t, tensor(bb[i][k], unit(l), q)
                            + tensor(unit(k), be_g[i][l], q))
            for k in range(i + 1, p):
                set_bracket(s, p * n + k, tensor(unit(i), basis[k], q * q))
    return rels, own, brackets


def _h5():
    return lie_algebra([0] * 5, {(0, 2): unit_vec(5, 4), (1, 3): unit_vec(5, 4)}, 0, "h5")


def _l6():
    return lie_algebra([0] * 6, {(0, i): unit_vec(6, i + 1) for i in range(1, 5)}, 0, "L6")


def test_assembly_on_the_bracket_support_matches_the_full_families():
    """Each product's relations are the reduced Hermite form of the full
    q-free families, empty instances included, followed by its (kind, q)
    rows in family order; its brackets and lattice are the full ones."""
    algs = [Catalog.get(name) for name in Catalog.names()]
    algs += [strictly_upper(5), _l6(), _h5()]
    algs += [a for a in random_valid_algebras() if a.base_modulus == 2 and a.rank == 3]
    assert len(algs) == 22
    empty = 0
    for g in algs:
        for h in (None, Ideal(g, center(g)), derived_ideal(g)):
            for q in range(4):
                for build in (q_tensor_product, q_exterior_product):
                    prod = build(g, h, q)
                    shared, own, brackets = full_family_assembly(g, h, q, prod.kind)
                    where = (g.name, q, prod.kind)
                    pure = FpModule.from_terms(prod.p * prod.n, shared, g.base_modulus)
                    assert list(prod.module.relations) == \
                        [*pure.lattice_rows, *map(tuple, own)], where
                    assert prod._br == brackets, where
                    full = FpModule.from_terms(prod.nsym, shared + own, g.base_modulus)
                    assert prod.module.lattice_rows == full.lattice_rows, where
                    empty += sum(1 for r in shared if not r)
    assert empty > 0


def test_the_q_free_families_reach_the_hermite_form_once_per_algebra(monkeypatch):
    """n5's four squares at q in {0, 2}: the q-free families are reduced
    once, by the first ``hnf_rows`` call, of width p*n. Each square then
    presents its own rows on top of that echelon, which leads each of the
    four later calls; the q=0 squares present on the p*n pure symbols too."""
    g = strictly_upper(5)
    calls = []
    hermite = exactlin.hnf_rows

    def recording_hermite(rows, ncols):
        rows = list(rows)
        calls.append((rows, ncols))
        return hermite(rows, ncols)

    monkeypatch.setattr(exactlin, "hnf_rows", recording_hermite)
    squares = [build(g, None, q) for q in (0, 2)
               for build in (q_tensor_product, q_exterior_product)]
    pn = g.rank * g.rank
    assert [ncols for _, ncols in calls] == [pn, pn, pn, pn + g.rank, pn + g.rank]
    # the q=0 tensor square has no rows of its own: its relations are the echelon
    echelon = list(squares[0].module.relations)
    raw = calls[0][0]
    assert raw != echelon and [terms(r) for r in hermite(raw, pn)] == echelon
    assert [rows for rows, _ in calls[1:]] == [list(s.module.relations) for s in squares]
    assert all(rows[:len(echelon)] == echelon for rows, _ in calls[1:])


def _reachable(obj):
    """Every object reachable from obj through ``gc.get_referents``, not
    passing through classes."""
    seen, todo = {}, [obj]
    while todo:
        x = todo.pop()
        if id(x) not in seen and not isinstance(x, type):
            seen[id(x)] = x
            todo.extend(gc.get_referents(x))
    return list(seen.values())


def test_a_product_over_a_proper_ideal_keeps_nothing_in_the_memo():
    """Products over a proper ideal add no memo key; a whole-algebra square
    adds its own key and the q-free half, which refers to no algebra, ideal
    or product."""
    g = strictly_upper(4)
    h = derived_ideal(g)
    before = dict(g._memo)
    for q in (0, 2):
        for build in (q_tensor_product, q_exterior_product):
            build(g, h, q)
    assert g._memo == before
    q_tensor_product(g, None, 0)
    assert set(g._memo) - set(before) == {("tensor", 0), "q-free"}
    half = g.cached("q-free", lambda: pytest.fail("no q-free half kept"))
    assert not any(isinstance(x, (LieAlgebra, Ideal, QProduct)) for x in _reachable(half))


def test_the_squares_of_an_algebra_share_its_pure_bracket_rows():
    """The q=0 squares of both kinds hold one dict of pure x pure bracket
    rows; the q=2 squares hold the same rows below their brace rows."""
    g = strictly_upper(5)
    t0, e0 = q_tensor_product(g, None, 0), q_exterior_product(g, None, 0)
    assert t0._br is e0._br and t0._br
    pn = t0.p * t0.n
    for build in (q_tensor_product, q_exterior_product):
        prod = build(g, None, 2)
        assert {key: row for key, row in prod._br.items() if key[1] < pn} == t0._br
        assert any(key[1] >= pn for key in prod._br)


def _jacobi_visits(prod, monkeypatch):
    """How many sums ``prod.jacobi_defects()`` tests for lattice membership."""
    visits = []
    witness = FpModule.witness

    def counting_witness(self, acc):
        visits.append(1)
        return witness(self, acc)

    with monkeypatch.context() as patch:
        patch.setattr(FpModule, "witness", counting_witness)
        assert prod.jacobi_defects() == []
    return len(visits)


def test_jacobi_visits_only_the_triples_reached_from_a_bracket_row(monkeypatch):
    """The q=2 squares of n5: a triple is visited only when it is sorted
    (x, y, z) for a nonzero row (x, y) and z in reach(x, y), the neighbours
    of the support of [x, y], so that its Jacobi sum has a term. The
    neighbour walk before this rule made 4,268 and 1,964 visits."""
    g = strictly_upper(5)
    assert _jacobi_visits(q_tensor_product(g, None, 2), monkeypatch) == 515
    assert _jacobi_visits(q_exterior_product(g, None, 2), monkeypatch) == 290
