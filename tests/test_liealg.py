"""Lie algebra layer: validation, centers, ideals, derivations, crossed modules."""

import copy
import inspect
import random
import re
import sys
from collections import Counter
from math import gcd

import pytest

from lieq import exactlin, liealg, verify
from lieq.errors import NotAnIdeal, ValidationError
from lieq.exactlin import (FpModule, ModuleHom, dense, terms, unit_vec, vec_add,
                            vec_addmul, vec_sub)
from lieq.io_catalog import Catalog, abelian, heisenberg, sl2, strictly_upper
from lieq.liealg import (
    Ideal,
    LieAction,
    LieAlgebra,
    LieHom,
    QCrossedModule,
    ValidationReport,
    adjoint_matrix,
    center,
    derivations,
    derived_ideal,
    direct_sum_algebras,
    from_module_data,
    hash_product,
    ideal_from_gens,
    inner_q_derivations,
    is_q_perfect,
    lie_algebra,
    q_center,
    quotient_algebra,
    validate,
    validate_q_crossed,
)
from lieq.qtensor import product_action, q_exterior_product, q_tensor_product


def h3():
    return Catalog.get("heisenberg")


def rows_of(table):
    """The sparse bracket rows of a dense n by n table: its upper triangle."""
    n = len(table)
    return {(i, j): terms(table[i][j]) for i in range(n) for j in range(i + 1, n)}


# -- validation -----------------------------------------------------------------

def test_validate_abelian_and_heisenberg():
    assert validate(lie_algebra([0, 5, 2], {}, 0, "ab")).ok
    assert validate(h3()).ok


def test_validate_rejects_jacobi():
    with pytest.raises(ValidationError) as err:
        lie_algebra([0, 0, 0], {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    assert any(i.kind == "jacobi" for i in err.value.report.issues)


def test_validate_rejects_torsion_incompatibility():
    # [e1,e2] = e2 with e1 of order 2 and e2 free: 2[e1,e2] = 2e2 is not 0
    with pytest.raises(ValidationError) as err:
        lie_algebra([2, 0], {(0, 1): (0, 1)})
    assert any(i.kind == "torsion" for i in err.value.report.issues)


def test_constructor_rejects_non_diagonal_module():
    # Z/4 + Z/2 presented as 4e1, 2e2: its Smith form is (2, 4), so orders[0]
    # does not kill e1 and downstream code would read the wrong coordinates
    # (the q=0 tensor square came out as (2, 2, 2, 2)).
    module = FpModule(2, [(4, 0), (0, 2)])
    with pytest.raises(ValueError, match="pruned diagonal form"):
        LieAlgebra(module, rows_of([[(0, 0), (2, 0)], [(-2, 0), (0, 0)]]))
    # the same Lie ring built on its canonical basis
    g = lie_algebra([4, 2], {(0, 1): (2, 0)})
    assert g.orders == (2, 4)
    assert q_tensor_product(g, None, 0).invariant_factors() == (2, 2, 2, 4)


def test_constructor_accepts_any_presentation_of_a_diagonal_lattice():
    # 2Z x 4Z given as 2e1 + 4e2, 4e2: the reduced Hermite rows are the d_i * e_i
    module = FpModule(2, [(2, 4), (0, 4)])
    assert tuple(dense(r, 2) for r in module.lattice_rows) == ((2, 0), (0, 4))
    g = LieAlgebra(module, rows_of([[(0, 0), (0, 0)], [(0, 0), (0, 0)]]))
    assert tuple(dense(r, 2) for r in g.module.lattice_rows) == ((2, 0), (0, 4))
    assert q_tensor_product(g, None, 0).invariant_factors() == (2, 2, 2, 4)


def test_torsion_compatible_solvable_over_z2():
    g = lie_algebra([2, 2], {(0, 1): (0, 1)}, 2, "solv")
    assert validate(g).ok
    assert not g.is_abelian()


def test_lie_algebra_rejects_malformed_brackets():
    # [e1, e1] = e2 would otherwise be dropped
    with pytest.raises(ValueError, match="diagonal bracket must vanish"):
        lie_algebra([0, 0], {(0, 0): (0, 1)})
    # one unordered pair twice: the second silently won, [e1, e2] = -e3
    with pytest.raises(ValueError, match="given twice"):
        lie_algebra([0, 0, 0], {(0, 1): (0, 0, 1), (1, 0): (0, 0, 1)})
    # vectors that are not of the rank: zero-padded, truncated or IndexError
    for vec in ((1,), (0, 0, 1, 0), (0, 0, 0, 1)):
        with pytest.raises(ValueError, match="length"):
            lie_algebra([0, 0, 0], {(0, 1): vec})
    # pair indices outside [0, n): (-1, 0) wrapped around to [e2, e1]
    for key in ((-1, 0), (0, 5)):
        with pytest.raises(ValueError, match="outside"):
            lie_algebra([0, 0], {key: (0, 0)})


@pytest.mark.parametrize("build", [
    lambda rows: LieAlgebra(FpModule.diagonal([0, 0, 0]), rows),
    lambda rows: from_module_data(FpModule(3, [(2, 2, 0)]), rows),
])
def test_bracket_rows_need_ordered_pairs_and_indices_in_range(build):
    for key in ((0, 0), (1, 0), (-1, 1), (1, 3)):
        with pytest.raises(ValueError, match="needs 0 <= i < j < 3"):
            build({key: ((2, 1),)})
    # a term index outside [0, 3), even with coefficient 0
    for row in (((3, 1),), ((3, 0),), ((-1, 1),), ((2, 1), (5, 0))):
        with pytest.raises(ValueError, match="term index outside"):
            build({(0, 1): row})


def test_messy_rows_equal_their_merged_form():
    module = FpModule.diagonal([0, 0, 0])
    messy = {(1, 2): (), (0, 2): ((1, 2), (1, -2), (0, 0)),
             (0, 1): ((2, 0), (2, 3), (1, 0), (2, -2))}
    g = LieAlgebra(module, messy)
    merged_g = LieAlgebra(module, {(0, 1): ((2, 1),)})
    assert g._br == merged_g._br == {(0, 1): ((2, 1),)}
    assert g.table == merged_g.table == heisenberg().table


def dense_bracket_of_vectors(table, u, v, n):
    """Bilinear expansion of [u, v] through an antisymmetric dense table."""
    acc = [0] * n
    for i, ci in enumerate(u):
        if not ci:
            continue
        ti = table[i]
        for j, cj in enumerate(v):
            if cj and i != j:
                row = ti[j]
                c = ci * cj
                for k, x in enumerate(row):
                    if x:
                        acc[k] += c * x
    return tuple(acc)


def dense_validate_table(module, table, subject, gens):
    """Torsion compatibility over every (row, generator) pair, Jacobi over the
    triples i < j < k of the indices ``gens``."""
    n = module.ambient_rank
    gens = sorted(gens)
    report = ValidationReport(subject)
    for r in [dense(r, n) for r in module.lattice_rows]:
        for j in range(n):
            w = dense_bracket_of_vectors(table, r, unit_vec(n, j), n)
            if not module.is_lattice_member(w):
                report.add("torsion", (tuple(r), j), w)
    for a, i in enumerate(gens):
        for b, j in enumerate(gens[a + 1:], a + 1):
            for k in gens[b + 1:]:
                w = vec_add(
                    vec_add(dense_bracket_of_vectors(table, table[i][j], unit_vec(n, k), n),
                            dense_bracket_of_vectors(table, table[j][k], unit_vec(n, i), n)),
                    dense_bracket_of_vectors(table, table[k][i], unit_vec(n, j), n))
                if not module.is_lattice_member(w):
                    report.add("jacobi", (i, j, k), w)
    return report


def _shifted_table(g, rng):
    """g's table with 1-3 random coefficients shifted, kept antisymmetric."""
    n = g.rank
    table = [list(row) for row in g.table]
    for _ in range(rng.randint(1, 3)):
        i, j = sorted(rng.sample(range(n), 2))
        vec = list(table[i][j])
        vec[rng.randrange(n)] += rng.choice((-2, -1, 1, 2))
        table[i][j] = tuple(vec)
        table[j][i] = tuple(-x for x in vec)
    return table


def _random_presentation(rng):
    """A module with multi-term relation rows and an alternating table on it."""
    n = rng.randint(2, 4)
    relations = [tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
                 for _ in range(rng.randint(1, n))]
    module = FpModule(n, relations, rng.choice((0, 2, 3, 4)))
    table = [[(0,) * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            vec = tuple(rng.choice((0, 0, 0, 1, -1)) for _ in range(n))
            table[i][j] = vec
            table[j][i] = tuple(-x for x in vec)
    return module, table


def test_spanning_generators_generate_the_module():
    rng = random.Random(20231101)
    shorter = 0
    rings = set()
    for _ in range(200):
        module, _ = _random_presentation(rng)
        rings.add(module.base_modulus)
        n = module.ambient_rank
        gens = module.spanning_generators()
        units = [r for r in [dense(r, n) for r in module.lattice_rows]
                 if next(x for x in r if x) == 1]
        pivots = [next(k for k, x in enumerate(r) if x) for r in units]
        assert sorted(set(range(n)) - set(gens)) == sorted(pivots)
        # each unit-pivot row is zero in every other unit-pivot column
        for r, c in zip(units, pivots):
            assert all(r[d] == 0 for d in pivots if d != c)
        # each other generator is congruent to a combination of the set
        for r, c in zip(units, pivots):
            comb = [0] * n
            for k in gens:
                comb[k] = -r[k]
            assert module.same_element(unit_vec(n, c), comb)
        shorter += len(gens) < n
    assert shorter >= 50
    assert rings == {0, 2, 3, 4}


def _closed_report_agrees_with_full_walk(issues, module, table, subject):
    """Once closure passes, the report on spanning generators is ok exactly
    when the dense walk over every triple is; True when closure passed."""
    if any(i.kind == "torsion" for i in issues):
        return False
    full = dense_validate_table(module, table, subject, range(module.ambient_rank))
    assert (not issues) == full.ok, subject
    return True


def test_sparse_validation_matches_dense_reference():
    rng = random.Random(20230601)
    kinds = []
    unit_pivots_closed = 0
    for name in Catalog.names():
        g = Catalog.get(name)
        tables = [g.table]
        if g.rank >= 2:
            tables += [_shifted_table(g, rng) for _ in range(6)]
        for table in tables:
            bad = LieAlgebra(g.module, rows_of(table), name, check=False)
            issues = validate(bad).issues
            gens = g.module.spanning_generators()
            assert issues == dense_validate_table(g.module, bad.table, name,
                                                  gens).issues, name
            _closed_report_agrees_with_full_walk(issues, g.module, table, name)
            kinds.append({i.kind for i in issues})
            if issues:
                with pytest.raises(ValidationError) as err:
                    LieAlgebra(g.module, rows_of(table), name)
                assert err.value.report.issues == issues
    # presentations whose lattice rows have several terms, through from_module_data
    for _ in range(40):
        module, table = _random_presentation(rng)
        try:
            from_module_data(module, rows_of(table), "p")
            issues = []
        except ValidationError as err:
            issues = err.report.issues
        gens = module.spanning_generators()
        assert issues == dense_validate_table(module, table, "p", gens).issues
        if _closed_report_agrees_with_full_walk(issues, module, table, "p"):
            unit_pivots_closed += len(gens) < module.ambient_rank
        kinds.append({i.kind for i in issues})
    assert sum("torsion" in k for k in kinds) >= 5
    assert sum("jacobi" in k for k in kinds) >= 5
    assert unit_pivots_closed >= 5


def test_each_table_is_certified_once(monkeypatch):
    calls = []
    certify = liealg._certify

    def counting_certify(module, rows, br, subject):
        calls.append(subject)
        return certify(module, rows, br, subject)

    monkeypatch.setattr(liealg, "_certify", counting_certify)
    filiform = [lie_algebra([0] * n, {(0, i): unit_vec(n, i + 1)
                                      for i in range(1, n - 1)}, 0, f"L{n}")
                for n in (6, 8)]
    builds = [abelian([]), abelian([0, 2]), abelian([4, 4]), heisenberg(),
              heisenberg(2), strictly_upper(4), strictly_upper(5), sl2(5),
              sl2(7), lie_algebra([2, 2], {(0, 1): (0, 1)}, 2, "solv")]
    assert len(calls) == len(builds) + len(filiform)
    # a quotient certifies the table it transports, once
    g = builds[3]
    central = Ideal(g, center(g))
    calls.clear()
    quotient_algebra(g, central)
    assert calls == ["heisenberg/h"]


def _filiform(n):
    return lie_algebra([0] * n, {(0, i): unit_vec(n, i + 1) for i in range(1, n - 1)},
                       0, f"L{n}")


def _heisenberg_odd(k):
    n = 2 * k + 1
    return lie_algebra([0] * n, {(i, k + i): unit_vec(n, n - 1) for i in range(k)},
                       0, f"h{n}")


def neighbour_walk_jacobi(module, rows, br):
    """Jacobi by the neighbour walk, kept as the reference for the support
    rule: each pair s < t of spanning generators is completed by every
    spanning r beyond t in nbrs(s), nbrs(t) or nbrs(k) for k in the support
    of [s, t], whether or not the sum has a term."""
    nbrs = [set() for _ in range(module.ambient_rank)]
    for s, t in rows:
        nbrs[s].add(t)
        nbrs[t].add(s)
    gens = module.spanning_generators()
    nbrs = [nb & set(gens) for nb in nbrs]
    out = []
    for a, s in enumerate(gens):
        for t in gens[a + 1:]:
            st = rows.get((s, t), ())
            near = nbrs[s] | nbrs[t]
            for k, _ in st:
                near |= nbrs[k]
            for r in sorted(r for r in near if r > t):
                acc = {}
                for row, z, sign in ((st, r, 1), (rows.get((t, r), ()), s, 1),
                                     (rows.get((s, r), ()), t, -1)):
                    for k, c in row:
                        exactlin.add_terms(acc, sign * c, br(k, z))
                w = module.witness(acc)
                if w is not None:
                    out.append(((s, t, r), w))
    return out


def _corrupted_rows(rows, n, rng):
    """Bracket rows with 1-3 random coefficients shifted, empty rows dropped."""
    rows = dict(rows)
    for _ in range(rng.randint(1, 3)):
        s, t = sorted(rng.sample(range(n), 2))
        row = dict(rows.get((s, t), ()))
        k = rng.randrange(n)
        row[k] = row.get(k, 0) + rng.choice((-2, -1, 1, 2))
        rows[(s, t)] = tuple((k, c) for k, c in sorted(row.items()) if c)
    return {key: row for key, row in rows.items() if row}


def test_algebra_certification_matches_the_neighbour_walk():
    """LieAlgebra(..., check=True) reports the defects of the old neighbour
    walk, in its order, on seeded corruptions of n5, L8 and h7, over Z and on
    a module with torsion, where closure can fail too."""
    rng = random.Random(20261020)
    jacobi = torsion = 0
    for g in (strictly_upper(5), _filiform(8), _heisenberg_odd(3)):
        n = g.rank
        for orders in ([0] * n, [2] * (n // 2) + [0] * (n - n // 2)):
            module = FpModule.diagonal(orders)
            for _ in range(12):
                rows = _corrupted_rows(g._br, n, rng)
                try:
                    LieAlgebra(module, rows, "bad")
                    issues = []
                except ValidationError as err:
                    issues = err.report.issues
                br = liealg.bracket_lookup(rows)
                want = ValidationReport("bad")
                for where, w in liealg.closure_defects(module, br):
                    want.add("torsion", where, w)
                for where, w in neighbour_walk_jacobi(module, rows, br):
                    want.add("jacobi", where, w)
                assert issues == want.issues, (g.name, orders, rows)
                jacobi += sum(i.kind == "jacobi" for i in issues)
                torsion += any(i.kind == "torsion" for i in issues)
    assert jacobi >= 200 and torsion >= 10


def _walk_witness_lines(fn, name):
    """{line: kind} for the ``.witness(`` calls of an identity walk in fn.

    A call's kind is that of the next ``report.add`` below it, or ``name``
    when fn adds to no report.
    """
    lines, start = inspect.getsourcelines(fn)
    kinds, pending = {}, []
    for no, text in enumerate(lines, start):
        if ".witness(" in text:
            pending.append(no)
        added = re.search(r'report\.add\("([\w-]+)"', text)
        if added:
            kinds.update(dict.fromkeys(pending, added.group(1)))
            pending = []
    kinds.update(dict.fromkeys(pending, name))
    return kinds


def test_no_identity_walk_tests_an_empty_sum(monkeypatch):
    """Jacobi, bracket preservation, the action's lattice checks and axioms
    and the crossed-module identities visit only the tuples whose sum has a
    term: the squares of n5, L6, L8, h5 and h7 at q in {0, 2} with their xi,
    and the crossed modules of the catalog, pass no empty sum to
    ``FpModule.witness``."""
    walks = {fn.__code__: _walk_witness_lines(fn, name) for fn, name in (
        (liealg.jacobi_defects, "jacobi"), (LieHom.bracket_defects, "bracket"),
        (LieAction.validate, None), (validate_q_crossed, None))}
    visits, empty = Counter(), Counter()
    witness = FpModule.witness

    def spying(self, acc):
        caller = sys._getframe(1)
        kind = walks.get(caller.f_code, {}).get(caller.f_lineno)
        if kind is not None:
            visits[kind] += 1
            empty[kind] += not acc
        return witness(self, acc)

    monkeypatch.setattr(FpModule, "witness", spying)
    for g in (strictly_upper(5), _filiform(6), _filiform(8), _heisenberg_odd(2),
              _heisenberg_odd(3)):
        for q in (0, 2):
            for build in (q_tensor_product, q_exterior_product):
                build(g, None, q).xi()
    entries = Catalog.default_entries()
    results = (verify.check_crossed_modules(entries)
               + verify.check_inner_derivations(entries))
    assert all(r.ok for r in results)
    assert set(visits) == {"jacobi", "bracket", "action-actor-relations",
                           "action-acted-relations", "action-axiom-1",
                           "action-axiom-2", "crossed-i", "crossed-ii"}
    assert not +empty, (dict(empty), dict(visits))


# -- centers ----------------------------------------------------------------------

def test_center_examples():
    ab = lie_algebra([0, 0], {}, 0)
    assert center(ab).contains_vec((1, 0)) and center(ab).contains_vec((0, 1))
    assert q_center(ab, 0).invariant_factors == (0, 0)
    g = h3()
    z = center(g)
    assert z.invariant_factors == (0,)
    assert z.contains_vec((0, 0, 1)) and not z.contains_vec((1, 0, 0))
    assert q_center(g, 2).is_zero()
    gz2 = Catalog.get("heisenberg@Z/2")
    z2c = q_center(gz2, 2)
    assert z2c.invariant_factors == (2,)
    assert z2c.contains_vec((0, 0, 1))


# -- hash products and perfectness --------------------------------------------------

def test_hash_product_examples():
    ab = lie_algebra([0], {}, 0)
    assert hash_product(ab, None, 0).sub.is_zero()
    two = hash_product(ab, None, 2)
    assert two.orders == (0,) and two.sub.contains_vec((2,)) \
        and not two.sub.contains_vec((1,))
    g = h3()
    hp = hash_product(g, None, 0)
    assert hp.sub.contains_vec((0, 0, 1)) and hp.orders == (0,)
    assert derived_ideal(g).sub.same(hp.sub)


def test_is_q_perfect():
    assert not is_q_perfect(lie_algebra([0], {}, 0), 0)
    assert is_q_perfect(lie_algebra([3], {}, 0), 2)
    assert is_q_perfect(Catalog.get("sl2@Z/5"), 0)
    assert not is_q_perfect(h3(), 0)


# -- ideals and quotients -------------------------------------------------------------

def test_ideal_rejects_non_ideal():
    g = h3()
    with pytest.raises(NotAnIdeal):
        ideal_from_gens(g, [terms((1, 0, 0))])  # span(e1) is not bracket-closed


def test_whole_ideal_and_hash_products_are_built_once_per_algebra():
    """Whole-algebra ideals, products and q-abelianizations share one object
    per algebra (and per q); those over a proper ideal are built anew."""
    g, twin = (lie_algebra([0, 0, 0], {(0, 1): (0, 0, 1)}, 0, "h3")
               for _ in range(2))
    whole = Ideal.whole(g)
    assert Ideal.whole(g) is whole and Ideal.whole(twin) is not whole
    assert q_tensor_product(g, None, 2).ideal is whole
    assert q_exterior_product(g, None, 0).ideal is whole
    hashes = [hash_product(g, None, q) for q in (0, 2)]
    assert all(hash_product(g, None, q) is hp for q, hp in zip((0, 2), hashes))
    assert hashes[0] is not hashes[1] and derived_ideal(g) is hashes[0]
    assert hash_product(twin, None, 0) is not hashes[0]
    cen = Ideal(g, center(g))
    assert hash_product(g, cen, 2) is not hash_product(g, cen, 2)
    assert q_tensor_product(g, cen, 2) is not q_tensor_product(g, cen, 2)



def test_ideal_brackets_with_g_are_kept_once_in_parent_coordinates():
    """``h.be[i][j]`` is [b_i, e_j] in g's coordinates, and ``hash_rows``
    reads it: every [b_i, e_j] of an ideal is computed once."""
    for name in Catalog.names():
        g = Catalog.get(name)
        for h in (Ideal.whole(g), Ideal(g, center(g)), derived_ideal(g)):
            assert h.be == [[liealg.bracket_terms(g.bracket_sym, b, ((j, 1),))
                             for j in range(g.rank)] for b in h.basis], name
            flat = [row for be_i in h.be for row in be_i]
            assert liealg.hash_rows(g, h, 0) == flat, name
            assert liealg.hash_rows(g, h, 2) == flat + [
                tuple((k, 2 * c) for k, c in b) for b in h.basis], name

def test_input_checks_raise():
    g, other = h3(), Catalog.get("sl2@Z/5")
    with pytest.raises(ValueError,
                       match="submodule does not live in the parent's module"):
        Ideal(g, center(other))
    with pytest.raises(NotAnIdeal, match="ideal does not belong to this algebra"):
        quotient_algebra(g, Ideal.whole(other))
    with pytest.raises(ValueError, match="mixed base rings"):
        direct_sum_algebras(g, other)


def test_quotient_algebra_examples():
    g = h3()
    q0, _ = quotient_algebra(g, ideal_from_gens(g, []))
    assert q0.orders == g.orders and q0.table == g.table
    qc, proj = quotient_algebra(g, Ideal(g, center(g)))
    assert qc.orders == (0, 0) and qc.is_abelian()
    assert proj.hom.is_surjective()
    sl2 = Catalog.get("sl2@Z/5")
    qz, _ = quotient_algebra(sl2, Ideal.whole(sl2))
    assert qz.rank == 0


def test_quotient_projection_preserves_brackets():
    g = h3()
    _, proj = quotient_algebra(g, Ideal(g, center(g)))
    assert not proj.bracket_defects()


def test_quotient_algebra_sections_project_to_generators():
    seen = 0
    for name in Catalog.names():
        g = Catalog.get(name)
        ideals = [Ideal(g, center(g)), derived_ideal(g), Ideal(g, q_center(g, 2))]
        for h in ideals:
            alg, proj = quotient_algebra(g, h)
            def canon(v):
                return dense(alg.module.canon(terms(v)), alg.rank)
            lifts = [dense(v, g.rank) for v in proj.section_vectors]
            assert len(lifts) == alg.rank
            for a in range(alg.rank):
                assert canon(proj(lifts[a])) == unit_vec(alg.rank, a)
                for b in range(a + 1, alg.rank):
                    want = canon(proj(g.bracket(lifts[a], lifts[b])))
                    assert alg.table[a][b] == want, (name, a, b)
            seen += alg.rank >= 2
    assert seen >= 10


def dense_bracket_defects(hom, gens):
    """Pairs i < j of the indices ``gens``, each side of
    hom([x,y]) = [hom x, hom y] dense."""
    m = hom.target.module.ambient_rank
    images = [dense(r, m) for r in hom.hom.image().gens]
    gens = sorted(gens)
    out = []
    for a, i in enumerate(gens):
        for j in gens[a + 1:]:
            lhs = [0] * m
            for k, c in hom.source.bracket_sym(i, j):
                vec_addmul(lhs, c, images[k])
            rhs = hom.target.bracket(images[i], images[j])
            diff = vec_sub(lhs, rhs)
            if not hom.target.module.is_lattice_member(diff):
                out.append(((i, j), diff))
    return out


def _full_pairs(hom):
    return range(hom.source.module.ambient_rank)


def _module_map_holds(hom):
    """Whether hom sends the source lattice into the target lattice."""
    src = hom.hom.source
    return all(hom.target.module.is_lattice_member(hom(dense(r, src.ambient_rank)))
               for r in src.lattice_rows)


def _perturbed(hom, rng):
    """A copy of hom with one image row shifted, its checks bypassed."""
    rows = [list(dense(r, hom.hom.target.ambient_rank)) for r in hom.hom.image().gens]
    row = rng.randrange(len(rows))
    for k in range(len(rows[row])):
        rows[row][k] += rng.randint(-2, 2)
    bad = copy.copy(hom)
    bad.hom = ModuleHom(hom.hom.source, hom.hom.target, [terms(r) for r in rows],
                        check=False)
    return bad


def test_sparse_bracket_defects_match_dense_reference():
    homs = [build(Catalog.get(name), None, q).xi() for name in Catalog.names()
            for q in (0, 1, 2, 3) for build in (q_tensor_product, q_exterior_product)]
    for hom in homs:
        full = dense_bracket_defects(hom, _full_pairs(hom))
        assert hom.bracket_defects() == full == []
    rng = random.Random(2026)
    nonempty = 0
    for hom in homs:
        if hom.source.module.ambient_rank < 2:
            continue
        gens = hom.source.module.spanning_generators()
        for _ in range(3):
            bad = _perturbed(hom, rng)
            want = dense_bracket_defects(bad, gens)
            assert bad.bracket_defects() == want
            if _module_map_holds(bad):
                full = dense_bracket_defects(bad, _full_pairs(bad))
                assert bool(want) == bool(full)
            nonempty += bool(want)
    assert nonempty >= 5


def _shifted_by_module_hom(hom, rng):
    """A copy of hom plus a random module hom, its bracket check bypassed.

    The summand sends canonical generator t of the source, of order d, to a
    target vector y with d * y in the target lattice, so the module check
    passes and only the bracket can fail.
    """
    src, tgt = hom.hom.source, hom.hom.target
    n = src.ambient_rank
    ys = []
    for d in src.invariant_factors:
        y = [0] * tgt.ambient_rank
        if rng.random() < 0.5:
            j = rng.randrange(tgt.ambient_rank)
            o = tgt.invariant_factors[j]
            step = 1 if d == 0 else (0 if o == 0 else o // gcd(o, d))
            y[j] = step * rng.choice((-1, 1, 2))
        ys.append(y)
    rows = [list(dense(r, tgt.ambient_rank)) for r in hom.hom.image().gens]
    for s, row in enumerate(rows):
        for c, y in zip(dense(src.canon(terms(unit_vec(n, s))), src.rank), ys):
            vec_addmul(row, c, y)
    bad = copy.copy(hom)
    bad.hom = ModuleHom(src, tgt, [terms(r) for r in rows])
    return bad


def test_generator_pair_walk_agrees_with_full_walk():
    rng = random.Random(20231103)
    cases = failing = 0
    for name in ("n3", "n4", "heisenberg", "heisenberg@Z/2", "Z^2", "sl2@Z/5"):
        g = Catalog.get(name)
        for q in (0, 2):
            for build in (q_tensor_product, q_exterior_product):
                hom = build(g, None, q).xi()
                gens = hom.source.module.spanning_generators()
                for bad in [hom] + [_shifted_by_module_hom(hom, rng) for _ in range(6)]:
                    full = dense_bracket_defects(bad, _full_pairs(bad))
                    on_gens = bad.bracket_defects()
                    assert bool(on_gens) == bool(full), (name, q)
                    assert set(on_gens) <= set(full), (name, q)
                    assert on_gens == dense_bracket_defects(bad, gens), (name, q)
                    cases += 1
                    failing += bool(full) and len(gens) < hom.source.nsym
    assert cases >= 100
    assert failing >= 20


def test_lie_hom_rejects_a_module_map_that_breaks_the_bracket():
    # e1, e2 fixed and the central e3 sent to 0: a module map of heisenberg,
    # but hom([e1, e2]) = 0 while [hom e1, hom e2] = e3
    g = h3()
    with pytest.raises(ValidationError) as err:
        LieHom(g, g, [((0, 1),), ((1, 1),), ()])
    assert [(i.kind, i.where, i.witness) for i in err.value.report.issues] == [
        ("bracket", (0, 1), (0, 0, -1))]


# -- derivations ------------------------------------------------------------------------

def test_derivations_examples():
    assert derivations(lie_algebra([0], {}, 0)).orders == (0,)
    assert derivations(lie_algebra([2], {}, 2)).orders == (2,)


def test_derivations_h3_mod2_vs_enumeration():
    g = Catalog.get("heisenberg@Z/2")
    der = derivations(g)
    # brute force: all 2^9 matrices, keep lattice-preserving Leibniz maps
    import itertools
    n = 3
    count = 0
    for bits in itertools.product((0, 1), repeat=9):
        mat = [bits[3 * i: 3 * i + 3] for i in range(n)]

        def apply(v):
            return tuple(sum(v[i] * mat[i][j] for i in range(n)) % 2
                         for j in range(n))

        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                lhs = apply(g.bracket(unit_vec(n, i), unit_vec(n, j)))
                ei, ej = unit_vec(n, i), unit_vec(n, j)
                rhs = tuple((a + b) % 2 for a, b in zip(
                    g.bracket(apply(ei), ej), g.bracket(ei, apply(ej))))
                if lhs != rhs:
                    ok = False
        count += ok
    order = 1
    for d in der.orders:
        order *= d
    assert order == count


def test_derivations_reject_a_commutator_outside_the_kernel(monkeypatch):
    # Composition forged to E00 on odd calls and 0 on even ones: the first
    # commutator is E00, which breaks the Leibniz identity on [e1, e2] = e3.
    calls = []

    def forged(d1, d2, n):
        calls.append(None)
        odd = len(calls) % 2
        return tuple(tuple(int(odd and i == j == 0) for j in range(n)) for i in range(n))

    monkeypatch.setattr(liealg, "_compose_matrices", forged)
    with pytest.raises(ValidationError) as exc:
        derivations(h3())
    issue = exc.value.report.issues[0]
    assert str(issue) == "commutator-closure(0, 1): witness (1, 0, 0, 0, 0, 0, 0, 0, 0)"


def test_inner_derivations_are_derivations():
    g = h3()
    der = derivations(g)
    for a in range(g.rank):
        mat = adjoint_matrix(g, unit_vec(g.rank, a))
        flat = tuple(x for row in mat for x in row)
        assert der.sub.contains_vec(flat)


def test_inner_q_derivations_examples():
    ab = lie_algebra([0, 2], {}, 0)
    ider, xm = inner_q_derivations(ab, 0)
    assert ider.rank == 0
    z = lie_algebra([0], {}, 0)
    ider, xm = inner_q_derivations(z, 2)
    assert ider.orders == (0,)
    g = h3()
    ider, xm = inner_q_derivations(g, 0)
    assert ider.orders == (0, 0) and ider.is_abelian()
    assert validate_q_crossed(xm.mu, xm.action, xm.q).ok
    assert xm.mu.kernel().same(q_center(g, 0))


# -- crossed modules ------------------------------------------------------------------

def test_identity_crossed_module():
    g = h3()
    n = g.rank
    constants = [[terms(g.bracket(unit_vec(n, i), unit_vec(n, j))) for j in range(n)]
                 for i in range(n)]
    action = LieAction(g, g, constants)
    mu = LieHom(g, g, [terms([1 if i == j else 0 for j in range(n)]) for i in range(n)])
    assert validate_q_crossed(mu, action, 0).ok
    QCrossedModule(mu, action, 0)  # certified when built


def test_ideal_inclusion_crossed_module():
    g = h3()
    zc = Ideal(g, center(g))
    sub_mod, emb = zc.sub.as_module_with_embedding()
    sub_alg = lie_algebra(list(sub_mod.invariant_factors), {}, 0, "z")
    constants = [[zc.gb[j][i] for i in range(zc.p)] for j in range(g.rank)]
    action = LieAction(g, sub_alg, constants)
    mu = LieHom(sub_alg, g, zc.basis)
    assert validate_q_crossed(mu, action, 0).ok
    QCrossedModule(mu, action, 0)  # certified when built


def test_crossed_module_condition_iii_fails():
    # Z/2 -> 0 with trivial action at q = 3: the kernel is not 3-torsion
    z2 = lie_algebra([2], {}, 2, "Z/2")
    zero = lie_algebra([], {}, 2, "0")
    action = LieAction(zero, z2, [])
    mu = LieHom(z2, zero, [[]])
    with pytest.raises(ValidationError) as err:
        QCrossedModule(mu, action, 3)
    rep = err.value.report
    assert not rep.ok
    assert any(i.kind == "crossed-iii" for i in rep.issues)


# Each action and crossed-module safety net fires on one pinned input; the
# issue lists are pinned whole, so no other check fires alongside.

def _issues(report):
    return [(i.kind, i.where, i.witness) for i in report.issues]


def test_action_actor_relations_fire():
    # Z/2 acting on Z by the identity: 2 e1 acts as 2, not 0
    z2, z = lie_algebra([2], {}, 0, "Z/2"), lie_algebra([0], {}, 0, "Z")
    action = LieAction(z2, z, [[((0, 1),)]])
    assert _issues(action.validate()) == [
        ("action-actor-relations", ((2,), 0), (2,))]


def test_action_acted_relations_fire():
    # Z sending the order-2 generator of Z/2 + Z to the free one
    z = lie_algebra([0], {}, 0, "Z")
    mixed = lie_algebra([0, 2], {}, 0, "Z/2+Z")
    assert mixed.orders == (2, 0)
    action = LieAction(z, mixed, [[((1, 1),), ()]])
    assert _issues(action.validate()) == [
        ("action-acted-relations", (0, (2, 0)), (0, 2))]


def test_action_axiom_1_fires():
    # heisenberg acting on Z with only the central e3 acting nontrivially
    z = lie_algebra([0], {}, 0, "Z")
    action = LieAction(h3(), z, [[()], [()], [((0, 1),)]])
    assert _issues(action.validate()) == [("action-axiom-1", (0, 1, 0), (1,))]


def test_action_axiom_2_fires():
    # Z acting on heisenberg by the identity map, which is no derivation
    g = h3()
    z = lie_algebra([0], {}, 0, "Z")
    action = LieAction(z, g, [[terms(unit_vec(3, j)) for j in range(3)]])
    assert _issues(action.validate()) == [
        ("action-axiom-2", (0, 0, 1), (0, 0, -1))]


def test_crossed_module_condition_i_fails():
    # Z acting on Z by the identity, mu the identity: mu is not equivariant
    z = lie_algebra([0], {}, 0, "Z")
    action = LieAction(z, z, [[((0, 1),)]])
    mu = LieHom(z, z, [terms([1])])
    with pytest.raises(ValidationError) as err:
        QCrossedModule(mu, action, 0)
    assert _issues(err.value.report) == [
        ("crossed-i", (0, 0), (1,)), ("crossed-ii", (0, 0), (1,))]


def test_crossed_module_condition_ii_fails():
    # the adjoint action of heisenberg on itself with mu zero: no Peiffer identity
    g = h3()
    constants = [[g.bracket_sym(i, j) for j in range(3)] for i in range(3)]
    action = LieAction(g, g, constants)
    mu = LieHom(g, g, [terms([0, 0, 0])] * 3)
    with pytest.raises(ValidationError) as err:
        QCrossedModule(mu, action, 0)
    assert _issues(err.value.report) == [
        ("crossed-ii", (0, 1), (0, 0, -1)), ("crossed-ii", (1, 0), (0, 0, 1))]


def test_crossed_module_peiffer_diagonal_fails():
    # Z/2 acting on Z/4 by doubling, mu onto Z/2: the one Peiffer failure is
    # on the diagonal, mu(m).m = 2m while [m, m] = 0
    z4, z2 = lie_algebra([4], {}, 0, "Z/4"), lie_algebra([2], {}, 0, "Z/2")
    action = LieAction(z2, z4, [[((0, 2),)]])
    mu = LieHom(z4, z2, [((0, 1),)])
    with pytest.raises(ValidationError) as err:
        QCrossedModule(mu, action, 0)
    assert _issues(err.value.report) == [("crossed-ii", (0, 0), (2,))]


def test_crossed_module_rejects_an_action_on_another_object():
    # xi of the tensor square with the action on the exterior square: the
    # shapes agree and each walk passes, but the action is not on mu's source
    g = h3()
    mu = q_tensor_product(g, None, 0).xi()
    action, _ = product_action(q_exterior_product(g, None, 0))
    assert action.acted is not mu.source and action.actor is mu.target
    with pytest.raises(ValueError, match="mu's source"):
        validate_q_crossed(mu, action, 0)
    with pytest.raises(ValueError, match="mu's source"):
        QCrossedModule(mu, action, 0)
    # an equal but separately built actor is another object too
    twin = LieAction(Catalog.get("n3"), mu.source, action.constants)
    with pytest.raises(ValueError, match="mu's target"):
        validate_q_crossed(mu, twin, 0)


def test_each_crossed_module_validates_its_action_once(monkeypatch):
    # building a crossed module is its certification; the verify checks
    # build 104 on the catalog and walk no action a second time
    calls = []
    validate_action = LieAction.validate

    def counted(action):
        calls.append(action)
        return validate_action(action)

    monkeypatch.setattr(LieAction, "validate", counted)
    entries = Catalog.default_entries()
    results = (verify.check_crossed_modules(entries)
               + verify.check_inner_derivations(entries))
    assert len(results) == 104 and all(r.ok for r in results)
    assert len(calls) == len({id(a) for a in calls}) == 104


def test_direct_sum_algebras():
    g = direct_sum_algebras(Catalog.get("Z/2"), h3())
    assert g.rank == 4
    assert validate(g).ok
    # b's rows shifted past a's generators, then canonized: Z/2 comes first
    g = direct_sum_algebras(h3(), Catalog.get("Z/2"))
    assert g.orders == (2, 0, 0, 0) and g.name == "heisenberg+Z/2"
    zero = (0, 0, 0, 0)
    assert g.table == ((zero, zero, zero, zero),
                       (zero, zero, zero, (0, 0, -1, 0)),
                       (zero, zero, zero, zero),
                       (zero, (0, 0, 1, 0), zero, zero))


def test_quotient_factors_split_for_abelian_summands():
    # split extensions of abelian algebras: factors of g are those of the
    # summand ideal together with those of the quotient
    from lieq.exactlin import merged_factors
    g = lie_algebra([2, 4, 0], {}, 0, "ab")
    for keep in ((0,), (1,), (2,), (0, 1), (1, 2)):
        gens = [terms(unit_vec(3, i)) for i in keep]
        h = ideal_from_gens(g, gens)
        q, _ = quotient_algebra(g, h)
        assert merged_factors([h.orders, q.orders]) == g.orders, keep


def test_action_rejects_misshapen_constants():
    z = lie_algebra([0], {}, 0, "Z")
    g = h3()
    with pytest.raises(ValueError):
        LieAction(z, g, [[()] * 2])  # one constant short
    # a term index out of range, even with coefficient 0 or beside a valid term
    for bad in (((3, 1),), ((3, 0),), ((-1, 1),), ((2, 1), (5, 0))):
        with pytest.raises(ValueError, match="index out of range"):
            LieAction(z, g, [[(), bad, ()]])


def test_action_merges_messy_constants():
    z = lie_algebra([0], {}, 0, "Z")
    g = h3()
    # repeats summed, zeros dropped, a cancelling constant empty
    messy = LieAction(z, g, [[((2, 1), (2, 1), (0, 0)), ((1, 3), (1, -3)), ()]])
    assert messy.constants == ((((2, 2),), (), ()),)


def test_algebras_and_products_pickle():
    # each holds its sparse bracket lookup; a round trip keeps the bracket
    import pickle
    g = Catalog.get("sl2@Z/5")
    prod = q_tensor_product(g, None, 2)
    prod.xi()
    for obj in (g, prod):
        back = pickle.loads(pickle.dumps(obj))
        n = obj.module.ambient_rank
        assert all(back.bracket_sym(s, t) == obj.bracket_sym(s, t)
                   for s in range(n) for t in range(n))
