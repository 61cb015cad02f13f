"""Postconditions of the Hermite reduction kernels."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from lieq import _kernel
from lieq.exactlin import FpModule, dense, terms


def _random_matrix(rng, rows, cols, bound=20):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_hnf_kernel_is_the_row_kernel():
    rng = random.Random(99)
    from lieq.exactlin import FpModule, augmented_kernel, unit_vec
    for _ in range(30):
        cols = rng.randint(1, 5)
        nrows = rng.randint(1, 8)
        mat = _random_matrix(rng, nrows, cols, bound=7)
        basis = _kernel.hnf_rows([terms(r) for r in mat], cols)
        stack = [terms(list(r) + list(unit_vec(nrows, i))) for i, r in enumerate(mat)]
        ker = [dense(r, nrows) for r in augmented_kernel(stack, cols, cols + nrows)]
        # every kernel generator annihilates the matrix
        for k in ker:
            prod = [sum(k[i] * mat[i][j] for i in range(nrows))
                    for j in range(cols)]
            assert all(x == 0 for x in prod)
        # completeness: the kernel lattice has rank nrows - rank(mat), so the
        # quotient Z^nrows / kernel keeps exactly rank(mat) free factors
        rank = len(basis)
        kmod = FpModule(nrows, ker)
        assert sum(1 for d in kmod.invariant_factors if d == 0) == rank
        for i in range(nrows):
            if all(x == 0 for x in mat[i]):
                unit = [1 if j == i else 0 for j in range(nrows)]
                assert kmod.is_lattice_member(unit)


def test_hnf_preserves_lattice():
    rng = random.Random(7)
    from lieq.exactlin import FpModule
    for _ in range(25):
        cols = rng.randint(1, 5)
        mat = _random_matrix(rng, rng.randint(0, 6), cols, bound=9)
        reduced = _kernel.hnf_rows([terms(r) for r in mat], cols)
        a = FpModule(cols, mat)
        b = FpModule(cols, reduced)
        assert a.invariant_factors == b.invariant_factors
        for r in mat:
            assert b.is_lattice_member(r)
        for r in reduced:
            assert a.is_lattice_member(r)


def _re_present(rng, mat):
    """Other rows for the same row lattice: a unimodular transform of the
    rows, plus integer combinations of them, in shuffled order."""
    rows = [list(r) for r in mat]
    for _ in range(3 * len(rows)):
        if len(rows) > 1:
            i, j = rng.sample(range(len(rows)), 2)
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            i = rng.randrange(len(rows))
            rows[i] = [-x for x in rows[i]]
    for _ in range(rng.randint(0, 3)):
        coeffs = [rng.randint(-2, 2) for _ in rows]
        rows.append([sum(c * r[k] for c, r in zip(coeffs, rows))
                     for k in range(len(mat[0]))])
    rng.shuffle(rows)
    return rows


def test_hnf_rows_is_the_reduced_form_of_the_lattice():
    rng = random.Random(2718)
    for _ in range(60):
        cols = rng.randint(1, 6)
        mat = _random_matrix(rng, rng.randint(1, 7), cols, bound=9)
        reduced = _kernel.hnf_rows([terms(r) for r in mat], cols)
        assert _kernel.hnf_rows([terms(r) for r in _re_present(rng, mat)],
                                cols) == reduced
        pivots = [next(k for k, x in enumerate(r) if x) for r in reduced]
        assert pivots == sorted(set(pivots))
        for i, (row, c) in enumerate(zip(reduced, pivots)):
            assert row[c] > 0
            assert all(0 <= above[c] < row[c] for above in reduced[:i])


def reference_hnf_rows(rows, ncols):
    """The dense Hermite kernel that ``hnf_rows`` replaced, kept verbatim."""
    pivots = {}
    for row in rows:
        r = list(row)
        c = 0
        while c < ncols:
            x = r[c]
            if x == 0:
                c += 1
                continue
            p = pivots.get(c)
            if p is None:
                if x < 0:
                    for k in range(c, ncols):
                        r[k] = -r[k]
                pivots[c] = r
                break
            while True:
                q = r[c] // p[c]
                if q:
                    for k in range(c, ncols):
                        r[k] -= q * p[k]
                if r[c] == 0:
                    break
                p, r = r, p
                pivots[c] = p
            # r is now zero at column c; keep scanning it.
    return reference_reduced(pivots, ncols)


def reference_reduced(pivots, ncols):
    out = []
    for c in sorted(pivots):
        p = pivots[c]
        if p[c] < 0:
            for k in range(c, ncols):
                p[k] = -p[k]
        d = p[c]
        terms = [(k, p[k]) for k in range(c, ncols) if p[k]]
        for above in out:
            f = above[c] // d
            if f:
                for k, x in terms:
                    above[k] -= f * x
        out.append(p)
    return out


# A term row: (k, c) pairs in any order, with repeated indices and zeros.
term_stacks = st.integers(1, 7).flatmap(lambda ncols: st.tuples(
    st.just(ncols),
    st.lists(st.lists(st.tuples(st.integers(0, ncols - 1), st.integers(-9, 9)),
                      max_size=2 * ncols),
             max_size=9)))


@settings(max_examples=300, deadline=None)
@given(term_stacks)
def test_term_rows_match_the_dense_reference(stack):
    ncols, rows = stack
    dense_rows = [list(dense(r, ncols)) for r in rows]
    assert _kernel.hnf_rows(rows, ncols) == reference_hnf_rows(dense_rows, ncols)


def test_term_rows_match_the_dense_reference_on_re_presentations():
    """Larger seeded lattices, each row split into shuffled terms."""
    rng = random.Random(31)
    for _ in range(40):
        cols = rng.randint(1, 12)
        mat = _random_matrix(rng, rng.randint(1, 14), cols, bound=9)
        rows = []
        for r in _re_present(rng, mat):
            row = []
            for k, x in enumerate(r):
                if x or rng.random() < 0.2:
                    part = rng.randint(-3, 3)
                    row += [(k, part), (k, x - part)]
            rng.shuffle(row)
            rows.append(row)
        want = reference_hnf_rows([list(dense(r, cols)) for r in rows], cols)
        assert _kernel.hnf_rows(rows, cols) == want


def test_from_terms_rejects_an_index_out_of_range():
    with pytest.raises(ValueError):
        FpModule.from_terms(3, [((0, 1), (3, 2))])
    with pytest.raises(ValueError):
        FpModule.from_terms(3, [((-1, 1),)])
    assert FpModule.from_terms(3, [((0, 2), (2, 0), (0, 2))]).invariant_factors == \
        FpModule(3, [(4, 0, 0)]).invariant_factors
