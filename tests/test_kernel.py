"""Postconditions of the Hermite reduction kernels."""

import random

from lieq import _kernel


def _random_matrix(rng, rows, cols, bound=20):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_hnf_kernel_is_the_row_kernel():
    rng = random.Random(99)
    from lieq.exactlin import FpModule, augmented_kernel, unit_vec
    for _ in range(30):
        cols = rng.randint(1, 5)
        nrows = rng.randint(1, 8)
        mat = _random_matrix(rng, nrows, cols, bound=7)
        basis = _kernel.hnf_rows([list(r) for r in mat], cols)
        stack = [list(r) + list(unit_vec(nrows, i)) for i, r in enumerate(mat)]
        ker = augmented_kernel(stack, cols, cols + nrows)
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
        reduced = _kernel.hnf_rows([list(r) for r in mat], cols)
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
        reduced = _kernel.hnf_rows([list(r) for r in mat], cols)
        assert _kernel.hnf_rows(_re_present(rng, mat), cols) == reduced
        pivots = [next(k for k, x in enumerate(r) if x) for r in reduced]
        assert pivots == sorted(set(pivots))
        for i, (row, c) in enumerate(zip(reduced, pivots)):
            assert row[c] > 0
            assert all(0 <= above[c] < row[c] for above in reduced[:i])
