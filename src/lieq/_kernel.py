"""Integer matrix reduction kernels.

These loops are where the package spends its time: module canonicalization,
kernels, quotients and product presentations all reduce to repeated Smith
normal form and row-echelon passes over arbitrary-precision integer rows.
The Smith form works on dense rows. The Hermite form takes sparse (k, c)
term rows, as the product builder writes its relations, and never densifies
them before its output.
"""


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b):
    """Exact product of two list-of-list integer matrices."""
    if not a:
        return []
    inner = len(b)
    bcols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * bcols
        for k in range(inner):
            x = row[k]
            if x:
                bk = b[k]
                for j in range(bcols):
                    y = bk[j]
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def snf_with_transforms(mat, nrows, ncols):
    """Smith normal form with full transform tracking.

    Returns ``(d, u, v, vinv)`` with ``u * mat * v == d``, ``u`` and ``v``
    unimodular, ``vinv`` the exact inverse of ``v``, and ``d`` diagonal with
    non-negative entries satisfying d[0][0] | d[1][1] | ...
    """
    a = [list(row) for row in mat]
    u = identity_matrix(nrows)
    v = identity_matrix(ncols)
    vinv = identity_matrix(ncols)
    t = 0
    limit = nrows if nrows < ncols else ncols
    while t < limit:
        # Pivot: entry of least magnitude in the trailing block.
        pi = -1
        pj = -1
        best = 0
        found_unit = False
        for i in range(t, nrows):
            ai = a[i]
            for j in range(t, ncols):
                x = ai[j]
                if x:
                    if x < 0:
                        x = -x
                    if pi < 0 or x < best:
                        pi = i
                        pj = j
                        best = x
                        if x == 1:
                            found_unit = True
                            break
            if found_unit:
                break
        if pi < 0:
            break
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for r in range(t, nrows):
                ar = a[r]
                ar[t], ar[pj] = ar[pj], ar[t]
            for r in range(ncols):
                vr = v[r]
                vr[t], vr[pj] = vr[pj], vr[t]
            vinv[t], vinv[pj] = vinv[pj], vinv[t]
        while True:
            again = False
            for i in range(t + 1, nrows):
                x = a[i][t]
                if x:
                    piv = a[t][t]
                    q = x // piv
                    if q:
                        ai = a[i]
                        at = a[t]
                        for k in range(t, ncols):
                            ai[k] -= q * at[k]
                        ui = u[i]
                        ut = u[t]
                        for k in range(nrows):
                            ui[k] -= q * ut[k]
                    if a[i][t]:
                        # Remainder is smaller than the pivot: swap and redo.
                        a[t], a[i] = a[i], a[t]
                        u[t], u[i] = u[i], u[t]
                        again = True
            if again:
                continue
            for j in range(t + 1, ncols):
                x = a[t][j]
                if x:
                    piv = a[t][t]
                    q = x // piv
                    if q:
                        for r in range(t, nrows):
                            ar = a[r]
                            ar[j] -= q * ar[t]
                        for r in range(ncols):
                            vr = v[r]
                            vr[j] -= q * vr[t]
                        vt = vinv[t]
                        vj = vinv[j]
                        for k in range(ncols):
                            vt[k] += q * vj[k]
                    if a[t][j]:
                        for r in range(t, nrows):
                            ar = a[r]
                            ar[t], ar[j] = ar[j], ar[t]
                        for r in range(ncols):
                            vr = v[r]
                            vr[t], vr[j] = vr[j], vr[t]
                        vinv[t], vinv[j] = vinv[j], vinv[t]
                        again = True
            if again:
                continue
            # Divisibility sweep: the pivot must divide the trailing block.
            piv = a[t][t]
            bad = -1
            for i in range(t + 1, nrows):
                ai = a[i]
                for j in range(t + 1, ncols):
                    if ai[j] % piv:
                        bad = i
                        break
                if bad >= 0:
                    break
            if bad < 0:
                break
            at = a[t]
            ab = a[bad]
            for k in range(t, ncols):
                at[k] += ab[k]
            ut = u[t]
            ub = u[bad]
            for k in range(nrows):
                ut[k] += ub[k]
        if a[t][t] < 0:
            at = a[t]
            for k in range(t, ncols):
                at[k] = -at[k]
            ut = u[t]
            for k in range(nrows):
                ut[k] = -ut[k]
        t += 1
    return a, u, v, vinv


def hnf_rows(rows, ncols):
    """Reduced row Hermite form of the row lattice: unique for the lattice.

    ``rows`` are sparse rows of (k, c) terms, coefficient c in column k < ncols
    (the ``exactlin.terms`` vocabulary: repeated indices are summed, zero
    coefficients allowed). Incremental echelon without transform tracking,
    on rows held as dicts: a row's leading column is its least key, and each
    reduction step runs over the pivot row's support only. Returns at most
    ``ncols`` dense rows, sorted by pivot column, pivots positive, entries
    above a pivot in [0, pivot). The one Hermite routine: module lattices,
    submodules and, on augmented stacks, every kernel
    (``exactlin.augmented_kernel``).
    """
    pivots = {}
    for row in rows:
        r = {}
        for k, x in row:
            if x:
                r[k] = r.get(k, 0) + x
        if 0 in r.values():
            r = {k: x for k, x in r.items() if x}
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                if r[c] < 0:
                    r = {k: -x for k, x in r.items()}
                pivots[c] = r
                break
            while True:
                q = r[c] // p[c]
                if q:
                    _submul(r, q, p)
                if c not in r:
                    break
                p, r = r, p
                pivots[c] = p
            # r is now zero at column c; go on from its next column.
    return _reduced(pivots, ncols)


def _submul(r, q, p):
    """r -= q * p on dict rows, dropping the entries that become zero."""
    for k, x in p.items():
        y = r.get(k, 0) - q * x
        if y:
            r[k] = y
        else:
            del r[k]


def _reduced(pivots, ncols):
    """Echelon rows ``{pivot column: dict row}`` in reduced form, top-down, dense.

    Reducing column c changes the rows above only right of c, in columns
    reduced later; bottom-up would undo columns already reduced.
    """
    out = []
    for c in sorted(pivots):
        p = pivots[c]
        if p[c] < 0:
            p = {k: -x for k, x in p.items()}
        d = p[c]
        for above in out:
            f = above.get(c, 0) // d
            if f:
                _submul(above, f, p)
        out.append(p)
    dense = []
    for p in out:
        row = [0] * ncols
        for k, x in p.items():
            row[k] = x
        dense.append(row)
    return dense
