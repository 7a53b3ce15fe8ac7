"""Exact linear algebra helpers: big-integer SNF, ranks, dense rational ops.

Matrices are lists of lists (dense) or lists of {col: value} dicts
(sparse).  Everything is exact: Python ints for integral work and
Fractions for rational work.
"""

from fractions import Fraction

from .errors import IntegrityError


# ---------------------------------------------------------------- dense Q ops

def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def mat_identity(n, one=1):
    return [[one if i == j else 0 * one for j in range(n)] for i in range(n)]


def mat_inverse(A):
    """Inverse of a square matrix over the rationals; raises if singular."""
    n = len(A)
    M = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise IntegrityError("matrix is singular")
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


def rank_rational(rows):
    """Rank over Q of a dense matrix given as list of rows."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    row_at = 0
    for col in range(ncols):
        piv = next((r for r in range(row_at, len(work)) if work[r][col] != 0), None)
        if piv is None:
            continue
        work[row_at], work[piv] = work[piv], work[row_at]
        pivot = work[row_at][col]
        for r in range(row_at + 1, len(work)):
            if work[r][col] != 0:
                f = work[r][col] / pivot
                work[r] = [a - f * b for a, b in zip(work[r], work[row_at])]
        row_at += 1
        rank += 1
        if row_at == len(work):
            break
    return rank


def det_int(A):
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    n = len(A)
    M = [row[:] for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if M[r][k] != 0), None)
            if piv is None:
                return 0
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


# ------------------------------------------------------------------ sparse Q

def rank_sparse_rational(rows):
    """Rank over Q; rows are dicts {col: Fraction-like}."""
    pivots = {}
    rank = 0
    for row in rows:
        vec = {k: Fraction(v) for k, v in row.items() if v != 0}
        while vec:
            j = min(vec)
            if j not in pivots:
                pivots[j] = vec
                rank += 1
                break
            pv = pivots[j]
            f = vec[j] / pv[j]
            for k, v in pv.items():
                nv = vec.get(k, Fraction(0)) - f * v
                if nv == 0:
                    vec.pop(k, None)
                else:
                    vec[k] = nv
        # empty vec: dependent row
    return rank


# ----------------------------------------------------------------------- SNF

def smith_normal_form(matrix):
    """Smith normal form with transforms.

    Returns (invariants, L, R) where L @ matrix @ R is diagonal with the
    invariant factor chain d1 | d2 | ..., `invariants` lists the nonzero
    diagonal entries, and L, R are unimodular.  The reduction pivots on a
    smallest-magnitude nonzero entry; arithmetic is exact big-int.
    The transforms are verified by multiplication before returning.
    """
    A = [list(map(int, row)) for row in matrix]
    n = len(A)
    m = len(A[0]) if n else 0
    L = mat_identity(n)
    R = mat_identity(m)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        L[i], L[j] = L[j], L[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in R:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        A[dst] = [a + c * b for a, b in zip(A[dst], A[src])]
        L[dst] = [a + c * b for a, b in zip(L[dst], L[src])]

    def add_col(src, dst, c):
        for row in A:
            row[dst] += c * row[src]
        for row in R:
            row[dst] += c * row[src]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        L[i] = [-a for a in L[i]]

    t = 0
    while True:
        piv = None
        best = None
        for i in range(t, n):
            for j in range(t, m):
                a = A[i][j]
                if a != 0 and (best is None or abs(a) < best):
                    best = abs(a)
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            dirty = False
            for i in range(t + 1, n):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    add_row(t, i, -q)
                    if A[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, m):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    add_col(t, j, -q)
                    if A[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty and all(A[i][t] == 0 for i in range(t + 1, n)) and all(
                A[t][j] == 0 for j in range(t + 1, m)
            ):
                break
        if A[t][t] < 0:
            negate_row(t)
        t += 1
        if t == min(n, m):
            break

    # enforce the divisibility chain by folding adjacent diagonal pairs
    k = min(n, m)
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if a != 0 and b % a != 0:
                # col_i += col_{i+1}, then re-clear the 2x2 block
                add_col(i + 1, i, 1)
                while True:
                    if A[i + 1][i] != 0:
                        if A[i][i] == 0 or (A[i + 1][i] != 0 and abs(A[i + 1][i]) < abs(A[i][i])):
                            swap_rows(i, i + 1)
                        q = A[i + 1][i] // A[i][i]
                        add_row(i, i + 1, -q)
                        if A[i + 1][i] != 0:
                            continue
                    if A[i][i + 1] != 0:
                        q = A[i][i + 1] // A[i][i]
                        add_col(i, i + 1, -q)
                        if A[i][i + 1] != 0:
                            swap_cols(i, i + 1)
                            continue
                    break
                if A[i][i] < 0:
                    negate_row(i)
                if A[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True

    invariants = [A[i][i] for i in range(k) if A[i][i] != 0]
    for x, y in zip(invariants, invariants[1:]):
        if y % x != 0:
            raise IntegrityError(f"SNF divisibility chain broken: {invariants}")
    check = mat_mul(mat_mul(L, [list(map(int, row)) for row in matrix]), R)
    for i in range(n):
        for j in range(m):
            if i != j and A[i][j] != 0:
                raise IntegrityError("SNF result is not diagonal")
            if check[i][j] != A[i][j]:
                raise IntegrityError("SNF transform verification failed")
    return invariants, L, R

