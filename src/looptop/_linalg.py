"""Exact linear algebra helpers: sparse Smith invariants, the 2x2-minor gcd, dense ops.

Matrices are lists of lists (dense) or lists of {index: value} dicts
(sparse).  Everything is exact integer arithmetic.

`smith_invariants` is the Smith form of the cobar torsion path: sparse
elimination without transforms (Kannan and Bachem, SIAM J. Comput. 8,
1979; Dumas, Saunders and Villard, J. Symb. Comput. 32, 2001), certified
by an independent elimination over Z/p^(e+1) at every prime p of the
answer and a rank over F_p at one more prime.  `smith_normal_form` is the
dense form with transforms, kept for small presentations (and as the
tests' reference) whose transforms are checked by multiplication.
"""

import heapq
from collections import Counter
from math import gcd

from .errors import IntegrityError


# ------------------------------------------------------------------ dense ops

def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def minor_gcd(rows):
    """gcd of the 2x2 minors of an integer matrix given by its rows.

    It is 0 exactly when the rank over Q is below 2, and a prime p divides
    it exactly when the rank over F_p is below 2.  The scan stops once the
    gcd is 1.
    """
    g = 0
    for i, a in enumerate(rows):
        for b in rows[i + 1:]:
            for k in range(len(a)):
                for l in range(k + 1, len(a)):
                    g = gcd(g, a[k] * b[l] - a[l] * b[k])
                    if g == 1:
                        return 1
    return g


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


# ------------------------------------------------------------- sparse SNF

def smith_invariants(columns):
    """Nonzero invariant factors d1 | d2 | ... of a sparse integer matrix.

    `columns` are {row: value} dicts.  `_diagonalize` reduces a copy to a
    diagonal, which is folded into the divisibility chain by gcd/lcm; no
    transform is kept.  The answer is then certified independently: at
    every prime p dividing an invariant, with e the largest p-valuation
    among them, elimination over Z/p^(e+1) must find exactly the multiset
    of p-valuations of the invariants, count included.  The same check at
    one large prime that divides none of them is a rank over F_p, which
    catches a lost invariant whose valuations lie above every e.  Any
    mismatch raises IntegrityError.
    """
    columns = [col for col in columns if any(col.values())]
    if not columns:
        return []
    invariants = _divisibility_chain(_diagonalize(columns))
    primes = _prime_factors(invariants)
    if _RANK_PRIME not in primes:
        primes.append(_RANK_PRIME)
    for p in primes:
        claimed = sorted(_valuation(x, p) for x in invariants)
        k = max(claimed, default=0) + 1
        found = _local_valuations(columns, p, k)
        if found != claimed:
            raise IntegrityError(
                f"Smith form certificate failed at p={p}: elimination over Z/{p}^{k} "
                f"gives valuations {found}, the invariants {claimed}"
            )
    return invariants


_RANK_PRIME = 2**30 - 35  # the largest prime below 2^30


def _diagonalize(columns):
    """Diagonal entries (absolute values) of an integer elimination.

    The pivot is an entry of smallest |value| (shortest column on a tie).
    Column operations clear its row, row operations clear its column, and
    any nonzero remainder becomes the new pivot.  Once both are clear the
    pivot row and column are dropped, which leaves the Schur complement.
    """
    cols, rows = _sparse_copy(columns, lambda v: v)
    queue = _PivotQueue(_pivot_key(j, col, abs) for j, col in cols.items())
    diagonal = []

    def add_col(k, j, c):  # column k += c * column j
        col = cols[k]
        for i, v in cols[j].items():
            nv = col.get(i, 0) + c * v
            if nv:
                col[i] = nv
                rows[i].add(k)
            else:
                del col[i]
                rows[i].discard(k)

    while queue:
        _, _, j, r = queue.pop()
        touched = {j}
        while True:
            p = cols[j][r]
            for k in [k for k in rows[r] if k != j]:
                q = cols[k][r] // p
                if q:
                    add_col(k, j, -q)
                    touched.add(k)
            left = [(abs(cols[k][r]), k) for k in rows[r] if k != j]
            if left:
                j = min(left)[1]
                continue
            # row r holds only the pivot, so each row operation changes column j alone
            col = cols[j]
            touched.add(j)
            for i in [i for i in col if i != r]:
                rest = col[i] % p
                if rest:
                    col[i] = rest
                else:
                    del col[i]
                    rows[i].discard(j)
            left = [(abs(v), i) for i, v in col.items() if i != r]
            if not left:
                break
            r = min(left)[1]
        diagonal.append(abs(p))
        del rows[r], cols[j]
        queue.drop(j)
        touched.discard(j)
        for k in touched:
            if cols[k]:
                queue.push(_pivot_key(k, cols[k], abs))
            else:
                del cols[k]
                queue.drop(k)
    return diagonal


def _sparse_copy(columns, entry):
    """Nonzero entry(v) of each column by index, and the columns of each row."""
    cols = {}
    rows = {}
    for j, col in enumerate(columns):
        kept = {}
        for r, v in col.items():
            v = entry(v)
            if v:
                kept[r] = v
                rows.setdefault(r, set()).add(j)
        if kept:
            cols[j] = kept
    return cols, rows


class _PivotQueue:
    """Pivot keys (size, column length, column, row), least first.

    A heap with lazy deletion: a pushed key replaces the column's old one,
    which is skipped when it surfaces.
    """

    def __init__(self, keys):
        self.current = {key[2]: key for key in keys}
        self.heap = list(self.current.values())
        heapq.heapify(self.heap)

    def __bool__(self):
        return bool(self.current)

    def push(self, key):
        self.current[key[2]] = key
        heapq.heappush(self.heap, key)

    def drop(self, j):
        self.current.pop(j, None)

    def pop(self):
        while True:
            key = heapq.heappop(self.heap)
            if self.current.get(key[2]) == key:
                del self.current[key[2]]
                return key


def _pivot_key(j, col, size):
    """(size, column length, j, row) of the entry of least size in column j."""
    r = min(col, key=lambda i: size(col[i]))
    return size(col[r]), len(col), j, r


def _divisibility_chain(diagonal):
    """Invariant factors from a diagonal: fold gcd/lcm until a chain.

    Any two entries a < b with a not dividing b become gcd(a, b) and
    lcm(a, b), which keeps every p-valuation multiset; once all distinct
    values divide one another, the sorted entries form the chain.
    """
    count = Counter(diagonal)
    while True:
        pair = next(((a, b) for a in count for b in count if a < b and b % a), None)
        if pair is None:
            return sorted(count.elements())
        a, b = pair
        g = gcd(a, b)
        count -= Counter(pair)
        count.update((g, a // g * b))


def _prime_factors(values):
    """Sorted primes dividing any of `values`."""
    from .spaces import factorize  # the one factorizer; spaces imports this module

    return sorted({p for n in set(values) for p in factorize(n)})


def _valuation(x, p):
    """Exponent of p in x; x is nonzero."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _local_valuations(columns, p, k):
    """Sorted p-valuations of the Smith form of `columns` over Z/p^k.

    Elimination modulo p^k: the pivot is an entry of least p-valuation a,
    so every entry of its row and column is a multiple of p^a and the unit
    part of the pivot is invertible.  Entries of valuation >= k are zero.
    An entry v is ranked by gcd(v, p^k) = p^(valuation of v).
    """
    m = p**k
    cols, rows = _sparse_copy(columns, lambda v: v % m)

    def scale_of(v):
        return gcd(v, m)

    queue = _PivotQueue(_pivot_key(j, col, scale_of) for j, col in cols.items())
    found = []
    while queue:
        scale, _, j, r = queue.pop()
        pivot = cols.pop(j)
        for i in pivot:
            rows[i].discard(j)
        inverse = pow(pivot.pop(r) // scale, -1, m)
        for t in rows.pop(r):
            col = cols[t]
            f = col.pop(r) // scale * inverse % m
            for i, v in pivot.items():
                nv = (col.get(i, 0) - f * v) % m
                if nv:
                    col[i] = nv
                    rows[i].add(t)
                elif i in col:
                    del col[i]
                    rows[i].discard(t)
            if col:
                queue.push(_pivot_key(t, col, scale_of))
            else:
                del cols[t]
                queue.drop(t)
        found.append(_valuation(scale, p))
    return sorted(found)


# ------------------------------------------------------------- dense SNF

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
            # clear row t by column operations; the least remainder becomes the pivot
            for j in range(t + 1, m):
                if A[t][j] != 0:
                    add_col(t, j, -(A[t][j] // A[t][t]))
            rest = [j for j in range(t + 1, m) if A[t][j] != 0]
            if rest:
                swap_cols(t, min(rest, key=lambda j: abs(A[t][j])))
                continue
            # row t now holds only the pivot, so row operations change column t alone
            for i in range(t + 1, n):
                if A[i][t] != 0:
                    add_row(t, i, -(A[i][t] // A[t][t]))
            rest = [i for i in range(t + 1, n) if A[i][t] != 0]
            if not rest:
                break
            swap_rows(t, min(rest, key=lambda i: abs(A[i][t])))
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

