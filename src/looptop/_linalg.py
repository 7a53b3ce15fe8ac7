"""Exact integer arithmetic: Smith invariants, minors, determinants, factorization.

Matrices are lists of lists (dense) or lists of {index: value} dicts
(sparse).  Everything is exact integer arithmetic, and this module
imports no other part of the engine except its errors.

`smith_invariants` is the one Smith form: sparse elimination without
transforms (Kannan and Bachem, SIAM J. Comput. 8, 1979; Dumas, Saunders
and Villard, J. Symb. Comput. 32, 2001), certified by an independent
elimination over Z/p^(e+1) at every prime p of the answer and a rank
over F_p at one more prime.  The cobar torsion path calls it on sparse
columns, and `smith_normal_form` on the rows of a small presentation.
The certificate factorizes the invariants, so it is meant for matrices
whose invariants stay small, not for determinant-sized ones.
"""

import heapq
import random
from collections import Counter
from math import gcd

from .errors import IntegrityError, UnsupportedSpaceError


# ------------------------------------------------------------------ dense ops

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


def smith_normal_form(rows):
    """Nonzero invariant factors d1 | d2 | ... of a dense integer matrix.

    The matrix is given by its rows; its columns go to `smith_invariants`,
    so the answer carries the same certificate.
    """
    width = len(rows[0]) if rows else 0
    columns = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(width)]
    return smith_invariants(columns)


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
    An entry v is ranked by gcd(v, p^k) = p^(valuation of v).  With k = 1
    (a rank over F_p) every nonzero entry is a unit, so the pivot is the
    column's first entry, which is also what the scan by size would find.
    """
    m = p**k
    cols, rows = _sparse_copy(columns, lambda v: v % m)

    def scale_of(v):
        return gcd(v, m)

    def key(j, col):
        if k == 1:
            return 1, len(col), j, next(iter(col))
        return _pivot_key(j, col, scale_of)

    queue = _PivotQueue(key(j, col) for j, col in cols.items())
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
                queue.push(key(t, col))
            else:
                del cols[t]
                queue.drop(t)
        found.append(_valuation(scale, p))
    return sorted(found)


# ------------------------------------------------------------- factorization

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Pollard rho splits off a prime p in about sqrt(p) steps, so this budget
# reaches prime factors up to about 10^9; a number whose least two prime
# factors above the trial-division bound are both far larger (a product of
# two 64-bit primes takes about 2^32 steps) is refused instead.
_RHO_STEPS = 1 << 16


def _is_probable_prime(n):
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:  # deterministic for n < 3.3e24
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n, rng):
    """A proper factor of the composite n, or None after _RHO_STEPS steps."""
    if n % 2 == 0:
        return 2
    steps = 0
    while steps < _RHO_STEPS:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1 and steps < _RHO_STEPS:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(x - y, n)
            steps += 1
        if 1 < d < n:
            return d
    return None


def factorize(n):
    """Sorted prime factors (with multiplicity) by trial division then Pollard rho.

    A composite part that Pollard rho does not split within its step
    budget is refused with UnsupportedSpaceError, which names it.
    """
    n = abs(int(n))
    if n < 2:
        return []
    out = []
    for p in range(2, 100_000):
        if p * p > n:
            break
        while n % p == 0:
            out.append(p)
            n //= p
    if n == 1:
        return sorted(out)
    rng = random.Random(0xC0BA)
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out.append(m)
            continue
        d = _pollard_rho(m, rng)
        if d is None:
            raise UnsupportedSpaceError(
                f"cannot factor {m}: Pollard rho found no factor in {_RHO_STEPS} steps"
            )
        stack.append(d)
        stack.append(m // d)
    return sorted(out)
