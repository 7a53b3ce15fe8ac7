"""Verification oracles used only by the tests.

The rewriting reducer (normal forms modulo one quadratic relation, with
strongly connected clusters of reducible words solved exactly), explicit
irreducible-word enumeration, the Lyndon predicate by rotations, the free
Lyndon words of every word enumerated (the reference for the Duval walk),
the standard factorization by the longest Lyndon suffix (the reference for
the least-suffix split), the closed walks avoiding the factor counted
once per start letter (the reference for the necklace walk), the necklace
sum over every word length (the reference for the necklace count), matrix
evaluation of tensor elements, the rational plane split of a quadratic
relation (the congruence whose plane fixes the engine's letter order, with
its rewrite rule and Lie tail), the Betti number of a finite cover, the
rational Witt double sum of the one-relator Lie ranks (the reference for
the engine's integer Lucas sum), the Lucas numbers by their recurrence
(the reference for the engine's doubling), the closed-form rational ranks, the
closed-form loop-homology denominators of a manifold, a connected sum and
a Betti-one manifold (the references for each family's series fraction),
the tuple-word build of the cobar complex, its packed stores written one
column at a time (the reference for the build's block writes), the
columns the rank reads found one call per column (the reference for its
byte masks), the unit-pivot rows of a left-looking reduction that
unpacks every column, dense and sparse rank over Q, the dense Smith
normal form with transforms (the reference for the sparse Smith
invariants), and the `Fraction` series logarithm and exponential with the
log + Moebius Lie ranks, and the small helpers only tests read: tensor
elements as text, a form's rows as its nonzero entries and back, the
relation as a tensor, a dimension table as a list,
the smoothability table of the Betti-one manifolds.  The engine never
calls them; the tests use them to check its answers by an independent
route.

The rewrite rule eliminates the single forbidden factor x0 x1.  For skew
relations repeated substitution terminates on its own, but a symmetric
relation with diagonal terms can cycle: expanding x0 x0 x1 with the rule
x0 x1 -> -x1 x0 - x0 x0 - 2 x1 x1 regenerates x0 x0 x1 itself with a
growing coefficient.  Normal forms still exist and are unique, so the
reducer resolves each strongly connected cluster of reducible words by
solving the small linear system the substitutions define, instead of
substituting forever.  A fuel bound on the number of distinct reducible
words explored guards against pathological inputs.
"""

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product, repeat
from math import comb
from operator import gt, ne

from looptop.algebra import Alphabet, TensorElement
from looptop.cobar import PackedColumns, _desusp, _diagonal_desuspended
from looptop.errors import IntegrityError, UnsupportedSpaceError, ValidationError
from looptop.series import (
    DimensionTable,
    PowerSeries,
    divisors,
    moebius_mu,
    pbw_match_graded,
)

# normal forms of reducible words, per rewrite system
_NF_CACHE = weakref.WeakKeyDictionary()


class RewriteSystem:
    """One rule: the forbidden word (0, 1) rewrites to `replacement`."""

    def __init__(self, alphabet, replacement, forbidden=(0, 1)):
        if len(forbidden) != 2 or forbidden[0] == forbidden[1]:
            raise ValidationError("forbidden factor must be a 2-letter word with distinct letters")
        if replacement.alphabet != alphabet:
            raise ValidationError("replacement lives on a different alphabet")
        for word in replacement.terms:
            if _find_factor(word, forbidden) is not None:
                raise IntegrityError("replacement reintroduces the forbidden factor directly")
        expected = alphabet.degrees[forbidden[0]] + alphabet.degrees[forbidden[1]]
        if not is_zero(replacement) and replacement.degree != expected:
            raise ValidationError("replacement degree does not match the forbidden factor")
        self.alphabet = alphabet
        self.forbidden = tuple(forbidden)
        self.replacement = replacement

    @classmethod
    def from_normalized(cls, split):
        """The rule x0 x1 -> f_alg of a `RationalPlaneSplit`."""
        return cls(split.alphabet, split.f_alg, split.forbidden_pair)


def _find_factor(word, forbidden):
    a, b = forbidden
    for i in range(len(word) - 1):
        if word[i] == a and word[i + 1] == b:
            return i
    return None


def _expand_once(rs, word, at):
    """Substitute the replacement into `word` at position `at`."""
    head, tail = word[:at], word[at + 2 :]
    for sub, coeff in rs.replacement.terms.items():
        yield head + sub + tail, coeff


def _normal_forms(rs, seeds):
    """Normal forms (dicts over irreducible words) for the reducible seeds.

    Resolves the leftmost-substitution graph by strongly connected
    components (iterative Tarjan), solving each component's linear system
    exactly.  Results are memoized per rewrite system.
    """
    cache = _NF_CACHE.setdefault(rs, {})
    pending = [w for w in seeds if w not in cache and _find_factor(w, rs.forbidden) is not None]
    if not pending:
        return
    fuel = 4 ** max(len(w) for w in pending)

    expansions = {}

    def children(u):
        if u not in expansions:
            at = _find_factor(u, rs.forbidden)
            acc = {}
            for v, c in _expand_once(rs, u, at):
                acc[v] = acc.get(v, Fraction(0)) + c
            expansions[u] = {v: c for v, c in acc.items() if c != 0}
        return expansions[u]

    index = {}
    low = {}
    on_stack = set()
    stack = []
    counter = [0]

    def solve_component(comp):
        # (I - C) X = B over vectors indexed by irreducible words
        pos = {u: k for k, u in enumerate(comp)}
        size = len(comp)
        M = [[Fraction(1) if i == j else Fraction(0) for j in range(size)] for i in range(size)]
        rhs = [dict() for _ in range(size)]
        for u in comp:
            for v, c in children(u).items():
                if v in pos:
                    M[pos[u]][pos[v]] -= c
                else:
                    target = cache[v] if v in cache else {v: Fraction(1)}
                    row = rhs[pos[u]]
                    for w, cw in target.items():
                        nv = row.get(w, Fraction(0)) + c * cw
                        if nv == 0:
                            row.pop(w, None)
                        else:
                            row[w] = nv
        for col in range(size):
            piv = next((r for r in range(col, size) if M[r][col] != 0), None)
            if piv is None:
                raise IntegrityError("rewriting system is degenerate: normal form not determined")
            M[col], M[piv] = M[piv], M[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
            inv = 1 / M[col][col]
            M[col] = [x * inv for x in M[col]]
            rhs[col] = {k: v * inv for k, v in rhs[col].items()}
            for r in range(size):
                if r != col and M[r][col] != 0:
                    f = M[r][col]
                    M[r] = [a - f * b for a, b in zip(M[r], M[col])]
                    row = rhs[r]
                    for k, v in rhs[col].items():
                        nv = row.get(k, Fraction(0)) - f * v
                        if nv == 0:
                            row.pop(k, None)
                        else:
                            row[k] = nv
        for u in comp:
            cache[u] = rhs[pos[u]]

    # iterative Tarjan over the reducible-word graph
    for seed in pending:
        if seed in cache or seed in index:
            continue
        work = [(seed, iter(children(seed).keys()))]
        index[seed] = low[seed] = counter[0]
        counter[0] += 1
        stack.append(seed)
        on_stack.add(seed)
        if len(index) > fuel:
            raise IntegrityError("rewrite fuel exhausted")
        while work:
            u, it = work[-1]
            advanced = False
            for v in it:
                if _find_factor(v, rs.forbidden) is None or v in cache:
                    continue
                if v not in index:
                    index[v] = low[v] = counter[0]
                    counter[0] += 1
                    if len(index) > fuel:
                        raise IntegrityError("rewrite fuel exhausted")
                    stack.append(v)
                    on_stack.add(v)
                    work.append((v, iter(children(v).keys())))
                    advanced = True
                    break
                if v in on_stack:
                    low[u] = min(low[u], index[v])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[u])
            if low[u] == index[u]:
                comp = []
                while True:
                    v = stack.pop()
                    on_stack.discard(v)
                    comp.append(v)
                    if v == u:
                        break
                solve_component(comp)


def reduce(element, rs):
    """Eliminate every forbidden factor; total and exact on valid input."""
    if element.alphabet != rs.alphabet:
        raise ValidationError("element lives on a different alphabet")
    reducible = [w for w in element.terms if _find_factor(w, rs.forbidden) is not None]
    _normal_forms(rs, reducible)
    out = {}
    for word, coeff in element.terms.items():
        if _find_factor(word, rs.forbidden) is None:
            out[word] = out.get(word, Fraction(0)) + coeff
        else:
            for w, c in _NF_CACHE[rs][word].items():
                out[w] = out.get(w, Fraction(0)) + coeff * c
    return TensorElement(rs.alphabet, out)


def irreducible_words(alphabet, forbidden, up_to_degree, max_words=None):
    """All words of degree <= D avoiding the factor, grouped by degree.

    DFS over letters with an O(1) last-letter check; each degree's list
    comes out lex-sorted.  `max_words` guards materialization (counting is
    always available through `irreducible_counts`).
    """
    if len(forbidden) != 2:
        raise ValidationError("forbidden factor must be a 2-letter word")
    out = {d: [] for d in range(1, up_to_degree + 1)}
    total = 0
    r = alphabet.size
    stack = [((i,), alphabet.degrees[i]) for i in range(r - 1, -1, -1)]
    while stack:
        word, degree = stack.pop()
        if degree > up_to_degree:
            continue
        out[degree].append(word)
        total += 1
        if max_words is not None and total > max_words:
            raise ValidationError(f"irreducible word materialization exceeds {max_words} words")
        last = word[-1]
        for i in range(r - 1, -1, -1):
            if last == forbidden[0] and i == forbidden[1]:
                continue
            d = degree + alphabet.degrees[i]
            if d <= up_to_degree:
                stack.append((word + (i,), d))
    for d in out:
        out[d].sort()
    return out


def is_lyndon(word):
    """True when the word is strictly smaller than its proper rotations."""
    n = len(word)
    if n == 0:
        return False
    for k in range(1, n):
        if word[k:] + word[:k] <= word:
            return False
    return True


def generate_lyndon(alphabet, max_degree):
    """Lyndon words of total degree <= max_degree, {d: lex-sorted words} for
    every d in 1..max_degree: every word of each length, kept when Lyndon."""
    out = {d: [] for d in range(1, max_degree + 1)}
    for length in range(1, max_degree // min(alphabet.degrees) + 1):
        for word in product(range(alphabet.size), repeat=length):
            d = alphabet.word_degree(word)
            if d <= max_degree and is_lyndon(word):
                out[d].append(word)
    for words in out.values():
        words.sort()
    return out


def longest_lyndon_suffix_split(word):
    """l = l1 l2 with l2 the longest proper Lyndon suffix of a Lyndon word,
    found by testing each suffix from the longest down."""
    i = next(i for i in range(1, len(word)) if is_lyndon(word[i:]))
    return word[:i], word[i:]


def closed_walks_by_start(alphabet, forbidden, max_degree):
    """A[(w, d)] = rooted cyclic sequences of length w, degree d, avoiding the step.

    A sequence (v_0 .. v_{w-1}) counts when every transition including the
    wrap v_{w-1} -> v_0 avoids forbidden; one walk per root v_0, testing
    every letter pair at every step.  Roots of degree above max_degree
    leave a key (1, d) with d > max_degree.
    """
    r = alphabet.size
    degs = alphabet.degrees
    out = {}
    min_deg = min(degs)
    max_len = max_degree // min_deg
    for start in range(r):
        # paths[(cur, d)] = linear sequences start..cur of the current length,
        # all internal transitions allowed, d = total degree of the letters
        paths = {(start, degs[start]): 1}
        for w in range(1, max_len + 1):
            for (cur, d), cnt in paths.items():
                if not (cur == forbidden[0] and start == forbidden[1]):
                    key = (w, d)
                    out[key] = out.get(key, 0) + cnt
            nxt = {}
            for (cur, d), cnt in paths.items():
                for j in range(r):
                    if cur == forbidden[0] and j == forbidden[1]:
                        continue
                    nd = d + degs[j]
                    if nd <= max_degree:
                        key = (j, nd)
                        nxt[key] = nxt.get(key, 0) + cnt
            paths = nxt
            if not paths:
                break
    return out


def necklace_count_every_length(alphabet, walks, degree):
    """Aperiodic necklaces of `degree` from a closed-walk table, by the
    Moebius sum over every word length up to degree // (least letter
    degree), empty or not (the reference for the engine's necklace count)."""
    total = 0
    for w in range(1, degree // min(alphabet.degrees) + 1):
        acc = 0
        for e in divisors(degree):
            if w % e == 0:
                acc += moebius_mu(e) * walks.get((w // e, degree // e), 0)
        if acc % w:
            raise IntegrityError("necklace count is not divisible by the word length")
        total += acc // w
    return total


def evaluate(element, matrices):
    """Substitute a square matrix per letter of `element`; returns the matrix."""
    size = len(matrices[0])
    total = [[Fraction(0)] * size for _ in range(size)]
    for word, coeff in element.terms.items():
        prod = [[Fraction(1) if i == j else Fraction(0) for j in range(size)] for i in range(size)]
        for letter in word:
            prod = mat_mul(prod, matrices[letter])
        for i in range(size):
            for j in range(size):
                total[i][j] += coeff * prod[i][j]
    return total


def finite_pi1_betti(l, r):
    """Betti number of the universal cover: chi multiplies along covers."""
    if l < 1:
        raise ValidationError("the fundamental group order must be >= 1")
    if r < 0:
        raise ValidationError("the Betti number must be >= 0")
    return l * (r + 2) - 2


def _require_nonneg_int(value, what):
    if value.denominator != 1:
        raise IntegrityError(f"{what} is not an integer: {value}")
    if value < 0:
        raise IntegrityError(f"{what} is negative: {value}")
    return int(value)


def lucas_numbers(r, k):
    """V_0..V_k with V_0 = 2, V_1 = r and V_j = r V_(j-1) - V_(j-2), so that
    V_j = alpha^j + beta^j for the roots alpha, beta of x^2 - r x + 1 (the
    reference for the engine's doubling)."""
    lucas = [2, r]
    for _ in range(k - 1):
        lucas.append(r * lucas[-1] - lucas[-2])
    return lucas[: k + 1]


@lru_cache(maxsize=None)
def _witt_inner_sum(r, k):
    # sum over a + 2b = k of (-1)^b C(a+b, b) r^a / (a+b), which is V_k / k
    # for the Lucas numbers V_k of x^2 - r x + 1
    acc = Fraction(0)
    for b in range(0, k // 2 + 1):
        a = k - 2 * b
        acc += Fraction((-1) ** b * comb(a + b, b) * r**a, a + b)
    return acc


def closed_form_witt_rank(n, r, degree):
    """Rank of the one-relator Lie algebra on r letters at `degree`, as the
    rational double sum sum_{c|d} mu(c)/c W(r, d/c) on degree d(n-1) (the
    reference for the engine's integer Lucas sum)."""
    if degree % (n - 1) != 0:
        return 0
    d = degree // (n - 1)
    acc = Fraction(0)
    for c in divisors(d):
        mc = moebius_mu(c)
        if mc:
            acc += Fraction(mc, c) * _witt_inner_sum(r, d // c)
    return _require_nonneg_int(acc, f"closed-form rank at degree {degree}")


def closed_form_rational_rank(n, r, degree):
    """Rank of the degree-d rational homotopy Lie algebra piece.

    Same double sum as the ungraded count but with the alternating sign
    (-1)^(d(n-1)) (-1)^(d(n-1)/c) weighting that accounts for the graded
    (exterior/polynomial) PBW factorization.
    """
    if r < 2:
        raise ValidationError("closed form requires r >= 2")
    if degree < 1:
        raise ValidationError("degree must be >= 1")
    if degree % (n - 1) != 0:
        return 0
    d = degree // (n - 1)
    acc = Fraction(0)
    for c in divisors(d):
        mc = moebius_mu(c)
        if mc:
            sign = -1 if (degree // c) % 2 else 1
            acc += sign * Fraction(mc, c) * _witt_inner_sum(r, d // c)
    if degree % 2:
        acc = -acc
    return _require_nonneg_int(acc, f"closed-form rational rank at degree {degree}")


def rational_ranks_closed_form(n, r, N):
    """Closed-form rational ranks m_d for d <= N, cross-checked by matching.

    The graded PBW matcher applied to 1/(1 - r t^(n-1) + t^(2n-2)) must
    reproduce the closed form exactly; a mismatch raises IntegrityError.
    """
    if r < 2:
        raise ValidationError("rational ranks are defined here only for r >= 2")
    dims = {}
    for d in range(1, N + 1):
        v = closed_form_rational_rank(n, r, d)
        if v:
            dims[d] = v
    table = DimensionTable(dims, N)
    matched = pbw_match_graded(manifold_denominator(n, r, N).inverse(), N)
    if matched.dims != table.dims:
        raise IntegrityError(
            f"rational rank closed form disagrees with graded PBW matching for n={n}, r={r}: "
            f"{table.dims} vs {matched.dims}"
        )
    return table


def manifold_denominator(n, r, order):
    """1 - r t^(n-1) + t^(2n-2), the loop-homology Hilbert denominator of an
    (n-1)-connected 2n-manifold (or two-cell complex) of middle rank r >= 2."""
    if n < 2:
        raise ValidationError("n must be >= 2")
    coeffs = [1] + [0] * order
    if n - 1 <= order:
        coeffs[n - 1] -= r
    if 2 * n - 2 <= order:
        coeffs[2 * n - 2] += 1
    return PowerSeries(tuple(coeffs))


def connected_sum_denominator(factors, order):
    """1 - sum_i (t^(p_i-1) + t^(q_i-1)) + t^(n-2) for factor list [(p_i, q_i)]."""
    if not factors:
        raise ValidationError("need at least one sphere-product factor")
    n = factors[0][0] + factors[0][1]
    coeffs = [1] + [0] * order
    for p, q in factors:
        if p + q != n:
            raise ValidationError("all factors must have the same total dimension")
        for e in (p - 1, q - 1):
            if e <= order:
                coeffs[e] -= 1
    if n - 2 <= order:
        coeffs[n - 2] += 1
    return PowerSeries(tuple(coeffs))


def betti_one_denominator(n, order):
    """(1 - t^(3n-2)) / (1 + t^(n-1)), the inverse loop-homology series of a
    Betti-one manifold: Lambda[x_(n-1)] (x) Z[y_(3n-2)]."""
    periodic = PowerSeries.of([1] + [0] * (3 * n - 3) + [-1], order)
    exterior = PowerSeries.of([1] + [0] * (n - 2) + [1], order)
    return periodic * exterior.inverse()


def reference_cobar(coalgebra, cutoff):
    """Spots and differential of the cobar window, built on tuple words.

    The word basis is found by depth-first search under the window filter
    of `cobar.build_cobar` (degree <= cutoff + 1, degree + weight <= cutoff
    + cutoff // smallest generator degree), sorted per spot, and indexed by
    a word -> position dict; each column applies the desuspended diagonal at
    every position of the word with the Koszul sign of the letters before
    it and looks the image word up.  Returns (spots, diffs) keyed by
    (degree + weight, degree), with letter tuples as words.
    """
    degs = _desusp(coalgebra)
    slice_cap = cutoff + cutoff // min(degs)

    spots = {}
    stack = [((), 0, 0)]
    while stack:
        word, degree, weight = stack.pop()
        if word:
            spots.setdefault((degree + weight, degree), []).append(word)
        for i, deg in enumerate(degs):
            nd, nw = degree + deg, weight + 1
            if nd <= cutoff + 1 and nd + nw <= slice_cap:
                stack.append((word + (i,), nd, nw))
    for key in spots:
        spots[key].sort()
    index = {key: {w: i for i, w in enumerate(words)} for key, words in spots.items()}

    diag = _diagonal_desuspended(coalgebra)
    diffs = {}
    for (s, d), words in spots.items():
        target = index.get((s, d - 1))
        cols = []
        for word in words:
            col = {}
            prefix_deg = 0
            for i, gi in enumerate(word):
                if diag[gi]:
                    outer = -1 if prefix_deg % 2 else 1
                    for left, right, coeff in diag[gi]:
                        row = target[word[:i] + (left, right) + word[i + 1 :]]
                        val = col.get(row, 0) + outer * coeff
                        if val:
                            col[row] = val
                        else:
                            col.pop(row, None)
                prefix_deg += degs[gi]
            cols.append(col)
        diffs[(s, d)] = cols
    return spots, diffs


def per_column_stores(cx):
    """The packed differentials of `cx`, written one column at a time.

    The reference for the block writes of `cobar.build_cobar`, from the
    same word counts: the column of g u is the column of u in the spot one
    letter shorter, with its rows moved to the start of g's block and its
    values times (-1)^|g|, and one entry per term (l, r, c) of g's merged
    desuspended diagonal, at the start of l's block plus the start of r's
    block inside it plus the index of u.  The smallest term comes first,
    then the column of u in its store order, then the other terms in
    ascending row.  Returns {spot: PackedColumns}, int8 values when every
    merged coefficient fits a byte.
    """
    degs = cx.degs
    diag = {}
    for g, terms in _diagonal_desuspended(cx.coalgebra).items():
        merged = {}
        for left, right, coeff in terms:
            merged[left, right] = merged.get((left, right), 0) + coeff
        diag[g] = [(lr, c) for lr, c in merged.items() if c]
    narrow = PackedColumns.fits_a_byte(c for terms in diag.values() for _, c in terms)
    stores = {(0, 0): PackedColumns(0, narrow)}
    stores[0, 0].ptr.append(0)
    for s, d in sorted(cx.spots, key=lambda key: key[0] - key[1]):  # by weight
        w = s - d
        target = cx.block_starts(w, d - 1)
        cols = PackedColumns(target[-1], narrow)
        for g, gdeg in enumerate(degs):
            if not cx.count(w - 1, d - gdeg):
                continue
            du = stores[d - gdeg + w - 1, d - gdeg]
            sign = -1 if gdeg % 2 else 1
            terms = sorted(
                (target[l] + cx.block_starts(w - 1, d - 1 - degs[l])[r], c) for (l, r), c in diag[g]
            )
            for j, (a, b) in enumerate(zip(du.ptr, du.ptr[1:])):
                entries = [(at + j, c) for at, c in terms[:1]]
                entries += [(target[g] + r, sign * v) for r, v in zip(du.rows[a:b], du.vals[a:b])]
                entries += [(at + j, c) for at, c in terms[1:]]
                for row, v in entries:
                    cols.rows.append(row)
                    cols.vals.append(v)
                cols.ptr.append(len(cols.rows))
        stores[s, d] = cols
    del stores[0, 0]
    return stores


def live_by_steps(columns, skip=None):
    """The columns the rank reads, one boolean per column for
    `itertools.compress`: True where `ptr` steps up and the column's byte in
    `skip` is 0 (True > byte only for a zero byte).  The reference for the
    byte mask of `cobar._live`; one call per column, and it stops at the
    end of the shorter of the store and the mask."""
    ptr = columns.ptr
    return map(gt, map(ne, ptr, islice(ptr, 1, None)), skip or repeat(0))


def unit_pivot_rows(columns, skip=frozenset()):
    """Rows of the unit pivots of the left-looking reduction of `columns`.

    The reference for the pivot rows of `cobar._sparse_rank_and_torsion`:
    every column ({row: value} dict) whose index is not in `skip` is copied
    and reduced in order against the unit pivots found so far, and a column
    whose leading entry is not +-1 is set aside and reduced again after
    every pass that adds a pivot.
    """
    pivots = {}
    todo = [dict(col) for i, col in enumerate(columns) if col and i not in skip]
    promoted = True
    while promoted:
        promoted, still = False, []
        for vec in todo:
            while vec and min(vec) in pivots:
                p = pivots[min(vec)]
                f = vec[min(vec)] * p[min(vec)]
                for k, v in p.items():
                    vec[k] = vec.get(k, 0) - f * v
                    if not vec[k]:
                        del vec[k]
            if vec and vec[min(vec)] in (1, -1):
                pivots[min(vec)] = vec
                promoted = True
            elif vec:
                still.append(vec)
        todo = still
    return set(pivots)


def rank_rational(rows):
    """Rank over Q of a dense matrix given by its rows."""
    return rank_sparse_rational([dict(enumerate(row)) for row in rows])


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


def series_log(coefficients):
    """log of a series with constant term 1, via log(1-u) = -sum u^k/k."""
    if coefficients[0] != 1:
        raise ValidationError("log needs constant term 1")
    n = len(coefficients) - 1
    u = [Fraction(0)] + [-Fraction(c) for c in coefficients[1:]]  # series = 1 - u
    out = [Fraction(0)] * (n + 1)
    upow = [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        nxt = [Fraction(0)] * (n + 1)
        for i in range(k - 1, n + 1):
            a = upow[i]
            if a == 0:
                continue
            for j in range(1, n + 1 - i):
                if u[j] != 0:
                    nxt[i + j] += a * u[j]
        upow = nxt
        for m in range(k, n + 1):
            out[m] -= upow[m] / k
    return tuple(out)


def series_exp(coefficients):
    """exp of a series with zero constant term."""
    if coefficients[0] != 0:
        raise ValidationError("exp needs zero constant term")
    n = len(coefficients) - 1
    # E' = f' E gives a coefficient recursion with exact rationals.
    out = [Fraction(0)] * (n + 1)
    out[0] = Fraction(1)
    for d in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, d + 1):
            acc += j * coefficients[j] * out[d - j]
        out[d] = acc / d
    return tuple(out)


def log_moebius_ranks(denominator, N):
    """Lie ranks l_m = -sum_{d|m} mu(d) lambda_(m/d) / d for m <= N, from
    the `Fraction` logarithm sum_m lambda_m t^m of the denominator.

    Every l_m must come out a nonnegative integer, else IntegrityError.
    """
    lam = series_log(denominator.truncate(N).coefficients)
    dims = {}
    for m in range(1, N + 1):
        acc = Fraction(0)
        for d in divisors(m):
            acc -= Fraction(moebius_mu(d), d) * lam[m // d]
        val = _require_nonneg_int(acc, f"l_{m}")
        if val:
            dims[m] = val
    return DimensionTable(dims, N)


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


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


def smith_form_with_transforms(matrix):
    """Dense Smith normal form with transforms: the reference for `smith_invariants`.

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


@dataclass(frozen=True)
class RationalPlaneSplit:
    """Plane-split normal form of a quadratic relation, over the rationals.

    basis_change holds the congruence B with B g B^T = matrix, so entry
    (0,1) of the transformed pairing is 1 and rows/columns 0,1 vanish
    against letters >= 2.  The relation element then has coefficient
    matrix `matrix` when written in the letters that correspond to the
    rows of letter_map = B^(-T) (coefficients of a tensor transform
    contravariantly to the pairing), and reads x0 x1 = f_alg; the
    eliminated bracket satisfies [x0, x1] = lie_tail with lie_tail
    supported on letters >= 2.  Its alphabet is the letter order that the
    engine's integer search, `normalize_relation`, must return.
    """

    alphabet: Alphabet
    basis_change: tuple  # rows: the plane-split basis in old coordinates
    letter_map: tuple  # rows: new letters as combinations of old letters
    matrix: tuple  # transformed pairing = relation coefficient matrix
    f_alg: TensorElement
    lie_tail: TensorElement

    @property
    def forbidden_pair(self):
        return (0, 1)


def _pair(matrix, u, v):
    n = len(matrix)
    return sum(u[i] * matrix[i][j] * v[j] for i in range(n) for j in range(n))


def _is_skew(g):
    """Whether the form g is skew; refuses a form that is neither skew nor symmetric."""
    n = len(g)
    if all(g[i][j] == -g[j][i] for i in range(n) for j in range(n)):
        return True
    if all(g[i][j] == g[j][i] for i in range(n) for j in range(n)):
        return False
    raise ValidationError("form is neither symmetric nor skew-symmetric")


def _find_plane(g):
    """Indices / vectors spanning a nonsingular plane, plus dropped basis slots."""
    n = len(g)
    e = lambda i: [Fraction(1) if k == i else Fraction(0) for k in range(n)]
    if _is_skew(g):
        for i in range(n):
            for j in range(i + 1, n):
                if g[i][j] != 0:
                    v0 = [x / g[i][j] for x in e(i)]
                    return v0, e(j), (i, j)
        raise UnsupportedSpaceError("skew relation is zero; rank < 2")
    # symmetric: first try coordinate planes
    for i in range(n):
        for j in range(i + 1, n):
            if g[i][i] * g[j][j] - g[i][j] * g[i][j] != 0:
                return e(i), e(j), (i, j)
    # all coordinate planes singular; pick a diagonal entry and project
    for i in range(n):
        if g[i][i] != 0:
            v0 = e(i)
            projected = []
            for j in range(n):
                if j == i:
                    continue
                w = [a - Fraction(g[i][j], g[i][i]) * b for a, b in zip(e(j), v0)]
                projected.append((j, w))
            for j, w in projected:
                if _pair(g, w, w) != 0:
                    return v0, w, (i, j)
            for a in range(len(projected)):
                for b in range(a + 1, len(projected)):
                    j, w1 = projected[a]
                    _, w2 = projected[b]
                    w = [x + y for x, y in zip(w1, w2)]
                    if _pair(g, w, w) != 0:
                        return v0, w, (i, j)
            raise UnsupportedSpaceError("form has rank < 2")
    raise UnsupportedSpaceError("symmetric form with zero diagonal and singular planes has rank < 2")


def rational_plane_split(alphabet, form):
    """Nonsingular-plane-split normal form over the rationals.

    `form` holds the rows of a symmetric or skew form; which of the two it
    is is read off the form itself.  Finds a plane with pairing(v0, v1) = 1,
    orthogonalizes the remaining basis vectors against it, and reorders
    letters so the plane occupies positions 0 and 1.  The resulting rewrite
    sends x0 x1 to f_alg (which contains no x0 x1 term) and the eliminated
    bracket to a tail supported on letters >= 2.
    """
    n = len(form)
    if n != alphabet.size:
        raise ValidationError("alphabet and relation size differ")
    if n < 2 or rank_rational(form) < 2:
        raise UnsupportedSpaceError("normalization needs rank >= 2")
    g = [list(row) for row in form]
    v0, v1, (i0, j0) = _find_plane(g)
    beta = _pair(g, v0, v1)
    if beta == 0:
        v1 = [a + b for a, b in zip(v0, v1)]
        beta = _pair(g, v0, v1)
    v1 = [x / beta for x in v1]
    plane = [[_pair(g, v0, v0), _pair(g, v0, v1)], [_pair(g, v1, v0), _pair(g, v1, v1)]]
    rest = []
    kept = [k for k in range(n) if k not in (i0, j0)]
    e = lambda i: [Fraction(1) if k == i else Fraction(0) for k in range(n)]
    plane_inv = mat_inverse(plane)
    for k in kept:
        w = e(k)
        rhs = [_pair(g, v0, w), _pair(g, v1, w)]
        a = plane_inv[0][0] * rhs[0] + plane_inv[0][1] * rhs[1]
        b = plane_inv[1][0] * rhs[0] + plane_inv[1][1] * rhs[1]
        w = [x - a * p - b * q for x, p, q in zip(w, v0, v1)]
        rest.append((k, w))

    basis = [v0, v1] + [w for _, w in rest]
    home = [i0, j0] + [k for k, _ in rest]
    new_degrees = tuple(alphabet.degrees[h] for h in home)
    new_names = tuple(alphabet.names[h] for h in home)
    B = basis
    letter_map = mat_transpose(mat_inverse(B))
    for row, vec in enumerate(letter_map):
        for col, val in enumerate(vec):
            if val != 0 and alphabet.degrees[col] != new_degrees[row]:
                raise IntegrityError("basis change would mix letters of different degrees")
    new_alphabet = Alphabet(new_degrees, new_names)

    Bt = mat_transpose(B)
    G = mat_mul(mat_mul(B, g), Bt)
    if G[0][1] != 1:
        raise IntegrityError("plane normalization failed to make pairing(v0, v1) = 1")
    for k in range(2, n):
        if G[0][k] != 0 or G[1][k] != 0 or G[k][0] != 0 or G[k][1] != 0:
            raise IntegrityError("plane split left a residual pairing with letters >= 2")

    # relation sum G_ij x_i x_j = 0 solved for the (0,1) slot
    f_terms = {}
    for i in range(n):
        for j in range(n):
            if (i, j) == (0, 1) or G[i][j] == 0:
                continue
            f_terms[(i, j)] = -G[i][j]
    f_alg = TensorElement(new_alphabet, f_terms)
    tail_terms = {}
    for i in range(2, n):
        for j in range(i + 1, n):
            if G[i][j] != 0:
                tail_terms[(i, j)] = tail_terms.get((i, j), Fraction(0)) - G[i][j]
                tail_terms[(j, i)] = tail_terms.get((j, i), Fraction(0)) + G[i][j]
    lie_tail = TensorElement(new_alphabet, tail_terms)
    return RationalPlaneSplit(
        alphabet=new_alphabet,
        basis_change=tuple(tuple(row) for row in B),
        letter_map=tuple(tuple(row) for row in letter_map),
        matrix=tuple(tuple(row) for row in G),
        f_alg=f_alg,
        lie_tail=lie_tail,
    )


def is_zero(element):
    return not element.terms


def render(element):
    """A tensor element as text: signed terms in word order, e.g. "α₁α₂ - 2·α₂α₁"."""
    if not element.terms:
        return "0"
    parts = []
    for word in sorted(element.terms):
        c = element.terms[word]
        name = "".join(element.alphabet.names[i] for i in word)
        if c == 1:
            parts.append(f"+ {name}")
        elif c == -1:
            parts.append(f"- {name}")
        elif c > 0:
            parts.append(f"+ {c}·{name}")
        else:
            parts.append(f"- {-c}·{name}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def single_letter(alphabet, i):
    return TensorElement(alphabet, {(i,): Fraction(1)})


def entries(rows):
    """The nonzero entries (i, j, g_ij) of a form given by its rows, row by
    row: the form as the engine's relation path carries it."""
    return tuple((i, j, g) for i, row in enumerate(rows) for j, g in enumerate(row) if g)


def dense(form, size):
    """The rows of a form on `size` letters given by its nonzero entries,
    as the rational plane split reads it."""
    rows = [[0] * size for _ in range(size)]
    for i, j, g in form:
        rows[i][j] = g
    return tuple(map(tuple, rows))


def relation_tensor(form, alphabet):
    """The relation sum g_ij x_i x_j of a form, given by its rows, as a tensor element."""
    terms = {}
    for i, row in enumerate(form):
        for j, g in enumerate(row):
            if g != 0:
                terms[(i, j)] = g
    return TensorElement(alphabet, terms)


def lie_tensor(form, alphabet):
    """Upper-triangle bracket combination sum_{i<j} g_ij [x_i, x_j]."""
    out = TensorElement(alphabet, {})
    for i in range(len(form)):
        for j in range(i + 1, len(form)):
            g = form[i][j]
            if g != 0:
                out = out + single_letter(alphabet, i).commutator(single_letter(alphabet, j)).scale(g)
    return out


def as_list(table):
    """A `DimensionTable` as the list of its dimensions in degrees 1..max_degree."""
    return [table[d] for d in range(1, table.max_degree + 1)]


def smoothable(n, m):
    """Whether the Betti-1 manifold V_{m,1} admits a smooth structure."""
    if n == 4:
        return m * (m + 1) % 4 == 0
    if n == 8:
        return m * (m + 1) % 8 == 0
    raise ValidationError("smoothability criterion applies to n in {4, 8}")
