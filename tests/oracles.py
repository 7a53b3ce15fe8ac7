"""Verification oracles used only by the tests.

The rewriting reducer (normal forms modulo one quadratic relation, with
strongly connected clusters of reducible words solved exactly), explicit
irreducible-word enumeration, matrix evaluation of tensor elements, the
Betti number of a finite cover and the closed-form rational ranks.  The
engine never calls them; the tests use them to check its answers by an
independent route.

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
from fractions import Fraction

from looptop._linalg import mat_mul
from looptop.algebra import TensorElement
from looptop.errors import IntegrityError, ValidationError
from looptop.series import (
    DimensionTable,
    closed_form_rational_rank,
    manifold_denominator,
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
        if not replacement.is_zero() and replacement.degree != expected:
            raise ValidationError("replacement degree does not match the forbidden factor")
        self.alphabet = alphabet
        self.forbidden = tuple(forbidden)
        self.replacement = replacement

    @classmethod
    def from_normalized(cls, nr):
        return cls(nr.alphabet, nr.f_alg, nr.forbidden_pair)


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
    if len(forbidden) != 2 or forbidden[0] == forbidden[1]:
        raise ValidationError("forbidden factor must be a 2-letter word with distinct letters")
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
