"""Lyndon words, standard factorization, brackets, and the filtered Lie basis.

A Lyndon word is strictly smaller than all of its proper cyclic
rotations.  Bracketing along the standard factorization turns the Lyndon
words into a basis of the free Lie algebra; discarding the words that
contain the eliminated factor x0 x1 leaves a basis of the one-relator
quotient.  Counts are cross-checked against the power-series pipelines on
every call that builds a basis.
"""

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .algebra import TensorElement
from .errors import IntegrityError, ValidationError
from .series import divisors, moebius_mu, pbw_match_ungraded
from .rewriting import hilbert_from_enumeration


def is_lyndon(word):
    """True when the word is strictly smaller than its proper rotations."""
    n = len(word)
    if n == 0:
        return False
    for k in range(1, n):
        if word[k:] + word[:k] <= word:
            return False
    return True


def duval_generate(r, max_length):
    """All Lyndon words over 0..r-1 of length <= max_length, in lex order."""
    if max_length < 1:
        return
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        yield tuple(w)
        while len(w) < max_length:
            w.append(w[-m])
        while w and w[-1] == r - 1:
            w.pop()


def generate_lyndon(alphabet, max_degree):
    """Lyndon words of total degree <= max_degree, grouped and lex-sorted."""
    if max_degree < 1:
        raise ValidationError("max_degree must be >= 1")
    out = {d: [] for d in range(1, max_degree + 1)}
    min_deg = min(alphabet.degrees)
    for word in duval_generate(alphabet.size, max_degree // min_deg):
        d = alphabet.word_degree(word)
        if d <= max_degree:
            out[d].append(word)
    return out


def standard_factorization(word):
    """Split l = l1 l2 with l2 the longest proper Lyndon suffix.

    The last letter is a Lyndon suffix, so one is always found, and the
    left factor l1 is then Lyndon too (Lothaire, *Combinatorics on Words*,
    Prop. 5.1.3).
    """
    if len(word) < 2:
        raise ValidationError("standard factorization needs length >= 2")
    if not is_lyndon(word):
        raise ValidationError(f"{word} is not a Lyndon word")
    i = next(i for i in range(1, len(word)) if is_lyndon(word[i:]))
    return word[:i], word[i:]


def bracket_expand(word, alphabet, _memo=None):
    """Expansion of the standard bracketing into the tensor algebra.

    b(letter) = letter and b(l1 l2) = [b(l1), b(l2)] with the ungraded
    commutator xy - yx.
    """
    if _memo is None:
        _memo = {}
    if word in _memo:
        return _memo[word]
    if len(word) == 1:
        result = TensorElement(alphabet, {word: Fraction(1)})
    else:
        l1, l2 = standard_factorization(word)
        result = bracket_expand(l1, alphabet, _memo).commutator(bracket_expand(l2, alphabet, _memo))
    _memo[word] = result
    return result


def bracket_string(word, alphabet):
    """Nested Whitehead-product notation for the standard bracketing."""
    if len(word) == 1:
        return alphabet.names[word[0]]
    l1, l2 = standard_factorization(word)
    return f"[{bracket_string(l1, alphabet)},{bracket_string(l2, alphabet)}]"


@dataclass(frozen=True)
class LieBasisElement:
    word: tuple
    degree: int
    bracket: TensorElement

    def __post_init__(self):
        lead = self.bracket.leading_word()
        if lead != self.word or self.bracket.terms[lead] != 1:
            raise IntegrityError(f"bracket of {self.word} lost its triangular leading term")


def _contains_factor(word, pair):
    a, b = pair
    return any(word[i] == a and word[i + 1] == b for i in range(len(word) - 1))


def standard_lyndon_words(alphabet, forbidden, max_degree):
    """Lyndon words of degree <= D avoiding the forbidden factor."""
    out = {}
    for d, words in generate_lyndon(alphabet, max_degree).items():
        kept = [w for w in words if not _contains_factor(w, forbidden)]
        if kept:
            out[d] = kept
    return out


def standard_lyndon_counts(alphabet, forbidden, max_degree):
    """Per-degree counts of standard Lyndon words, by necklace counting.

    A Lyndon word never wraps the factor x0 x1 around its end (it starts
    with its minimal letter, which rules out last = x0, first = x1), so
    standard Lyndon words correspond exactly to aperiodic necklaces whose
    cyclic reading avoids the factor.  The closed walks avoiding the step
    x0 -> x1 are the linear words that avoid the factor, counted length by
    length and degree by degree, less those that start with x1 and end in
    x0; no letter pair is tested, so the cost is linear in the number of
    letters.  Moebius inversion over periods divides out the rotations.  The
    test suite checks these counts against generated standard Lyndon words.
    """
    walks = _closed_walk_counts(alphabet, forbidden, max_degree)
    counts = {}
    for d in range(1, max_degree + 1):
        c = _necklace_count(alphabet, walks, d)
        if c:
            counts[d] = c
    return counts


def _estimated_words(alphabet, max_degree):
    r = alphabet.size
    min_deg = min(alphabet.degrees)
    max_len = max_degree // min_deg
    total = 0
    for w in range(1, max_len + 1):
        total += r**w
        if total > 10**9:
            break
    return total


def _closed_walk_counts(alphabet, forbidden, max_degree):
    """A[(w, d)] = closed walks of length w and degree d avoiding the step x_a -> x_b.

    A walk v_0 .. v_{w-1} counts when no step, the wrap v_{w-1} -> v_0
    included, is the forbidden one; summed over the root v_0 this is the
    degree-refined trace of the transfer matrix power.  The linear words
    avoiding the factor that end in x_j are all those one letter shorter,
    less the ones ending in x_a when j = b; the closed walks are the linear
    words less those that start with x_b and end in x_a.
    """
    a, b = forbidden
    degs = alphabet.degrees

    def extend(rows):
        out = defaultdict(lambda: [0] * len(degs))
        for d, row in rows.items():
            total = sum(row)
            for j, g in enumerate(degs):
                if d + g <= max_degree:
                    out[d + g][j] = total - (row[a] if j == b else 0)
        return out

    # degree -> count per last letter of the linear words of the current
    # length: all of them, and those that start with x_b
    words = {g: [int(h == g) for h in degs] for g in set(degs) if g <= max_degree}
    from_b = {degs[b]: [int(j == b) for j in range(len(degs))]}
    out = {}
    for w in range(1, max_degree // min(degs) + 1):
        for d, row in words.items():
            out[(w, d)] = sum(row) - (from_b[d][a] if d in from_b else 0)
        words, from_b = extend(words), extend(from_b)
    return out


def _necklace_count(alphabet, walks, degree):
    """Aperiodic necklaces of the given degree, from a closed-walk table that
    reaches at least that degree (see _closed_walk_counts).  The Moebius
    sum over the common divisors e of the length and the degree runs over
    the squarefree divisors of the degree, found once per call."""
    terms = [(e, mu) for e in divisors(degree) if (mu := moebius_mu(e))]
    total = 0
    min_deg = min(alphabet.degrees)
    for w in range(1, degree // min_deg + 1):
        acc = 0
        for e, mu in terms:
            if w % e == 0:
                acc += mu * walks.get((w // e, degree // e), 0)
        if acc % w:
            raise IntegrityError("necklace count is not divisible by the word length")
        total += acc // w
    return total


# Largest walk over the free alphabet's Lyndon words (by _estimated_words)
# that materializing a Lie basis may take.
_WALK_LIMIT = 2_000_000


def lie_basis(nr, max_degree, series_counts=None):
    """Standard-Lyndon Lie basis of the one-relator quotient, by degree.

    Words containing the eliminated factor consecutively are dropped; the
    survivors are bracketed.  The per-degree counts must equal the
    PBW-matched dimensions of the irreducible-word Hilbert series (or an
    explicitly supplied table); any mismatch flags convention drift and
    raises IntegrityError.  Generation walks every Lyndon word of the free
    alphabet, so a guard refuses windows whose walk would exceed
    _WALK_LIMIT even when the surviving basis is small; counts remain
    available at any size through standard_lyndon_counts.
    """
    walk = _estimated_words(nr.alphabet, max_degree)
    if walk > _WALK_LIMIT:
        raise ValidationError(
            f"materializing the Lie basis to degree {max_degree} needs a walk over "
            f"roughly {walk:.1e} words; lower --max-degree, or use verify counts "
            f"for the per-degree counts"
        )
    table = standard_lyndon_words(nr.alphabet, nr.forbidden_pair, max_degree)
    if series_counts is None:
        H = hilbert_from_enumeration(nr.alphabet, nr.forbidden_pair, max_degree)
        series_counts = pbw_match_ungraded(H, max_degree).dims
    for d in range(1, max_degree + 1):
        have = len(table.get(d, ()))
        want = series_counts.get(d, 0)
        if have != want:
            raise IntegrityError(
                f"Lyndon basis count {have} != series count {want} at degree {d}: "
                "basis convention drifted from the PBW pipelines"
            )
    memo = {}
    out = {}
    for d, words in table.items():
        out[d] = [LieBasisElement(w, d, bracket_expand(w, nr.alphabet, memo)) for w in words]
    return out
