"""Lyndon words, standard factorization, brackets, and the filtered Lie basis.

A Lyndon word is strictly smaller than all of its proper cyclic
rotations.  Bracketing along the standard factorization turns the Lyndon
words into a basis of the free Lie algebra; discarding the words that
contain the eliminated factor x0 x1 leaves a basis of the one-relator
quotient.  Every basis is checked against the space's own series counts,
and every bracket against its word.
"""

import math
from collections import defaultdict
from fractions import Fraction

from .algebra import TensorElement
from .errors import IntegrityError, ValidationError
from .series import divisors, moebius_mu
from .series import pbw_match_ungraded  # kept only as a benchmark span site


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


def standard_factorization(word):
    """Split l = l1 l2 at the start of l2, the least proper suffix.

    A word is Lyndon exactly when it is smaller than every proper suffix,
    so the one scan also refuses the rest.  For a Lyndon word the least
    proper suffix is its longest proper Lyndon suffix, and l1 is then
    Lyndon too (Lothaire, *Combinatorics on Words*, Prop. 5.1.3).
    """
    if len(word) < 2:
        raise ValidationError("standard factorization needs length >= 2")
    i = min(range(1, len(word)), key=lambda i: word[i:])
    if word[i:] <= word:
        raise ValidationError(f"{word} is not a Lyndon word")
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


def standard_lyndon_words(alphabet, forbidden, max_degree):
    """Lyndon words of degree <= D avoiding the forbidden factor (a, b), from
    one Duval walk: {degree: lex-sorted words}, in ascending degree."""
    if max_degree < 1:
        raise ValidationError("max_degree must be >= 1")
    out = defaultdict(list)
    for word in duval_generate(alphabet.size, max_degree // min(alphabet.degrees)):
        d = alphabet.word_degree(word)
        if d <= max_degree and forbidden not in zip(word, word[1:]):
            out[d].append(word)
    return dict(sorted(out.items()))


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


def _estimated_words_log10(alphabet, max_degree):
    """log10 of r + r^2 + ... + r^L, the words `lie_basis` may walk over:
    every word in the r letters of the free alphabet up to the length
    L = max_degree // (its smallest degree); -inf when L = 0.

    The sum is r (r^L - 1) / (r - 1), or L for one letter.  It is taken in
    logarithms, so no power of r is formed at any max_degree.
    """
    r, length = alphabet.size, max_degree // min(alphabet.degrees)
    if length == 0:
        return -math.inf
    if r == 1:
        return math.log10(length)
    ln_r = math.log(r)
    ln_words = math.log(r / (r - 1)) + length * ln_r + math.log(-math.expm1(-length * ln_r))
    return ln_words / math.log(10)


def _scientific(log10_value):
    """10^log10_value, at least 1, as format(_, ".1e") writes it, read
    from the logarithm so that it holds past the float range (a value
    halfway between two figures may round either way)."""
    exponent = math.floor(log10_value)
    mantissa = round(10 ** (log10_value - exponent), 1)
    if mantissa >= 10:
        mantissa, exponent = mantissa / 10, exponent + 1
    return f"{mantissa:.1f}e+{exponent:02d}"


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
    the squarefree divisors of the degree, found once per call.  A length w
    with no closed walk at (w, degree) is skipped: a closed walk at (w/e,
    degree/e) repeated e times is one there, so each of its terms is zero."""
    terms = [(e, mu) for e in divisors(degree) if (mu := moebius_mu(e))]
    total = 0
    min_deg = min(alphabet.degrees)
    for w in range(1, degree // min_deg + 1):
        if not walks.get((w, degree)):
            continue
        acc = 0
        for e, mu in terms:
            if w % e == 0:
                acc += mu * walks.get((w // e, degree // e), 0)
        if acc % w:
            raise IntegrityError("necklace count is not divisible by the word length")
        total += acc // w
    return total


# Largest walk over the free alphabet's Lyndon words (by _estimated_words_log10)
# that materializing a Lie basis may take.
_WALK_LIMIT = 2_000_000


def basis_walk_fits(alphabet, max_degree):
    """Whether `lie_basis` may materialize a basis to max_degree: its walk
    over the free alphabet's Lyndon words stays within _WALK_LIMIT."""
    return _estimated_words_log10(alphabet, max_degree) <= math.log10(_WALK_LIMIT)


def refuse_long_walk(alphabet, max_degree):
    """Raise ValidationError, naming the walk, when the window fails
    `basis_walk_fits`.  It reads no series, so a caller can refuse an
    absurd window before it takes any counts."""
    if not basis_walk_fits(alphabet, max_degree):
        walk = _scientific(_estimated_words_log10(alphabet, max_degree))
        raise ValidationError(
            f"materializing the Lie basis to degree {max_degree} needs a walk over "
            f"roughly {walk} words; lower --max-degree, or use verify counts "
            f"for the per-degree counts"
        )


def lie_basis(nr, max_degree, counts):
    """Standard Lyndon words of the one-relator quotient, {degree: words}.

    Words containing the eliminated factor consecutively are dropped.  The
    survivors must number `counts[d]` in each degree d, the Lie ranks of
    the space's series, and each one's standard bracket must have the word
    itself as its leading term with coefficient 1 (Reutenauer, *Free Lie
    Algebras*, Thm 5.1); either failure raises IntegrityError.  Generation
    walks every Lyndon word of the free alphabet, so windows that fail
    `basis_walk_fits` are refused even when the surviving basis is small;
    counts remain available at any size through standard_lyndon_counts.
    """
    refuse_long_walk(nr.alphabet, max_degree)
    table = standard_lyndon_words(nr.alphabet, nr.forbidden_pair, max_degree)
    for d in range(1, max_degree + 1):
        have = len(table.get(d, ()))
        want = counts.get(d, 0)
        if have != want:
            raise IntegrityError(
                f"Lyndon basis count {have} != series count {want} at degree {d}: "
                "the standard words disagree with the Moebius inversion of the series"
            )
    memo = {}
    for words in table.values():
        for word in words:
            bracket = bracket_expand(word, nr.alphabet, memo)
            if bracket.leading_word() != word or bracket.terms[word] != 1:
                raise IntegrityError(f"bracket of {word} lost its triangular leading term")
    return table
