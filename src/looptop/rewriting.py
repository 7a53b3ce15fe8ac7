"""Counting the words that avoid one forbidden two-letter factor.

With the leading word x0 x1 of a normalized quadratic relation as the
factor, these are the irreducible words of the rewrite rule, and their
count per degree gives the Hilbert series by enumeration.
"""

from .series import PowerSeries


def irreducible_counts(alphabet, forbidden, up_to_degree):
    """Count of irreducible words per degree, by transfer recursion.

    ways[d][j] counts words of degree d ending in letter j; appending a
    letter is allowed unless it completes the forbidden factor.  Agrees
    with the DFS enumeration (tested) but runs in O(D r^2).
    """
    r = alphabet.size
    ways = [[0] * r for _ in range(up_to_degree + 1)]
    for j in range(r):
        d = alphabet.degrees[j]
        if d <= up_to_degree:
            ways[d][j] += 1
    for d in range(1, up_to_degree + 1):
        for j in range(r):
            dj = alphabet.degrees[j]
            if d - dj < 1:
                continue
            acc = 0
            prev = ways[d - dj]
            for i in range(r):
                if i == forbidden[0] and j == forbidden[1]:
                    continue
                acc += prev[i]
            ways[d][j] += acc
    return {d: sum(ways[d]) for d in range(1, up_to_degree + 1)}


def hilbert_from_enumeration(alphabet, forbidden, up_to_degree):
    """Hilbert series whose degree-d coefficient counts irreducible words."""
    counts = irreducible_counts(alphabet, forbidden, up_to_degree)
    return PowerSeries((1,) + tuple(counts[d] for d in range(1, up_to_degree + 1)))
