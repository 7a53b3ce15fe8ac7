"""Counting the words that avoid one forbidden two-letter factor.

With the leading word x0 x1 of a normalized quadratic relation as the
factor, these are the irreducible words of the rewrite rule, and their
count per degree gives the Hilbert series by enumeration.
"""


def irreducible_counts(alphabet, forbidden, up_to_degree):
    """Count of irreducible words per degree, by transfer recursion.

    ways[d][j] counts words of degree d ending in letter j.  Every letter
    may follow every word except x_b after x_a, so ways[d][j] is the count
    of all words of degree d - |x_j|, the empty word included, less those
    ending in x_a when j = b.  Agrees with the DFS enumeration (tested) but
    runs in O(D r).
    """
    a, b = forbidden
    ways = [[0] * alphabet.size for _ in range(up_to_degree + 1)]
    totals = [1] + [0] * up_to_degree
    for d in range(1, up_to_degree + 1):
        for j, g in enumerate(alphabet.degrees):
            if g <= d:
                ways[d][j] = totals[d - g] - (ways[d - g][a] if j == b else 0)
        totals[d] = sum(ways[d])
    return {d: totals[d] for d in range(1, up_to_degree + 1)}

