"""Counting the words that avoid one forbidden two-letter factor.

With the leading word x0 x1 of a normalized quadratic relation as the
factor, these are the irreducible words of the rewrite rule, and their
count per degree gives the Hilbert series by enumeration.
"""

from collections import Counter


def irreducible_counts(alphabet, forbidden, up_to_degree):
    """Count of irreducible words per degree, by transfer recursion.

    Every letter may follow every word except x_b after x_a, so the words
    of degree d ending in x_j number all words of degree d - |x_j|, the
    empty word included, less those ending in x_a when j = b.  Letters of
    one degree count alike, so only the words ending in x_a are kept apart:
    O(D) integers, whatever the number of letters.  Agrees with the DFS
    enumeration (tested).
    """
    a, b = forbidden
    ga, gb = alphabet.degrees[a], alphabet.degrees[b]
    letters = Counter(alphabet.degrees).items()
    totals, ending_in_a = {0: 1}, {}  # words of degree d, and those ending in x_a
    for d in range(1, up_to_degree + 1):
        totals[d] = sum(c * totals.get(d - g, 0) for g, c in letters) - ending_in_a.get(d - gb, 0)
        ending_in_a[d] = totals.get(d - ga, 0) - (ending_in_a.get(d - ga, 0) if a == b else 0)
    return {d: totals[d] for d in range(1, up_to_degree + 1)}
