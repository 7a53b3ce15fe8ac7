#!/usr/bin/env python3
"""Run the master three-pipeline cross-check over a (n, r) grid.

For each manifold family the Lie-algebra dimensions l_d are computed by
the three pipelines: series counting (the closed form, a Moebius sum over
the Lucas numbers of x^2 - r x + 1 that reads no series, and Moebius
inversion of the family's own loop-homology series), incremental PBW
matching of that series, and standard-Lyndon-word counting.  Any
disagreement would be a bug; the table makes the agreement visible.  A
closed manifold with n odd has even r, so for odd n and odd r the series
is read off a two-cell complex with a degenerate skew form, which has the
same series.
"""

import argparse

from looptop.algebra import Alphabet
from looptop.lyndon import standard_lyndon_counts
from looptop.series import closed_form_lie_rank, lie_ranks_from_denominator, pbw_match_ungraded
from looptop.spaces import Manifold, TwoCellComplex, default_manifold_form


def space_of(n, r):
    """A space whose loop homology is that of the (n, r) manifold family."""
    if n % 2 and r % 2:
        form = [[0] * r for _ in range(r)]  # the last row and column stay zero
        for i, j, g in default_manifold_form(n, r - 1):
            form[i][j] = g
        return TwoCellComplex(n, form)
    return Manifold(n, r)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--max-r", type=int, default=6)
    parser.add_argument("--max-degree", type=int, default=12)
    args = parser.parse_args()

    D = args.max_degree
    failures = 0
    for n in range(2, args.max_n + 1):
        for r in range(2, args.max_r + 1):
            den = space_of(n, r).denominator(D)
            inversion = lie_ranks_from_denominator(den, D)
            matched = pbw_match_ungraded(den.inverse(), D)
            lyndon = standard_lyndon_counts(Alphabet.uniform(r, n - 1), (0, 1), D)
            row = []
            for d in range(1, D + 1):
                values = {
                    closed_form_lie_rank(n, r, d),
                    inversion[d],
                    matched[d],
                    lyndon.get(d, 0),
                }
                if len(values) != 1:
                    failures += 1
                    row.append("XX")
                else:
                    row.append(str(values.pop()))
            print(f"n={n} r={r}: " + " ".join(row))
    if failures:
        print(f"{failures} disagreements found")
        raise SystemExit(1)
    print("all pipelines agree")


if __name__ == "__main__":
    main()
