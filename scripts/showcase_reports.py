#!/usr/bin/env python3
"""Print decomposition reports for a small gallery of spaces."""

import json

from looptop.spaces import (
    BettiOne,
    ConnectedSum,
    Manifold,
    TwoCellComplex,
    decomposition_report,
)

GALLERY = (
    (Manifold(2, 3), 6),
    (Manifold(4, 2), 14),
    (ConnectedSum(((2, 3), (2, 3))), 6),
    (ConnectedSum(((3, 4), (3, 4)), (1, -1)), 8),
    (TwoCellComplex(2, ((0, 7), (7, 0))), 6),
    (BettiOne(4, 4), 11),
)


def main():
    for space, max_dim in GALLERY:
        print(json.dumps(decomposition_report(space, max_dim), ensure_ascii=False, indent=2))
        print()


if __name__ == "__main__":
    main()
