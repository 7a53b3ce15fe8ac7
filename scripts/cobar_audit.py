#!/usr/bin/env python3
"""Audit loop-space homology against the closed-form prediction.

Builds the integral cobar complex of each requested space, computes exact
Smith-form homology slice by slice, and prints the rank/torsion audit.  The
header line of each space gives the verdict, the bigraded audit and the
primes at which torsion was allowed, the time taken and the peak resident
memory of the process so far (ru_maxrss: it never goes down, so each line
shows the peak over its own space and every space before it).
Useful for timing and sizing the oracle at different cutoffs.
"""

import argparse
import resource
import time

from looptop.cli import parse_space
from looptop.cobar import verify_loop_homology


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "spaces",
        nargs="*",
        default=["manifold:2:2", "manifold:2:3", "csum:2x3,2x3", "cw:2:0,7;7,0"],
        help="space grammar strings, e.g. manifold:2:3",
    )
    parser.add_argument("--max-degree", type=int, default=10)
    parser.add_argument("--max-cells", type=int, default=600_000)
    args = parser.parse_args()

    bad = 0
    for text in args.spaces:
        space = parse_space(text)
        start = time.perf_counter()
        report = verify_loop_homology(space, args.max_degree, max_cells=args.max_cells)
        elapsed = time.perf_counter() - start
        status = "ok" if report.ok else "FAIL"
        bigraded = "ok" if report.bigraded_ok else "FAIL"
        primes = ",".join(str(p) for p in report.torsion_primes) or "none"
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        print(
            f"{report.space_label:28s} D={args.max_degree:<3d} {status}  bigraded={bigraded}  "
            f"torsion-primes={primes}  ({elapsed:.2f}s, peak RSS {peak_mb:.1f} MB)"
        )
        for row in report.rows:
            torsion = ",".join(str(t) for t in row.torsion) or "-"
            mark = "" if row.rank_ok and row.torsion_ok else "   <-- mismatch"
            print(
                f"   d={row.degree:<3d} chain={row.chain_dim:<8d} rank={row.rank:<8d} "
                f"expected={row.expected_rank:<8d} torsion={torsion}{mark}"
            )
        bad += 0 if report.ok else 1
    raise SystemExit(1 if bad else 0)


if __name__ == "__main__":
    main()
