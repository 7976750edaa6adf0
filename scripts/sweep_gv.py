#!/usr/bin/env python3
"""Exhaustive shift-overlap scan.

For every prime in a range, every subgroup inside the size window, and every
nonzero shift, check the overlap bound and print the worst observed ratio
lhs / |G|^(2/3).  Exits 2 if any premise-met instance fails (it never should).
"""

import argparse
import sys
import time

from sumprod.bounds import verify_shift_overlap_bound
from sumprod.field import is_prime_u64, make_prime
from sumprod.subgroup import enumerate_subgroups


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lo", type=int, default=5)
    ap.add_argument("--hi", type=int, default=199)
    args = ap.parse_args()

    t0 = time.monotonic()
    worst = (0.0, None)
    met = skipped = violations = 0
    for p in filter(is_prime_u64, range(max(args.lo, 3), args.hi + 1)):
        prime = make_prime(p)
        for G in enumerate_subgroups(prime):
            for mu in range(1, p):
                v = verify_shift_overlap_bound(G, mu)
                if not v.premise_ok:
                    skipped += 1
                    continue
                met += 1
                if v.holds is False:
                    violations += 1
                    print(f"VIOLATION p={p} order={G.order} mu={mu} "
                          f"lhs={v.lhs} rhs={v.rhs}", file=sys.stderr)
                if v.ratio > worst[0]:
                    worst = (v.ratio, (p, G.order, mu, v.lhs))

    dt = time.monotonic() - t0
    print(f"checked {met} premise-met instances ({skipped} outside the window) "
          f"in {dt:.1f}s")
    if worst[1]:
        p, order, mu, lhs = worst[1]
        print(f"worst ratio lhs/|G|^(2/3) = {worst[0]:.4f} "
              f"at p={p}, |G|={order}, mu={mu} (lhs={lhs}; bound allows 4.0)")
    return 2 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
