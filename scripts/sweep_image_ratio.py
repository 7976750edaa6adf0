#!/usr/bin/env python3
"""Image-size growth sweep for x+y over one subgroup per order.

For each order d in [--lo, --hi], finds the smallest prime p = 1 (mod d)
with 9d^2 < p (so the order-d subgroup sits in the admitted window for
degree 1), measures |{a+b : a,b in G}|, and records the ratio against
|G|^(3/2).  Writes a CSV and prints the minimum ratio at the end.

The guaranteed constant down at 1/64000 is nowhere near what small
instances exhibit; the point of this sweep is to see the actual floor.
"""

import argparse
import csv
import sys
import time

from sumprod.bounds import verify_image_lower_bound
from sumprod.field import is_prime_u64, make_prime
from sumprod.poly import parse_bipoly
from sumprod.subgroup import subgroup_of_order


def admitted_prime(d: int):
    p = 9 * d * d + 1
    p += (1 - p) % d
    while not is_prime_u64(p):
        p += d
    return make_prime(p)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lo", type=int, default=101)
    ap.add_argument("--hi", type=int, default=400)
    ap.add_argument("--out", default="image_ratio.csv")
    args = ap.parse_args()
    if args.lo < 101:
        ap.error("--lo must be at least 101 (degree-1 window needs |G| > 100)")

    rows = []  # (order, p, image size, ratio, holds)
    t0 = time.monotonic()
    for d in range(args.lo, args.hi + 1):
        prime = admitted_prime(d)
        G = subgroup_of_order(prime, d)
        v = verify_image_lower_bound(parse_bipoly("x+y", prime), G)
        assert v.premise_ok, (d, prime.p)
        rows.append((d, prime.p, v.lhs, v.ratio, bool(v.holds)))
        if d % 50 == 0:
            print(f"  ... d={d} p={prime.p} ratio={v.ratio:.3f}", file=sys.stderr)

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["order", "p", "image_size", "ratio_vs_pow32", "holds"])
        for order, p, size, ratio, holds in rows:
            w.writerow([order, p, size, repr(ratio), holds])

    lo = min(rows, key=lambda r: r[3])
    hi = max(rows, key=lambda r: r[3])
    print(f"{len(rows)} orders in {time.monotonic() - t0:.1f}s -> {args.out}")
    print(f"min ratio {lo[3]:.4f} at d={lo[0]} (p={lo[1]})")
    print(f"max ratio {hi[3]:.4f} at d={hi[0]} (p={hi[1]})")
    return 0 if all(r[4] for r in rows) else 2


if __name__ == "__main__":
    sys.exit(main())
