"""Seeded inputs for the four benchmark workloads.

Every workload does the same amount of work for every seed: the seed picks
which primes carry the fixed subgroup orders, which levels, shifts and
cosets the sweep samples (through the config `seed`), and the order in which
the census visits its forms.  Instance counts and grid sizes never depend on
it, so run-to-run spread measures the program, not the draw.

This module is stdlib only and imports nothing from `sumprod`.
"""

from __future__ import annotations

import json
import os
import random

# Each sweep config becomes one `sumprod sweep` process per pass.
#   kind    -> the config's "inequality"
#   orders  -> fixed subgroup orders; one prime per (order, copy) is drawn
#   copies  -> how many primes carry each order
#   low     -> primes p = k*d + 1 are drawn from the ~200 values of k
#              just above max(low, 9*d*d + 1) / d
#   polys / params as in a sweep config
GRID_NUMPY = [
    dict(kind="t2", orders=[816, 864, 912, 960], copies=1, low=0,
         polys=["x+y", "x^2+y^2"]),
    dict(kind="vm", orders=[816, 864, 912, 960], copies=1, low=0,
         polys=["x+y", "x^2+y^2"], params={"alpha_count": 4, "alpha_sets": 2}),
    dict(kind="growth", orders=[600], copies=1, low=0),
]

LARGE = 2**31
GRID_LARGE_PRIME = [
    dict(kind="t2", orders=[180, 210, 240, 270, 300], copies=2, low=LARGE,
         polys=["x+y", "x^2+y^2"]),
    dict(kind="vm", orders=[180, 210, 240, 270, 300], copies=1, low=LARGE,
         polys=["x+y", "x^2+y^2"], params={"alpha_count": 2, "alpha_sets": 1}),
    dict(kind="growth", orders=[180, 240, 300], copies=1, low=LARGE),
]

# gv over every order and every shift, thmap over every order; fixed primes.
MANY_RECORDS = [
    dict(kind="gv", prime_range=(3, 400)),
    dict(kind="thmap", prime_range=(440, 900)),
]
MANY_RECORDS_JOBS = 2

# (p, total degree) pairs of the homogeneous-form census
CENSUS = [(5, 1), (5, 2), (5, 3), (7, 1), (7, 2)]
CENSUS_D_MAX = 3

WORKLOADS = ("grid-numpy", "grid-large-prime", "oracle-census", "many-records")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (own copy, not sumprod's)."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _draw_primes(rng: random.Random, orders: list[int], copies: int, low: int,
                 taken: set[int]) -> list[int]:
    """`copies` primes per order d, each with d | p - 1 and no other listed
    order dividing p - 1, so every prime yields exactly one order.  Primes in
    `taken` are skipped and the new ones added, so no two configs of a
    workload share a (prime, order) pair."""
    picked: list[int] = []
    for d in orders:
        start = max(low, 9 * d * d + 1)
        k = start // d + 1 + rng.randrange(200)
        got = 0
        while got < copies:
            p = k * d + 1
            k += 1
            if p in taken or not is_prime(p):
                continue
            if any((p - 1) % e == 0 for e in orders if e != d):
                continue
            picked.append(p)
            taken.add(p)
            got += 1
    return sorted(picked)


def sweep_configs(workload: str, seed: int) -> list[dict]:
    """The sweep configs of a grid or many-records workload, in pass order."""
    rng = random.Random(f"perfbench|{workload}|{seed}")
    if workload == "many-records":
        out = []
        for spec in MANY_RECORDS:
            lo, hi = spec["prime_range"]
            out.append({
                "inequality": spec["kind"],
                "primes": {"start": lo, "stop": hi},
                "orders": "all",
                "seed": seed,
            })
        return out
    specs = {"grid-numpy": GRID_NUMPY, "grid-large-prime": GRID_LARGE_PRIME}[workload]
    out = []
    taken: set[int] = set()
    for spec in specs:
        cfg = {
            "inequality": spec["kind"],
            "primes": _draw_primes(rng, spec["orders"], spec["copies"], spec["low"], taken),
            "orders": list(spec["orders"]),
            "seed": seed,
        }
        if "polys" in spec:
            cfg["polys"] = list(spec["polys"])
        if "params" in spec:
            cfg["params"] = dict(spec["params"])
        out.append(cfg)
    return out


def census_spec(seed: int) -> dict:
    return {"forms": [list(pd) for pd in CENSUS], "d_max": CENSUS_D_MAX, "seed": seed}


def jobs_for(workload: str) -> int:
    return MANY_RECORDS_JOBS if workload == "many-records" else 1


def write_inputs(workload: str, seed: int, workdir: str) -> list[str]:
    """Write the workload's input files into workdir and return their paths."""
    if workload == "oracle-census":
        docs = [("census.json", census_spec(seed))]
    else:
        docs = [(f"{i}-{c['inequality']}.json", c)
                for i, c in enumerate(sweep_configs(workload, seed))]
    paths = []
    for name, doc in docs:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        paths.append(path)
    return paths
