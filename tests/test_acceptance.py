"""End-to-end acceptance checks.

Each test prints one `[A#] name: PASS/FAIL` line (visible with `pytest -s`)
and enforces the stated runtime ceiling where one applies.  These are the
battery the package has to clear before a release is considered usable;
everything here recomputes its expected values through an independent route
(brute force, exhaustive enumeration, or a hand-checkable oracle).
"""

import itertools
import json
import random
import time

from sumprod.bounds import (
    extract_permissible,
    fiber_bound_constants,
    image_bound_constants,
    verify_fiber_bound,
    verify_image_lower_bound,
    verify_shift_overlap_bound,
)
from sumprod.field import make_prime
from sumprod.poly import (
    BiPoly,
    abs_irreducible_shift,
    factor_oracle,
    is_good,
    is_permissible,
    is_required,
    parse_bipoly,
)
from sumprod.setops import (
    count_level_pairs,
    count_zero_pairs,
    shift_intersection,
    sumset,
    value_set,
)
from sumprod.subgroup import coset_of, coset_partition, enumerate_subgroups, subgroup_of_order
from sumprod.sweep import SweepConfig, render_report, run_sweep

REL = 1e-12


def _report(tag, name, ok, detail=""):
    line = f"[{tag}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def primes_in(lo, hi):
    out = []
    for p in range(lo, hi + 1):
        if p >= 2 and all(p % q for q in range(2, int(p**0.5) + 1)):
            out.append(p)
    return out


def test_a1_shift_overlap_exhaustive():
    t0 = time.monotonic()
    checked = 0
    for p in primes_in(5, 199):
        prime = make_prime(p)
        for G in enumerate_subgroups(prime):
            for mu in range(1, p):
                v = verify_shift_overlap_bound(G, mu)
                if not v.premise_ok:
                    continue
                checked += 1
                assert v.lhs <= v.rhs * (1 + REL), (p, G.order, mu)
                assert v.holds is True
    elapsed = time.monotonic() - t0
    _report("A1", "shift-overlap exhaustive 5..199", elapsed < 60 and checked > 0,
            f"{checked} premise-met instances, {elapsed:.1f}s")


def _all_forms(p, deg):
    """Every nonzero coefficient vector on the degree-`deg` monomial row."""
    monos = [(deg - j, j) for j in range(deg + 1)]
    for vec in itertools.product(range(p), repeat=len(monos)):
        if any(vec):
            yield BiPoly(p, {m: c for m, c in zip(monos, vec) if c})


def test_a2_criterion_oracle_equivalence():
    t0 = time.monotonic()
    total = 0
    mismatches = []
    for p in (3, 5):
        prime = make_prime(p)
        for deg in (2, 3):
            for h in _all_forms(prime.p, deg):
                total += 1
                crit = abs_irreducible_shift(h, 1)
                orac = not factor_oracle(h.shift_const(1), 3)
                if crit != orac:
                    mismatches.append((p, h.to_text()))
    elapsed = time.monotonic() - t0
    _report("A2", "irreducibility criterion == search oracle",
            not mismatches and total == 854 and elapsed < 300,
            f"{total} forms, {len(mismatches)} mismatches, {elapsed:.1f}s")


def test_a3_good_forms_stay_irreducible_at_every_level():
    t0 = time.monotonic()
    checked = 0
    bad = []
    for p in (5, 7):
        prime = make_prime(p)
        for deg in (1, 2, 3):
            for h in _all_forms(prime.p, deg):
                if not is_good(h).ok:
                    continue
                for alpha in range(1, p):
                    checked += 1
                    if factor_oracle(h.shift_const(alpha), 3):
                        bad.append((p, h.to_text(), alpha))
    elapsed = time.monotonic() - t0
    _report("A3", "good forms irreducible at every nonzero level",
            not bad and checked > 0,
            f"{checked} (form, level) pairs, {len(bad)} exceptions, {elapsed:.1f}s")


def test_a4_zero_pair_bound():
    t0 = time.monotonic()
    texts = ["x+y", "x^2+y^2", "x^2+{m1}*y^2", "x^3+y^3"]
    checked = 0
    for p in primes_in(3, 199):
        prime = make_prime(p)
        family = []
        for text in texts:
            P = parse_bipoly(text.format(m1=p - 1), prime)
            if is_good(P).ok:
                family.append(P)
        for G in enumerate_subgroups(prime):
            for P in family:
                n = P.total_degree
                assert count_zero_pairs(P, G) <= n * G.order, (p, G.order, P.to_text())
                checked += 1
    elapsed = time.monotonic() - t0
    _report("A4", "zero pairs within degree * order", elapsed < 60 and checked > 0,
            f"{checked} (P, G) pairs, {elapsed:.1f}s")


def _admitted_prime_for(d):
    p = 9 * d * d + 1
    p += (1 - p) % d
    while True:
        try:
            return make_prime(p)
        except Exception:
            p += d


def test_a5_image_growth_sweep():
    t0 = time.monotonic()
    worst = None
    count = 0
    for d in range(101, 1001):
        prime = _admitted_prime_for(d)
        G = subgroup_of_order(prime, d)
        v = verify_image_lower_bound(parse_bipoly("x+y", prime), G)
        assert v.premise_ok, (d, prime.p)
        assert v.holds is True, (d, prime.p)
        count += 1
        if worst is None or v.ratio < worst[0]:
            worst = (v.ratio, d, prime.p)
    elapsed = time.monotonic() - t0
    _report("A5", "image lower bound sweep |G| in [101,1000]",
            count == 900 and elapsed < 600,
            f"min ratio |P(G,G)|/|G|^1.5 = {worst[0]:.4f} at |G|={worst[1]}, p={worst[2]}; "
            f"{elapsed:.1f}s")


def test_a6_extraction_guarantee():
    t0 = time.monotonic()
    rng = random.Random(20260201)
    trials = 0
    failures = []
    while trials < 200:
        p = rng.choice([13, 31, 61, 101])
        prime = make_prime(p)
        k, l = rng.randint(1, 3), rng.randint(1, 3)
        coeffs = {}
        for i in range(k + 1):
            for j in range(l + 1):
                if rng.random() < 0.5:
                    coeffs[(i, j)] = rng.randint(1, p - 1)
        coeffs[(k, rng.randint(0, l))] = rng.randint(1, p - 1)
        coeffs[(rng.randint(0, k), l)] = rng.randint(1, p - 1)
        P = BiPoly(p, coeffs)
        if P.deg_x < 1 or P.deg_y < 1 or not is_required(P):
            continue
        h = rng.randint(2, min(40, p - 1))
        ys = rng.sample(range(p), h)
        trials += 1
        kept, cert = extract_permissible(P, ys)
        want = max(0, (h - 2 * cert.l) // (cert.k * cert.l))
        if len(kept) < want:
            failures.append((p, P.to_text(), ys, "size"))
            continue
        fs = [P.subst_y(ys[i]) for i in kept]
        if fs and not is_permissible(fs).ok:
            failures.append((p, P.to_text(), ys, "permissibility"))
    elapsed = time.monotonic() - t0
    _report("A6", "greedy extraction certificate",
            not failures and trials == 200 and elapsed < 30,
            f"{trials} trials, {len(failures)} failures, {elapsed:.1f}s")


def test_a7_fiber_bound_window():
    t0 = time.monotonic()
    c = fiber_bound_constants((1, 1), 2)
    assert c.c1 == 16 and abs(c.c3 - 24.0) < 1e-12
    rng = random.Random(424242)
    checked = 0
    exceptions = []
    for p in primes_in(439, 1500):
        prime = make_prime(p)
        cap = c.c2 * p ** 0.6
        for d in [d for d in range(17, int(cap) + 1) if (p - 1) % d == 0 and d < cap]:
            G = subgroup_of_order(prime, d)
            reps = sorted({min(v * g % p for g in G.elements) for v in range(1, p)})
            for _ in range(50):
                a, b = rng.sample(range(1, p), 2)
                from sumprod.poly import UniPoly

                fs = [UniPoly(p, [a, 1]), UniPoly(p, [b, 1])]
                cosets = [coset_of(rng.choice(reps), G) for _ in range(2)]
                v = verify_fiber_bound(fs, cosets, G)
                assert v.premise_ok, (p, d, a, b)
                checked += 1
                if not (v.lhs <= 24 * d ** 0.75 * (1 + REL)):
                    exceptions.append((p, d, a, b, v.lhs))
    elapsed = time.monotonic() - t0
    _report("A7", "fiber size bound in the admitted window",
            not exceptions and checked > 0 and elapsed < 300,
            f"{checked} instances, {len(exceptions)} exceptions, {elapsed:.1f}s")


def test_a8_known_value_regressions():
    p = 13
    prime = make_prime(p)
    G = subgroup_of_order(prime, 3)
    assert G.elements == (1, 3, 9)

    # oracle 1: nine pairwise sums, by hand
    sums = sorted({(a + b) % p for a in (1, 3, 9) for b in (1, 3, 9)})
    got = sumset(value_set(prime, G.elements), value_set(prime, G.elements))
    assert list(got.members) == sums and len(sums) == 6

    # oracle 2: nine membership checks
    inter = sum(1 for g in (1, 3, 9) if (g - 1) % p in (1, 3, 9))
    assert shift_intersection(G, 1) == inter == 0

    # oracle 3: coset split of the six sums
    part = coset_partition([2, 4, 5, 6, 10, 12], G)
    rows = {rep: set(vals) for rep, vals in part.rows}
    assert rows == {2: {2, 5, 6}, 4: {4, 10, 12}}
    assert not part.zero_present

    # oracle 4: pairs summing to 4, by hand: (1,3) and (3,1)
    pc = count_level_pairs(parse_bipoly("x+y", prime), G, value_set(prime, [4]))
    assert pc.total == 2 and pc.per_level == {4: 2}

    _report("A8", "known-value regressions", True, "4 hand oracles agree")


def test_a9_parallel_determinism():
    cfg = SweepConfig.from_json(
        {
            "inequality": "gv",
            "primes": primes_in(5, 61),
            "orders": "all",
            "seed": 33,
        }
    )
    seq = render_report(run_sweep(cfg, jobs=1), "jsonl")
    par = render_report(run_sweep(cfg, jobs=8), "jsonl")
    same = seq == par

    cfg2 = SweepConfig.from_json(
        {
            "inequality": "thmap",
            "primes": primes_in(439, 600),
            "orders": "all",
            "polys": [],
            "params": {"pair_count": 5},
            "seed": 7,
        }
    )
    seq2 = render_report(run_sweep(cfg2, jobs=1), "jsonl")
    par2 = render_report(run_sweep(cfg2, jobs=8), "jsonl")
    same2 = seq2 == par2

    for line in (seq.splitlines() or [""])[:1]:
        json.loads(line)  # sanity: the stream really is JSONL
    _report("A9", "worker-count independent bytes", same and same2 and seq,
            f"{len(seq.splitlines())} + {len(seq2.splitlines())} records")
