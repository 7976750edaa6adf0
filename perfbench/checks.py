"""Independent checks of sweep reports and census results.

    python3 perfbench/checks.py --seed N [--census SPEC] [--self-check] OUTPUT...

checks the outputs of one pass (JSONL reports, or the census results when
--census names the spec) and prints one JSON line: operations, failed and
mismatched counts.  It runs in its own process so that the benchmark's
parent stays small: a child's peak RSS includes its parent's at spawn.

Nothing here imports `sumprod`: subgroups, images, level counts, sumsets,
shift overlaps, fiber sets and the census classification are recomputed
independently with plain Python (numpy only to tabulate a membership test).
`self_check` plants wrong records and requires every checker to reject them,
so a checker that accepts anything fails loudly.

A record's problems are strings.  `mismatches` are records whose output
contradicts an independent computation or a required property; `failures`
are records the program itself reports as failed (a `budget:` record, or a
premise-met record with holds=false).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import random
import sys
from functools import lru_cache

import numpy as np

# total degree of each homogeneous polynomial the grid workloads sweep
POLY_DEGREE = {"x+y": 1, "x^2+y^2": 2}
SAMPLE_PER_KIND = 2


@lru_cache(maxsize=None)
def _poly_fn(text: str):
    if text not in POLY_DEGREE:
        raise ValueError(f"no independent evaluator for {text!r}")
    return eval("lambda x, y: " + text.replace("^", "**"))  # noqa: S307 - fixed texts above


def _prime_factors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=4096)
def subgroup(p: int, d: int) -> tuple[int, ...]:
    """The order-d subgroup of F_p*, ascending, built from an element of
    exact order d (a power x^((p-1)/d) that no proper divisor kills)."""
    if (p - 1) % d:
        raise ValueError(f"{d} does not divide {p} - 1")
    qs = _prime_factors(d)
    for x in range(2, p + 1):
        g = pow(x, (p - 1) // d, p)
        if all(pow(g, d // q, p) != 1 for q in qs):
            break
    elems, acc = [1], g % p
    while acc != 1:
        elems.append(acc)
        acc = acc * g % p
    if len(elems) != d:
        raise AssertionError(f"built {len(elems)} elements for order {d}")
    return tuple(sorted(elems))


@lru_cache(maxsize=4096)
def _in_subgroup_table(p: int, d: int) -> np.ndarray:
    """t[x] == (x^d == 1 mod p) for x in F_p: membership in the order-d subgroup."""
    return np.array([pow(x, d, p) == 1 for x in range(p)], dtype=bool)


@lru_cache(maxsize=None)
def _is_generator(g: int, p: int, d: int) -> bool:
    return pow(g, d, p) == 1 and all(pow(g, d // q, p) != 1 for q in _prime_factors(d))


def _common(rec: dict) -> list[str]:
    """Properties every verdict record must have."""
    bad = []
    p, d = rec["p"], rec["order"]
    if not _is_generator(rec["generator"], p, d):
        bad.append(f"generator {rec['generator']} does not have order {d}")
    if rec["kind"] in ("growth", "probe"):  # ratio-only records carry no verdict
        if rec["holds"] is not None:
            bad.append("ratio-only record has a verdict")
    elif rec["premise_ok"]:
        if rec["holds"] is not True:
            bad.append("premise met but holds is not true")
        lhs, rhs = rec["lhs"], rec["rhs"]
        want = lhs > rhs if rec["kind"] == "t2" else lhs <= rhs
        if rec["holds"] is not want:
            bad.append(f"holds={rec['holds']} contradicts lhs={lhs} rhs={rhs}")
    elif rec["holds"] is not None and not rec["premise_reason"].startswith("budget:"):
        bad.append("premise not met but holds is set")
    return bad


def _check_t2(rec: dict, recompute: bool) -> list[str]:
    p, d, lhs = rec["p"], rec["order"], rec["lhs"]
    P, n = _poly_fn(rec["poly"]), POLY_DEGREE[rec["poly"]]
    G = subgroup(p, d)
    bad = []
    if not 1 <= lhs <= min(p, d * d):
        bad.append(f"lhs {lhs} outside [1, min(p, |G|^2)]")
    # P(G,G) \ {0} is a union of cosets of the n-th powers of G
    zero_in = any(P(1, t) % p == 0 for t in G)
    m = d // math.gcd(n, d)
    if (lhs - zero_in) % m:
        bad.append(f"|P(G,G)| - [0 in image] = {lhs - zero_in} not divisible by {m}")
    if recompute:
        got = len({P(a, b) % p for a in G for b in G})
        if got != lhs:
            bad.append(f"lhs {lhs} != recomputed image size {got}")
    return bad


def _alphas(rec: dict) -> list[int]:
    return [int(v) for v in rec["detail"].removeprefix("alphas=").split(",")]


def _check_vm(rec: dict, recompute: bool) -> list[str]:
    p, d, lhs = rec["p"], rec["order"], rec["lhs"]
    alphas = _alphas(rec)
    bad = []
    if any(a % p == 0 for a in alphas) or len({pow(a, d, p) for a in alphas}) != len(alphas):
        bad.append("levels are not nonzero and in distinct cosets")
    if not 0 <= lhs <= d * d:
        bad.append(f"lhs {lhs} outside [0, |G|^2]")
    if recompute:
        P, G, levels = _poly_fn(rec["poly"]), subgroup(p, d), set(alphas)
        got = sum(1 for a in G for b in G if P(a, b) % p in levels)
        if got != lhs:
            bad.append(f"lhs {lhs} != recomputed level-pair count {got}")
    return bad


def _check_growth(rec: dict, recompute: bool) -> list[str]:
    p, d = rec["p"], rec["order"]
    s, t = rec["extra"]["sum_size"], rec["extra"]["diff_size"]
    bad = []
    for name, size in (("sum", s), ("diff", t)):
        if not 1 <= size <= min(p, d * d):
            bad.append(f"{name}_size {size} outside [1, min(p, |G|^2)]")
    # (G +- G) \ {0} is a union of G-cosets; 0 is in G+G iff -1 is in G
    minus_one_in = pow(p - 1, d, p) == 1
    if (s - minus_one_in) % d or (t - 1) % d:
        bad.append(f"sum/diff sizes {s}/{t} are not unions of cosets of |G|={d}")
    if recompute:
        G = subgroup(p, d)
        got_s = len({(a + b) % p for a in G for b in G})
        got_t = len({(a - b) % p for a in G for b in G})
        if (got_s, got_t) != (s, t):
            bad.append(f"sum/diff sizes {s}/{t} != recomputed {got_s}/{got_t}")
    return bad


def _check_gv_group(recs: list[dict]) -> list[list[str]]:
    """All records of one (p, order): lhs = #{g in G : (g - mu)^|G| == 1}."""
    p, d = recs[0]["p"], recs[0]["order"]
    table = _in_subgroup_table(p, d)
    mus = np.array([int(r["detail"].removeprefix("mu=")) for r in recs], dtype=np.int64)
    counts = np.zeros(len(recs), dtype=np.int64)
    for g in subgroup(p, d):
        counts += table[(g - mus) % p]
    return [[] if r["lhs"] == int(c) else [f"lhs {r['lhs']} != recomputed overlap {int(c)}"]
            for r, c in zip(recs, counts)]


def _check_thmap(rec: dict) -> list[str]:
    """lhs = #{x in F_p : ((x + s_i) / r_i)^|G| == 1 for both i}."""
    p, d = rec["p"], rec["order"]
    shifts = [int(f.removeprefix("x+")) for f in rec["poly"].split(";")]
    reps = [int(v) for v in rec["detail"].removeprefix("cosets=").split(",")]
    table = _in_subgroup_table(p, d)
    xs = np.arange(p, dtype=np.int64)
    hit = np.ones(p, dtype=bool)
    for s, r in zip(shifts, reps):
        hit &= table[(xs + s) % p * pow(r, -1, p) % p]
    got = int(hit.sum())
    return [] if got == rec["lhs"] else [f"lhs {rec['lhs']} != recomputed fiber size {got}"]


def check_records(records: list[dict], rng: random.Random) -> dict[int, list[str]]:
    """Problems per record index.  gv and thmap lhs values are recomputed for
    every record; t2, vm and growth for SAMPLE_PER_KIND records drawn by rng."""
    problems: dict[int, list[str]] = {}

    def add(i, msgs):
        if msgs:
            problems.setdefault(i, []).extend(msgs)

    by_kind: dict[str, list[int]] = {}
    for i, rec in enumerate(records):
        by_kind.setdefault(rec["kind"], []).append(i)
        if not rec["premise_reason"].startswith("budget:"):
            add(i, _common(rec))
    gv_groups: dict[tuple, list[int]] = {}
    for kind, idx in by_kind.items():
        sample = set(rng.sample(idx, min(SAMPLE_PER_KIND, len(idx))))
        for i in idx:
            rec = records[i]
            if rec["premise_reason"].startswith("budget:"):
                continue
            if kind == "t2":
                add(i, _check_t2(rec, i in sample))
            elif kind == "vm":
                add(i, _check_vm(rec, i in sample))
            elif kind == "growth":
                add(i, _check_growth(rec, i in sample))
            elif kind == "thmap":
                add(i, _check_thmap(rec))
            elif kind == "gv":
                gv_groups.setdefault((rec["p"], rec["order"]), []).append(i)
            else:
                add(i, [f"no checker for kind {kind!r}"])
    for idx in gv_groups.values():
        for i, msgs in zip(idx, _check_gv_group([records[i] for i in idx])):
            add(i, msgs)
    return problems


def failures(records: list[dict]) -> set[int]:
    """Indices of records the program reports as failed: budget errors and
    violations."""
    return {i for i, r in enumerate(records)
            if r["premise_reason"].startswith("budget:")
            or (r["premise_ok"] and r["holds"] is False)}


def parse_report(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# --------------------------------------------------------------------------
# census


@lru_cache(maxsize=None)
def proper_powers(p: int, n: int) -> frozenset:
    """Coefficient vectors (x^n, x^(n-1) y, ..., y^n) of every
    lambda * (u x + v y)^n over F_p.  For 2 <= n <= 3 < p these are exactly
    the forms that are a scalar times a proper power over the closure: a
    root of multiplicity n of a degree-n polynomial over F_p is rational."""
    out = set()
    for lam in range(1, p):
        for u in range(p):
            for v in range(p):
                if u or v:
                    out.add(tuple(lam * math.comb(n, j) * pow(u, n - j, p) * pow(v, j, p) % p
                                  for j in range(n + 1)))
    return frozenset(out)


def check_census(results: list, spec: dict) -> dict[int, list[str]]:
    """Problems per result index; a missing or duplicated form is reported
    against index -1."""
    problems: dict[int, list[str]] = {}
    seen: dict[tuple, int] = {}
    for i, (p, deg, vec, good, reason, irreducible, factor_at_1, levels) in enumerate(results):
        bad = []
        vec = tuple(vec)
        seen[(p, deg)] = seen.get((p, deg), 0) + 1
        if not 1 <= deg < p:
            bad.append(f"degree {deg} outside the checked range")
        reducible = deg >= 2 and vec in proper_powers(p, deg)
        vanishing = vec[0] == 0 and vec[-1] == 0
        if irreducible is reducible:
            bad.append(f"abs_irreducible_shift={irreducible} but proper power={reducible}")
        if irreducible is factor_at_1:
            bad.append(f"abs_irreducible_shift={irreducible} and factor_oracle={factor_at_1} disagree")
        want_good = not reducible and not vanishing
        want_reason = None if want_good else ("reducible-shift" if reducible else "vanishing-axes")
        if good is not want_good or reason != want_reason:
            bad.append(f"is_good={good} ({reason}) but expected {want_good} ({want_reason})")
        if good and levels:
            bad.append(f"good form has a factor at levels {levels}")
        if bad:
            problems[i] = bad
    wanted = {(p, deg): p ** (deg + 1) - 1 for p, deg in spec["forms"]}
    distinct = len({(r[0], tuple(r[2])) for r in results})
    if seen != wanted or distinct != len(results):
        problems[-1] = [f"form counts {seen} (distinct {distinct}) != {wanted}"]
    return problems


# --------------------------------------------------------------------------
# planted errors


def _plant(rec: dict) -> list[dict]:
    """Wrong copies of a correct record: lhs (or sizes) off by one, holds flipped."""
    out = []
    off = copy.deepcopy(rec)
    if rec["kind"] == "growth":
        off["extra"]["sum_size"] += 1
    else:
        off["lhs"] += 1
    out.append(off)
    if rec["premise_ok"] and rec["holds"] is not None:
        flip = copy.deepcopy(rec)
        flip["holds"] = not rec["holds"]
        out.append(flip)
    return out


def self_check(records: list[dict] | None = None, census: list | None = None,
               spec: dict | None = None) -> list[str]:
    """Plant wrong copies of outputs the checks accept; every checker must
    flag each planted copy.  Returns what went unflagged.  Outputs the checks
    reject are the program's fault and are reported by the main check."""
    missed = []
    if records:
        picked = {}
        for rec in records:  # one accepted record per kind, premise-met if any
            have = picked.get(rec["kind"])
            if have is not None and (have["premise_ok"] or not rec["premise_ok"]):
                continue
            if not check_records([rec], random.Random(0)):
                picked[rec["kind"]] = rec
        for kind, rec in picked.items():
            for wrong in _plant(rec):
                if not check_records([wrong], random.Random(0)):
                    missed.append(f"{kind}: planted error went unflagged")
    if census:
        rejected = check_census(census, spec)
        ok = next((i for i in range(len(census)) if i not in rejected), None)
        if ok is not None:
            for field in (3, 6):  # is_good, factor_oracle at alpha = 1
                wrong = [list(r) for r in census]
                wrong[ok][field] = not wrong[ok][field]
                if ok not in check_census(wrong, spec):
                    missed.append(f"census: flipped field {field} went unflagged")
        if -1 not in check_census(census[1:], spec):
            missed.append("census: a missing form went unflagged")
    return missed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="check one pass's outputs")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--census", help="census spec; the output is census results")
    ap.add_argument("--self-check", action="store_true",
                    help="first require the checkers to reject planted errors")
    ap.add_argument("outputs", nargs="+")
    args = ap.parse_args(argv)
    if args.census:
        with open(args.census, encoding="utf-8") as fh:
            spec = json.load(fh)
        with open(args.outputs[0], encoding="utf-8") as fh:
            results = json.load(fh)
        missed = self_check(census=results, spec=spec) if args.self_check else []
        problems = check_census(results, spec)
        ops, failed = len(results), len(problems)
    else:
        records = [rec for path in args.outputs for rec in parse_report(path)]
        missed = self_check(records=records) if args.self_check else []
        problems = check_records(records, random.Random(f"check|{args.seed}"))
        ops, failed = len(records), len(problems.keys() | failures(records))
    if missed:
        print("checker self-check failed: " + "; ".join(missed), file=sys.stderr)
        return 3
    for i, msgs in sorted(problems.items())[:5]:
        print(f"check failed [{i}]: {'; '.join(msgs)}", file=sys.stderr)
    print(json.dumps({"ops": ops, "failed": failed, "mismatched": len(problems)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
