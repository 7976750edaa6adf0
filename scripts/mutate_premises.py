#!/usr/bin/env python3
"""Mutation pass over the premise, flag and holds comparisons.

Each of the 13 comparisons below is flipped on its own (< and <= swap, so
do > and >=) in a temporary copy of the repository, never in the checkout,
and the Tier-1 suite runs against that copy.  A mutant is caught when the
suite fails.  The mutants marked equivalent cannot change any result, for
the reason given, so no test can catch them; every other mutant must be
caught.  Prints one line per mutant and exits 1 if a reachable mutant
survives, an equivalent one is caught, or the unmutated copy fails.

    python3 scripts/mutate_premises.py

A full pass runs the suite 14 times, one after another.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
FLIP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}
OPERATOR = re.compile(r"<=|>=|<|>")

# (name, file, a snippet that occurs once in it and holds one comparison,
#  why the mutant is equivalent, or None if a test must catch it)
SITES = [
    ("window low end 100 n^3 < d", "src/sumprod/subgroup.py", "100 * n**3 < d", None),
    ("window high end 9 d^2 < p", "src/sumprod/subgroup.py", "9 * d * d < p",
     "p is prime, so 9 d^2 = p never holds"),
    ("c branch base^3 <= c2^2", "src/sumprod/bounds.py", "base**3 <= c2**2",
     "base^3 > c2^2 for every n >= 1, so the two never tie"),
    ("borderline flag", "src/sumprod/bounds.py", "abs(lhs - rhs) <= REL_TOL * abs(rhs)",
     "it differs only at an exact float tie"),
    ("t2 holds", "src/sumprod/bounds.py", "lhs * lhs > _image_c_squared", None),
    ("vm level count h 40^3 n^9 < |G|^2", "src/sumprod/bounds.py",
     "h * 40**3 * n**9 < G.order**2", None),
    ("vm holds", "src/sumprod/bounds.py", "lhs**3 <= c1**3", None),
    ("gv s > 0", "src/sumprod/bounds.py", "if s > 0 and",
     "at s = 0 the clause |G|^4 (p-1) < s^4 fails anyway"),
    ("gv size window |G|^4 (p-1) < s^4", "src/sumprod/bounds.py", "(G.p - 1) < s**4",
     "with p - 1 = |G| k, a tie needs k | (k-1)^4, so k = 1 and s = 0"),
    ("gv holds", "src/sumprod/bounds.py", "lhs**3 <= 64", None),
    ("thmap c1 < |G|", "src/sumprod/bounds.py", "consts.c1 < G.order", None),
    ("thmap upper window < p^(2n)", "src/sumprod/bounds.py", "< G.p ** (2 * n)",
     "a tie needs p | |G| (n+1) prod m, impossible once c1 < |G| holds"),
    ("thmap holds", "src/sumprod/bounds.py", "lhs ** (2 * n) <= bound", None),
]

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-*")


def mutate(text, snippet):
    """text with the one comparison in its one copy of snippet flipped."""
    if text.count(snippet) != 1:
        raise SystemExit(f"snippet {snippet!r} does not occur exactly once")
    ops = OPERATOR.findall(snippet)
    if len(ops) != 1:
        raise SystemExit(f"snippet {snippet!r} holds {len(ops)} comparisons, not one")
    return text.replace(snippet, OPERATOR.sub(lambda m: FLIP[m.group()], snippet))


def tier1(copy):
    """Whether the Tier-1 suite passes in the copy, and its seconds."""
    env = {**os.environ, "PYTHONPATH": os.path.join(copy, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return proc.returncode == 0, time.monotonic() - start


def main():
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutate-premises-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        passed, secs = tier1(copy)
        print(f"{'unmutated':<36} {'passes' if passed else 'FAILS':<9} {secs:6.1f} s", flush=True)
        if not passed:
            return 1
        for name, path, snippet, equivalent in SITES:
            target = os.path.join(copy, path)
            with open(target, encoding="utf-8") as fh:
                original = fh.read()
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(mutate(original, snippet))
            try:
                passed, secs = tier1(copy)
            finally:
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(original)
            verdict = "survived" if passed else "caught"
            if passed != (equivalent is not None):
                bad += 1
                verdict = verdict.upper()
            note = f"equivalent: {equivalent}" if equivalent else "reachable"
            print(f"{name:<36} {verdict:<9} {secs:6.1f} s  {note}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
