"""Child-process side of the benchmark: one fresh interpreter per call.

    python3 perfbench/inproc.py setup  INPUT...
    python3 perfbench/inproc.py census TRACE SPEC OUT
    python3 perfbench/inproc.py sweep  TRACE OUTDIR CONFIG...

`setup` times `import sumprod` plus loading and validating the inputs.
`census` classifies every form of the census spec and writes the results to
OUT.  `sweep` runs each config through the CLI entry point in-process at
--jobs 1, writing OUTDIR/<i>.jsonl.  With TRACE=1 the pass runs under
spans.Tracer.  The last stdout line is a JSON object with the pass's wall
time (and the trace figures when traced).  Run from the checkout root with
PYTHONPATH=src.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
from time import perf_counter


def census_forms(spec: dict):
    """(p, degree, coefficient vector, BiPoly) for every nonzero form of the
    spec, in the seed's order.  The vector lists x^deg, x^(deg-1) y, ... y^deg."""
    from sumprod.field import make_prime
    from sumprod.poly import BiPoly

    forms = []
    for p, deg in spec["forms"]:
        make_prime(p)
        monos = [(deg - j, j) for j in range(deg + 1)]
        for vec in itertools.product(range(p), repeat=deg + 1):
            if any(vec):
                forms.append((p, deg, vec, BiPoly(p, {m: c for m, c in zip(monos, vec) if c})))
    random.Random(f"census|{spec['seed']}").shuffle(forms)
    return forms


def run_census(spec: dict) -> list:
    from sumprod import poly  # module attributes, so traced wrappers are seen

    d_max = spec["d_max"]
    out = []
    for p, deg, vec, h in census_forms(spec):
        good = poly.is_good(h)
        irreducible = poly.abs_irreducible_shift(h, 1)
        factor_at_1 = poly.factor_oracle(h.shift_const(1), d_max)
        levels = []
        if good:  # every nonzero level; alpha = 1 was searched above
            levels = [a for a in range(1, p)
                      if (factor_at_1 if a == 1 else poly.factor_oracle(h.shift_const(a), d_max))]
        out.append([p, deg, list(vec), bool(good), good.reason, irreducible, factor_at_1, levels])
    return out


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        t0 = perf_counter()
        import sumprod  # noqa: F401
        import sumprod.cli  # noqa: F401
        from sumprod.sweep import SweepConfig

        for path in argv[1:]:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if "forms" in doc:
                census_forms(doc)
            else:
                SweepConfig.from_json(doc)
        print(json.dumps({"setup_s": perf_counter() - t0}))
        return 0

    import sumprod  # noqa: F401
    import sumprod.cli
    from spans import Tracer

    tracer = Tracer() if argv[1] == "1" else None
    if tracer is not None:
        tracer.install()
    rc = 0
    if mode == "census":
        with open(argv[2], encoding="utf-8") as fh:
            spec = json.load(fh)
        t0 = perf_counter()
        results = run_census(spec)
        wall = perf_counter() - t0
        with open(argv[3], "w", encoding="utf-8") as fh:
            json.dump(results, fh)
    elif mode == "sweep":
        outdir = argv[2]
        t0 = perf_counter()
        for i, cfg in enumerate(argv[3:]):
            out = os.path.join(outdir, f"{i}.jsonl")
            rc = max(rc, sumprod.cli.main(
                ["sweep", "--config", cfg, "--out", out, "--format", "jsonl", "--jobs", "1"]))
        wall = perf_counter() - t0
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 1
    doc = {"wall_s": wall, "rc": rc}
    if tracer is not None:
        doc["trace"] = tracer.metrics(wall)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
