"""Command-line front-end.

Exit codes: 0 = ran clean, 2 = some premise-met inequality failed (a
counterexample — worth a bug report), 1 = usage or configuration error.
argparse's default exit status collides with that contract, so parser
errors are remapped to 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from ._record import asdict
from .bounds import extract_permissible
from .errors import WorkbenchError
from .field import EXT_ELEMENT_BUDGET, make_prime
from .poly import is_good, is_required, parse_bipoly
from .setops import DEFAULT_MAX_PAIRS, image, value_set
from .subgroup import enumerate_subgroups, subgroup_of_order
from .sweep import SweepConfig, _read_json, _subgroup, evaluate, write_sweep

# the flags each verify kind needs, in the order a missing one is named
_NEEDS = {"gv": ["mu"], "t2": ["poly"], "vm": ["poly", "alphas"], "thmap": ["fs", "cosets"]}
# the factorization probe fields that `probe factorization` prints
_FACTORIZATION_SHOWN = (
    "image_size", "is_representation", "exponent_a", "exponent_b", "in_band", "min_q"
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are exit 1, never 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise WorkbenchError(f"expected a comma-separated integer list, got {text!r}") from None


def _print(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        print(" ".join(f"{k}={_fmt_val(v)}" for k, v in obj.items()))


def _fmt_val(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "-"
    if isinstance(v, (list, tuple)):
        return ",".join(map(str, v))
    return str(v)


def _verdict_dict(v) -> dict:
    return {
        "inequality": v.inequality,
        "premise": "met" if v.premise_ok else f"not-met({v.premise_reason})",
        "lhs": v.lhs,
        "rhs": v.rhs,
        "holds": v.holds,
        "borderline": v.borderline,
        "ratio": v.ratio,
    }


def build_parser() -> _Parser:
    parser = _Parser(prog="sumprod", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.add_argument("--format", choices=("text", "json"), default="text")
        return sp

    sp = add("subgroups", help="list the subgroups of F_p*")
    sp.add_argument("--p", type=int, required=True)

    sp = add("check-good", help="homogeneity / irreducible-shift / axis check")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--poly", required=True)

    sp = add("check-required", help="reject single-variable factors")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--poly", required=True)

    sp = add("image", help="evaluate {P(a,b)} over A x B (or G x G via --order)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--order", type=int)
    sp.add_argument("--A")
    sp.add_argument("--B")

    sp = add("intersect-shift", help="|G ∩ (G + mu)|")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--mu", type=int, required=True)

    sp = add("extract-permissible", help="greedy permissible-subset extraction")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--ys", required=True)

    sp = add("verify", help="check one inequality instance")
    sp.add_argument("inequality", choices=("t2", "vm", "gv", "thmap"))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--poly")
    sp.add_argument("--alphas")
    sp.add_argument("--mu", type=int)
    sp.add_argument("--fs", help="semicolon-separated univariate expressions")
    sp.add_argument("--cosets", help="comma-separated coset representatives")

    sp = add("probe", help="ratio-only reports (no pass/fail)")
    sp.add_argument("what", choices=("growth", "factorization"))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--poly")
    sp.add_argument("--A")
    sp.add_argument("--B")
    sp.add_argument("--delta", type=float, default=0.5)
    sp.add_argument("--epsilon", type=float, default=0.25)

    sp = sub.add_parser("sweep", help="run a config-driven batch and emit a report")
    sp.add_argument("--config", required=True)
    sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    sp.add_argument("--out", default="-")
    sp.add_argument("--jobs", type=int)
    sp.add_argument("--seed", type=int, help="override the config seed")

    return parser


def _require(args, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n.lstrip("-").replace("-", "_")) is None]
    if missing:
        raise WorkbenchError(f"{args.command}: missing {', '.join('--' + m for m in missing)}")


def _cmd_subgroups(args) -> int:
    prime = make_prime(args.p)
    rows = []
    for G in enumerate_subgroups(prime):
        row = {"order": G.order, "generator": G.generator}
        if G.order <= 64:
            row["elements"] = list(G.elements)
        rows.append(row)
    if args.format == "json":
        print(json.dumps({"p": args.p, "subgroups": rows}, sort_keys=True))
    else:
        for row in rows:
            _print(row, "text")
    return 0


def _cmd_check_good(args) -> int:
    P = parse_bipoly(args.poly, make_prime(args.p))
    res = is_good(P)
    _print({"poly": P.to_text(), "good": res.ok, "reason": res.reason or None}, args.format)
    return 0


def _cmd_check_required(args) -> int:
    P = parse_bipoly(args.poly, make_prime(args.p))
    _print({"poly": P.to_text(), "required": is_required(P)}, args.format)
    return 0


def _cmd_image(args) -> int:
    prime = make_prime(args.p)
    P = parse_bipoly(args.poly, prime)
    if args.order is not None:
        G = subgroup_of_order(prime, args.order)
        A = B = value_set(prime, G.elements)
    else:
        if args.A is None or args.B is None:
            raise WorkbenchError("image: need either --order or both --A and --B")
        A = value_set(prime, _int_list(args.A))
        B = value_set(prime, _int_list(args.B))
    img = image(P, A, B)
    _print({"size": len(img), "members": list(img.members)}, args.format)
    return 0


def _cmd_intersect_shift(args) -> int:
    args.inequality = "gv"
    _cmd_verify(args)
    return 0


def _cmd_extract_permissible(args) -> int:
    prime = make_prime(args.p)
    P = parse_bipoly(args.poly, prime)
    kept, cert = extract_permissible(P, _int_list(args.ys))
    out = {
        "kept_indices": list(kept),
        "kept_ys": list(cert.kept_ys),
        "guarantee": cert.guarantee,
        "dropped_leading": list(cert.dropped_leading),
        "dropped_constant": list(cert.dropped_constant),
        "picks": [[y, list(gone)] for y, gone in cert.picks],
    }
    _print(out, args.format)
    return 0


def _evaluate(args, kind: str, **fields):
    """sweep.evaluate on the instance of --p/--order and fields, at the
    sweep's default budgets."""
    budgets = {"max_pairs": DEFAULT_MAX_PAIRS, "ext_elements": EXT_ELEMENT_BUDGET}
    return evaluate({"kind": kind, "p": args.p, "order": args.order, **budgets, **fields})


def _cmd_verify(args) -> int:
    kind = args.inequality
    _subgroup(args.p, args.order)  # a bad --p or --order is named before a missing flag
    _require(args, _NEEDS[kind])
    if kind == "gv":
        v = _evaluate(args, kind, mu=args.mu)
    elif kind == "thmap":
        v = _evaluate(args, kind, poly=args.fs, coset_reps=_int_list(args.cosets))
    elif kind == "vm":
        v = _evaluate(args, kind, poly=args.poly, alphas=_int_list(args.alphas))
    else:
        v = _evaluate(args, kind, poly=args.poly)
    _print(_verdict_dict(v), args.format)
    return 2 if v.premise_ok and v.holds is False else 0


def _cmd_probe(args) -> int:
    _subgroup(args.p, args.order)
    if args.what == "growth":
        out = asdict(_evaluate(args, "growth"))
    else:
        if args.poly is None or args.A is None or args.B is None:
            raise WorkbenchError("probe factorization: need --poly, --A, --B")
        A, B = _int_list(args.A), _int_list(args.B)
        pr = _evaluate(
            args, "probe", poly=args.poly, A=A, B=B, delta=args.delta, epsilon=args.epsilon
        )
        out = {name: getattr(pr, name) for name in _FACTORIZATION_SHOWN}
    _print(out, args.format)
    return 0


def _cmd_sweep(args) -> int:
    data = _read_json(args.config)
    if args.seed is not None and isinstance(data, dict):
        data = {**data, "seed": args.seed}  # validated with the rest of the config
    cfg = SweepConfig.from_json(data)
    bad = write_sweep(cfg, args.format, args.out, jobs=args.jobs)
    if bad:
        print(f"{bad} premise-met violation(s) found", file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "subgroups": _cmd_subgroups,
    "check-good": _cmd_check_good,
    "check-required": _cmd_check_required,
    "image": _cmd_image,
    "intersect-shift": _cmd_intersect_shift,
    "extract-permissible": _cmd_extract_permissible,
    "verify": _cmd_verify,
    "probe": _cmd_probe,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as e:
        return int(e.code or 0)
    except (WorkbenchError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
