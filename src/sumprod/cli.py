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

from ._record import fields
from .bounds import Verdict, extract_permissible
from .errors import WorkbenchError
from .field import EXT_ELEMENT_BUDGET, make_prime
from .poly import is_good, is_required, parse_bipoly
from .setops import DEFAULT_MAX_PAIRS, image, value_set
from .subgroup import enumerate_subgroups, subgroup_of_order
from .sweep import _KINDS, SweepConfig, _read_json, _subgroup, evaluate, write_sweep

# argparse settings of the verify/probe options that are not plain text
_OPTIONS = {
    "mu": {"type": int},
    "fs": {"help": "semicolon-separated univariate expressions"},
    "cosets": {"help": "comma-separated coset representatives"},
    "delta": {"type": float}, "epsilon": {"type": float},
}
# the result fields a `probe` choice prints, where not all of them
_SHOWN = {"factorization": (
    "image_size", "is_representation", "exponent_a", "exponent_b", "in_band", "min_q")}
# the sweep instance fields that a verify/probe option's text gives, where
# that is not the text itself under the option's name
_FIELDS = {
    "alphas": lambda text, prime: {"alphas": _int_list(text)},
    "cosets": lambda text, prime: {"coset_reps": _int_list(text)},
    "A": lambda text, prime: {"A": _int_list(text)},
    "B": lambda text, prime: {"B": _int_list(text)},
    "fs": lambda text, prime: {"poly": text, "fs": _fs_coeffs(text, prime)},
}


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


def _fs_coeffs(text: str, prime) -> tuple[tuple[int, ...], ...]:
    """The coefficient tuples, low degree first, of the x-polynomials in --fs."""
    fs = []
    for part in text.split(";"):
        Q = parse_bipoly(part, prime)
        if Q.deg_y > 0:
            raise WorkbenchError(f"--fs entries must use only x: {part!r}")
        fs.append(Q.coeff_of_y_power(0).coeffs)
    return tuple(fs)


def _fmt_val(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "-"
    if isinstance(v, (list, tuple)):
        return ",".join(map(str, v))
    return str(v)


def build_parser() -> _Parser:
    parser = _Parser(prog="sumprod", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, run, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(run=run)
        sp.add_argument("--format", choices=("text", "json"), default="text")
        return sp

    sp = add("subgroups", _cmd_subgroups, help="list the subgroups of F_p*")
    sp.add_argument("--p", type=int, required=True)

    sp = add("check-good", _cmd_check_good, help="homogeneity / irreducible-shift / axis check")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--poly", required=True)

    sp = add("check-required", _cmd_check_required, help="reject single-variable factors")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--poly", required=True)

    sp = add("image", _cmd_image, help="evaluate {P(a,b)} over A x B (or G x G via --order)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--order", type=int)
    sp.add_argument("--A")
    sp.add_argument("--B")

    sp = add("intersect-shift", _cmd_intersect_shift, help="|G ∩ (G + mu)|")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--mu", type=int, required=True)

    sp = add("extract-permissible", _cmd_extract_permissible,
             help="greedy permissible-subset extraction")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--ys", required=True)

    for command, dest, run, text in (
        ("verify", "inequality", _cmd_verify, "check one inequality instance"),
        ("probe", "what", _cmd_probe, "ratio-only reports (no pass/fail)"),
    ):
        # {choice: sweep kind} of the kinds that command checks
        kinds = {e["name"] or k: k for k, e in _KINDS.items() if e["command"] == command}
        sp = add(command, run, help=text)
        sp.set_defaults(kinds=kinds)
        sp.add_argument(dest, choices=tuple(kinds))
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--order", type=int, required=True)
        # an option named like a param of its kind takes the param's default
        defaults = {n: r[1] for k in kinds.values() for n, r in _KINDS[k]["params"].items()}
        for flag in dict.fromkeys(f for k in kinds.values() for f in _KINDS[k]["flags"]):
            sp.add_argument(f"--{flag}", default=defaults.get(flag), **_OPTIONS.get(flag, {}))

    sp = sub.add_parser("sweep", help="run a config-driven batch and emit a report")
    sp.set_defaults(run=_cmd_sweep)
    sp.add_argument("--config", required=True)
    sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    sp.add_argument("--out", default="-")
    sp.add_argument("--jobs", type=int)
    sp.add_argument("--seed", type=int, help="override the config seed")

    return parser


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


def _instance(args, kind: str) -> dict:
    """The sweep instance of --p, --order and the kind's options, at default budgets."""
    prime = _subgroup(args.p, args.order).prime  # named before a missing option
    flags = _KINDS[kind]["flags"]
    missing = [f"--{flag}" for flag in flags if getattr(args, flag) is None]
    if missing:
        raise WorkbenchError(f"{args.command}: missing {', '.join(missing)}")
    inst = {"kind": kind, "p": args.p, "order": args.order,
            "max_pairs": DEFAULT_MAX_PAIRS, "ext_elements": EXT_ELEMENT_BUDGET}
    for flag in flags:
        text = getattr(args, flag)
        inst.update(_FIELDS[flag](text, prime) if flag in _FIELDS else {flag: text})
    return inst


def _cmd_verify(args) -> int:
    v = evaluate(_instance(args, args.inequality))
    premise = "met" if v.premise_ok else f"not-met({v.premise_reason})"
    shown = {name: getattr(v, name) for name in fields(Verdict)[3:]}  # lhs .. ratio
    _print({"inequality": v.inequality, "premise": premise, **shown}, args.format)
    return 2 if v.premise_ok and v.holds is False else 0


def _cmd_probe(args) -> int:
    r = evaluate(_instance(args, args.kinds[args.what]))
    shown = _SHOWN.get(args.what) or fields(type(r))
    _print({name: getattr(r, name) for name in shown}, args.format)
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except SystemExit as e:
        return int(e.code or 0)
    except (WorkbenchError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
