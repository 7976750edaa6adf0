"""Batch sweeps: enumerate work units from a config, verify them (optionally
in parallel), and emit byte-stable JSONL/CSV reports.  `evaluate` runs one
instance of any kind; `run_instance` turns its result into a record.

The kinds live in one table, `_KINDS`, with one entry per kind: its params
with their rules and defaults, what it requires of a config, how it builds
the units of one subgroup, its detail text, its runner, the field its units
fan out over and what their records share, and the CLI command that checks
one instance.  Nothing else in the sweep or the CLI branches on the kind.

A work unit is one record, or one per value in its fan field (a gv unit is
one subgroup with a segment of its shifts).  One function, `_shared`, turns
any unit into its distinct report lines and one small index per record:
records with the same share value (for gv, |G ∩ (G + mu)|) share a line,
evaluated and rendered once with a placeholder where the value goes.
`generate_instances` expands the same units into one instance per record.

Determinism contract: a config plus its seed pins the full unit list and
every sampled value, so two runs differ in nothing — including worker
count.  Randomness is drawn from a fresh generator seeded per instance
(never from a shared stream), and the units are sorted into report order,
by (p, order, poly) with ties in generation order, before fan-out.  The
sorted units are cut into contiguous blocks of equally many records,
splitting a fan field where a block ends; each block runs in one
worker, at most one per block or per CPU this process may run on, and the
parent consumes the blocks in order, so a report streams out block by
block and the parent never holds every record.  A worker sends back only
the templates and indices; the parent, which built the block and so holds
the fills, splices them in, unit by unit, in `_splice`, the one place a
fill goes into a record: `write_sweep` writes its text, and `run_sweep`
reads the same jsonl lines back.  The payload is a few percent of the
text, and unlike per-worker block files it leaves no temporary files to
remove when a sweep fails.  A worker that dies (killed, or out of memory)
ends the sweep with a WorkbenchError.  Wall-clock time is deliberately
absent from the serialized records.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import os
import random
import sys
from array import array
from typing import Any, Iterable, Iterator, Sequence

from ._record import Factory, fields, record
from .bounds import (
    FactorizationProbe,
    GrowthReport,
    ProbeConfig,
    Verdict,
    probe_factorization,
    probe_growth,
    verify_fiber_bound,
    verify_image_lower_bound,
    verify_level_pair_bound,
    verify_shift_overlap_bound,
)
from .errors import BudgetExceeded, ConfigError, DegreeOverflow, ParseError, WorkbenchError
from .field import EXT_ELEMENT_BUDGET, MAX_PRIME, Prime, divisors, is_prime_u64, make_prime
from .poly import UniPoly, is_required, parse_bipoly
from .setops import DEFAULT_MAX_PAIRS, shift_histogram, value_set
from .subgroup import Subgroup, coset_of, in_admitted_window, subgroup_of_order

SCHEMA_VERSION = 1
# the widest `primes: {start, stop}` range, stop - start, a config may give
MAX_PRIME_SPAN = 10**5
MAX_DRAWS = 10**4  # the most units a kind's `draws` param may give per subgroup and poly
CSV_COLUMNS = (
    "schema",
    "kind",
    "p",
    "order",
    "generator",
    "poly",
    "detail",
    "premise_ok",
    "premise_reason",
    "lhs",
    "rhs",
    "holds",
    "borderline",
    "ratio",
    "extra",
    "seed",
)

# used only to syntax-check expressions before any per-prime parse
_SYNTAX_CHECK_PRIME = 2147483647

# the keys a config and its "budgets" object may hold
_KEYS = ("budgets", "inequality", "jobs", "orders", "params", "polys", "primes", "seed")
_BUDGETS = ("ext_elements", "max_pairs")

_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _known_keys(where: str, obj: dict, known: tuple[str, ...]) -> None:
    """Reject the first key of obj outside known, so a misspelling fails."""
    for name in obj:
        if name not in known:
            raise ConfigError(f"{where}{name}: unknown key (known: {', '.join(known)})")


def _is_int(value) -> bool:
    """A JSON integer: Python counts bools as ints, a config must not."""
    return isinstance(value, int) and not isinstance(value, bool)


@record
class SweepConfig:
    """Validated sweep description; build one with from_json/from_file."""

    inequality: str
    primes: tuple[int, ...]
    orders: Any  # "all" | tuple of ints | ("admitted_for_n", n)
    polys: tuple[str, ...]
    params: dict[str, Any] = Factory(dict)
    seed: int = 0
    max_pairs: int = DEFAULT_MAX_PAIRS
    ext_elements: int = EXT_ELEMENT_BUDGET
    jobs: int = 1

    @staticmethod
    def from_json(data: dict) -> "SweepConfig":
        if not isinstance(data, dict):
            raise ConfigError("config: must be a JSON object")
        _known_keys("", data, _KEYS)
        kind = data.get("inequality")
        if kind not in KINDS:
            raise ConfigError(f"inequality: must be one of {'|'.join(KINDS)}, got {kind!r}")
        entry = _KINDS[kind]

        primes_raw = data.get("primes")
        if isinstance(primes_raw, dict):
            start, stop = primes_raw.get("start"), primes_raw.get("stop")
            if not (_is_int(start) and _is_int(stop)):
                raise ConfigError(f"primes: need integer start/stop, got {start!r}/{stop!r}")
            if not 3 <= start <= stop <= MAX_PRIME:
                raise ConfigError("primes: need 3 <= start <= stop < 2^64")
            span = stop - start
            if span > MAX_PRIME_SPAN:
                raise ConfigError(f"primes: need stop - start <= {MAX_PRIME_SPAN}, got {span}")
            primes = tuple(n for n in range(start | 1, stop + 1, 2) if is_prime_u64(n))
        elif isinstance(primes_raw, list) and primes_raw:
            for i, v in enumerate(primes_raw):
                if not _is_int(v) or not 3 <= v <= MAX_PRIME or not is_prime_u64(v):
                    raise ConfigError(f"primes[{i}]: {v!r} is not an odd prime below 2^64")
            primes = tuple(sorted(set(primes_raw)))
        else:
            raise ConfigError("primes: need {start, stop} or a nonempty list")
        bits = entry["prime_bits"]
        if primes and primes[-1] > 2**bits:
            raise ConfigError(f"primes: {kind} sweeps need primes below 2^{bits}, got {primes[-1]}")

        orders_raw = data.get("orders", "all")
        if orders_raw == "all":
            orders: Any = "all"
        elif isinstance(orders_raw, list) and orders_raw:
            for i, v in enumerate(orders_raw):
                if not _is_int(v) or v < 1:
                    raise ConfigError(f"orders[{i}]: {v!r} is not a positive integer")
            orders = tuple(sorted(set(orders_raw)))
            least = entry["min_order"]
            if not any((p - 1) % d == 0 for d in orders if d >= least for p in primes):
                raise ConfigError(f"orders: no listed d >= {least} divides p - 1 of a listed prime")
        elif isinstance(orders_raw, dict) and set(orders_raw) == {"admitted_for_n"}:
            n = orders_raw["admitted_for_n"]
            if not _is_int(n) or n < 1:
                raise ConfigError("orders.admitted_for_n: need a positive integer")
            orders = ("admitted_for_n", n)
        else:
            raise ConfigError('orders: need "all", a list, or {"admitted_for_n": n}')

        polys_raw = data.get("polys", [])
        if not isinstance(polys_raw, list):
            raise ConfigError("polys: must be a list of expressions")
        for i, text in enumerate(polys_raw):
            if not isinstance(text, str):
                raise ConfigError(f"polys[{i}]: must be a string")
            try:
                parse_bipoly(text, _SYNTAX_CHECK_PRIME)
            except (ParseError, DegreeOverflow) as e:
                raise ConfigError(f"polys[{i}]: {text!r}: {e}") from None
        if entry["polys"] == "required":  # a factor in one variable can appear mod p only
            for i, text in enumerate(polys_raw):
                for p in primes:
                    P = parse_bipoly(text, p)
                    if P.is_zero() or not is_required(P):
                        raise ConfigError(
                            f"polys[{i}]: {text!r} is zero or has a single-variable factor mod {p}"
                        )

        params = data.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("params: must be an object")
        for name, value in params.items():
            if name not in entry["params"]:
                known = ", ".join(sorted(entry["params"])) or "none"
                raise ConfigError(f"params.{name}: not a {kind} parameter (known: {known})")
            rule = entry["params"][name][0]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"params.{name}: need a number, got {value!r}")
            if rule == "count" and not (_is_int(value) and value >= 1):
                raise ConfigError(f"params.{name}: need a positive integer, got {value!r}")
            if name == entry["draws"] and value > MAX_DRAWS:
                raise ConfigError(f"params.{name}: need at most {MAX_DRAWS}, got {value!r}")
            if rule == "fraction" and not 0 < value < 1:
                raise ConfigError(f"params.{name}: need a number in (0, 1), got {value!r}")
        if bool(polys_raw) != bool(entry["polys"]):  # after params, so their errors come first
            want = "need at least one expression" if entry["polys"] else f"read none, got {len(polys_raw)}"
            raise ConfigError(f"polys: {kind} sweeps {want}")

        seed = data.get("seed", 0)
        if not _is_int(seed) or not 0 <= seed < 2**64:
            raise ConfigError("seed: need an integer in [0, 2^64)")

        budgets = data.get("budgets", {})
        if not isinstance(budgets, dict):
            raise ConfigError("budgets: must be an object")
        _known_keys("budgets.", budgets, _BUDGETS)
        max_pairs = budgets.get("max_pairs", DEFAULT_MAX_PAIRS)
        if not _is_int(max_pairs) or max_pairs < 1:
            raise ConfigError("budgets.max_pairs: need a positive integer")
        ext_elements = budgets.get("ext_elements", EXT_ELEMENT_BUDGET)
        if not _is_int(ext_elements) or ext_elements < 2:
            raise ConfigError("budgets.ext_elements: need an integer >= 2")

        jobs = data.get("jobs", 1)
        if not _is_int(jobs) or jobs < 1:
            raise ConfigError("jobs: need a positive integer")

        return SweepConfig(
            kind,
            primes,
            orders,
            tuple(polys_raw),
            dict(params),
            seed,
            max_pairs,
            ext_elements,
            jobs,
        )

    @staticmethod
    def from_file(path: str) -> "SweepConfig":
        return SweepConfig.from_json(_read_json(path))


def _read_json(path: str):
    """The JSON document in the file at path, not yet validated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: invalid JSON: {e}") from None


@functools.lru_cache(maxsize=None)
def _prime(p: int) -> Prime:
    return make_prime(p)


@functools.lru_cache(maxsize=512)
def _subgroup(p: int, d: int) -> Subgroup:
    return subgroup_of_order(_prime(p), d)


def _orders_for(cfg: SweepConfig, p: int) -> list[int]:
    """The orders of p's subgroups that the config sweeps, ascending."""
    if cfg.orders == "all":
        picked = divisors(p - 1)
    elif cfg.orders[0] == "admitted_for_n":
        picked = [d for d in divisors(p - 1) if in_admitted_window(d, cfg.orders[1], p)]
    else:  # a sorted list, checked as from_json checks it
        picked = [d for d in cfg.orders if (p - 1) % d == 0]
    least = _KINDS[cfg.inequality]["min_order"]
    return [d for d in picked if d >= least]


def _rng(cfg: SweepConfig, *parts) -> random.Random:
    return random.Random("|".join([str(cfg.seed), *map(str, parts)]))


def _ints(values) -> str:
    return ",".join(map(str, values))


def _vm_units(cfg: SweepConfig, p: int, d: int, poly: str, alpha_count: int, alpha_sets: int):
    """alpha_sets sets of alpha_count levels in pairwise-distinct G-cosets,
    fewer if there are fewer cosets."""
    h = min(alpha_count, (p - 1) // d)
    for t in range(alpha_sets):
        rng = _rng(cfg, p, d, poly, "vm", t)
        alphas: dict[int, int] = {}  # the first v drawn with each coset key v^|G|
        while len(alphas) < h:
            v = rng.randrange(1, p)
            alphas.setdefault(pow(v, d, p), v)
        yield {"alphas": sorted(alphas.values())}


def _gv_units(cfg: SweepConfig, p: int, d: int, poly: str, mu_sample: int | None):
    """One unit with every shift, or with mu_sample sorted sampled ones."""
    if mu_sample is None:
        mus: Sequence[int] = range(1, p)
    else:
        mus = sorted(_rng(cfg, p, d, "mu").sample(range(1, p), min(mu_sample, p - 1)))
    yield {"mus": mus}


def _gv_share(unit: dict) -> list[int]:
    """Per shift mu its lhs = |G ∩ (G + mu)|, all a gv record reads of mu:
    the count of mu's coset key mu^|G| mod p in shift_histogram(G)."""
    p, d = unit["p"], unit["order"]
    counts = shift_histogram(_subgroup(p, d))
    return [counts.get(pow(mu, d, p), 0) for mu in unit["mus"]]


def _thmap_units(cfg: SweepConfig, p: int, d: int, poly: str, pair_count: int):
    """pair_count families x+lo, x+hi, each with its coefficient tuples, so
    no record parses its poly text."""
    for t in range(pair_count):
        rng = _rng(cfg, p, d, "thmap", t)
        a = rng.randrange(1, p)
        b = rng.randrange(1, p)
        while b == a:
            b = rng.randrange(1, p)
        lo, hi = sorted((a, b))
        reps = [rng.randrange(1, p), rng.randrange(1, p)]
        yield {"poly": f"x+{lo};x+{hi}", "fs": ((lo, 1), (hi, 1)), "coset_reps": reps}


def _probe_units(
    cfg: SweepConfig, p: int, d: int, poly: str,
    set_size: int, trials: int, delta: float, epsilon: float,
):
    G = _subgroup(p, d)
    k = max(2, min(set_size, d))
    for t in range(trials):
        rng = _rng(cfg, p, d, poly, "probe", t)
        A = sorted(rng.sample(G.elements, k))
        B = sorted(rng.sample(G.elements, k))
        yield {"A": A, "B": B, "delta": delta, "epsilon": epsilon}


def _kind(run, units=lambda cfg, p, d, poly: ({},), detail=lambda inst: "",
          fan=("", ""), share=lambda unit: ("",), params={}, draws="", polys="", min_order=1,
          prime_bits=64, command="verify", name="", flags=()) -> dict:
    """One entry of `_KINDS`: its arguments by name.

    units(cfg, p, d, poly, **params) yields the fields after (p, order,
    poly) of the units of one subgroup and poly ("" unless the kind reads
    polys; thmap sets its own).  run(inst, G, P) calls the kind's `bounds`
    function, P the parsed poly if the kind reads polys.  fan: the unit
    field with one value per record and the instance field each becomes;
    the default names none, so a unit is one record with the value "".
    share(unit) has per record what its line depends on apart from that.  params maps each
    param to its rule ("count": a positive integer, "fraction": in (0, 1))
    and default; draws names the count param that sets the units drawn per
    subgroup and poly, at most MAX_DRAWS (other counts are clipped by |G|).
    polys: "needed" if a config must list one, "required" if each must also
    be nonzero with no single-variable factor mod every prime.  `sumprod
    <command> <name or kind>` checks one instance with the options in flags,
    in this order.
    """
    return locals()


_KINDS = {
    "t2": _kind(
        run=lambda inst, G, P: verify_image_lower_bound(
            P, G, max_pairs=inst["max_pairs"], ext_budget=inst["ext_elements"]
        ),
        polys="needed", flags=("poly",),
    ),
    "vm": _kind(
        units=_vm_units,
        run=lambda inst, G, P: verify_level_pair_bound(
            P, G, value_set(G.prime, inst["alphas"]),
            max_pairs=inst["max_pairs"], ext_budget=inst["ext_elements"],
        ),
        detail=lambda inst: "alphas=" + _ints(inst["alphas"]),
        params={"alpha_count": ("count", 1), "alpha_sets": ("count", 1)}, draws="alpha_sets",
        polys="needed", flags=("poly", "alphas"),
    ),
    "gv": _kind(
        units=_gv_units,
        run=lambda inst, G, P: verify_shift_overlap_bound(G, inst["mu"]),
        detail=lambda inst: f"mu={inst['mu']}",
        fan=("mus", "mu"),
        share=_gv_share,
        params={"mu_sample": ("count", None)},  # None: every shift
        prime_bits=63,  # len(range(1, p)) is a C ssize_t
        flags=("mu",),
    ),
    "thmap": _kind(
        units=_thmap_units,
        run=lambda inst, G, P: verify_fiber_bound(
            [UniPoly(G.p, coeffs) for coeffs in inst["fs"]],
            [coset_of(r, G) for r in inst["coset_reps"]],
            G, max_pairs=inst["max_pairs"],
        ),
        detail=lambda inst: "cosets=" + _ints(inst["coset_reps"]),
        params={"pair_count": ("count", 1)}, draws="pair_count", flags=("fs", "cosets"),
    ),
    "growth": _kind(
        run=lambda inst, G, P: probe_growth(G, max_pairs=inst["max_pairs"]),
        min_order=2, command="probe",
    ),
    "probe": _kind(
        units=_probe_units,
        run=lambda inst, G, P: probe_factorization(
            P, value_set(G.prime, inst["A"]), value_set(G.prime, inst["B"]), G,
            ProbeConfig(inst["delta"], inst["epsilon"]), max_pairs=inst["max_pairs"],
        ),
        detail=lambda inst: f"A={_ints(inst['A'])};B={_ints(inst['B'])}",
        params={
            "set_size": ("count", 4), "trials": ("count", 1),
            "delta": ("fraction", 0.5), "epsilon": ("fraction", 0.25),
        }, draws="trials",
        polys="required", min_order=2, command="probe", name="factorization",
        flags=("poly", "A", "B", "delta", "epsilon"),
    ),
}
KINDS = tuple(_KINDS)


def _units(cfg: SweepConfig) -> list[dict]:
    """The config's work units in report order; each is picklable.

    Units carry the record's (p, order, poly), so sorting them here puts
    the records in the order the report needs (thmap trials, for one, are
    drawn in trial order but reported in shift-string order).
    """
    kind = cfg.inequality
    base = {
        "kind": kind, "seed": cfg.seed, "max_pairs": cfg.max_pairs, "ext_elements": cfg.ext_elements
    }
    entry = _KINDS[kind]
    params = {name: cfg.params.get(name, default) for name, (_, default) in entry["params"].items()}
    out = [
        {**base, "p": p, "order": d, "poly": poly, **fields}
        for p in cfg.primes
        for d in _orders_for(cfg, p)
        for poly in (cfg.polys if entry["polys"] else ("",))
        for fields in entry["units"](cfg, p, d, poly, **params)
    ]
    # generation order is already deterministic and numerically natural, so
    # the stable sort only needs the coarse key; ties keep their enumeration
    # order (e.g. vm's alpha sets stay in draw order)
    out.sort(key=lambda unit: (unit["p"], unit["order"], unit["poly"]))
    return out


# stands for the fan value in the detail of a shared record.  No field of
# any record can hold it: poly text passes the parser, which accepts only
# x y 0-9 + - * ^ ( ) and whitespace; detail holds integers; premise reasons
# are fixed strings or budget messages.  Neither JSON nor CSV escapes or quotes it.
_MU = "<mu>"


def _fills(unit: dict) -> Sequence:
    """One entry per record of a unit, put where _MU stands: the values in
    its fan field, or "" for the one record of a unit without one."""
    return unit.get(_KINDS[unit["kind"]]["fan"][0], ("",))


def _at(unit: dict, fill) -> dict:
    """The instance of a unit's record at fill: the unit without its fan
    field and with fill in the instance field (a copy if it has none)."""
    over, each = _KINDS[unit["kind"]]["fan"]
    return {k: v for k, v in {**unit, each: fill}.items() if k != over}


def _expand(unit: dict) -> list[dict]:
    """A unit's instances, one per record."""
    return [_at(unit, fill) for fill in _fills(unit)]


def generate_instances(cfg: SweepConfig) -> list[dict]:
    """The full deterministic worklist in report order, one instance per
    record; each entry is picklable.  Sweeps run the units it expands."""
    return [inst for unit in _units(cfg) for inst in _expand(unit)]


def _base_record(inst: dict) -> dict:
    G = _subgroup(inst["p"], inst["order"])
    return {
        "schema": SCHEMA_VERSION,
        "kind": inst["kind"],
        "p": inst["p"],
        "order": inst["order"],
        "generator": G.generator,
        "poly": inst["poly"],
        "detail": _KINDS[inst["kind"]]["detail"](inst),
        "premise_ok": False,
        "premise_reason": "",
        "lhs": 0,
        "rhs": 0.0,
        "holds": None,
        "borderline": False,
        "ratio": 0.0,
        "extra": {},
        "seed": inst["seed"],
    }


def evaluate(inst: dict) -> Verdict | GrowthReport | FactorizationProbe:
    """Check one instance with its kind's runner.

    This is the only place an instance meets those functions: sweep records
    and `sumprod verify`/`probe` both come from its result.  BudgetExceeded
    propagates; run_instance turns it into a `budget:` record.
    """
    entry = _KINDS[inst["kind"]]
    G = _subgroup(inst["p"], inst["order"])
    return entry["run"](inst, G, parse_bipoly(inst["poly"], G.prime) if entry["polys"] else None)


_VERDICT_FIELDS = fields(Verdict)[1:]
# the fields of a growth or probe result that go into its record's "extra"
_EXTRA_FIELDS = {
    cls: tuple(name for name in fields(cls) if name not in ("p", "order"))
    for cls in (GrowthReport, FactorizationProbe)
}


def _outcome(inst: dict):
    """evaluate(inst), or the BudgetExceeded it raised."""
    try:
        return evaluate(inst)
    except BudgetExceeded as e:
        return e


def _fill(rec: dict, r) -> dict:
    """rec with the fields of an _outcome filled in; budget overruns become
    per-record errors."""
    if isinstance(r, BudgetExceeded):
        rec["premise_reason"] = f"budget: {r}"
        rec["extra"] = {"error": "budget"}
    elif isinstance(r, Verdict):  # every field but the kind
        rec.update({name: getattr(r, name) for name in _VERDICT_FIELDS})
    else:  # growth and probe report ratios only
        rec["premise_ok"] = True
        rec["extra"] = {name: getattr(r, name) for name in _EXTRA_FIELDS[type(r)]}
    return rec


def run_instance(inst: dict) -> dict:
    """Verify one instance and return its flat record (top-level so process
    pools can pickle it).  Budget overruns become per-record errors."""
    return _fill(_base_record(inst), _outcome(inst))


def _shared(unit: dict, fmt: str) -> tuple[list, array]:
    """A unit's distinct report lines, each as _split_line(fmt, record)
    gives it, and per fill the index of its own.

    Each distinct share value is evaluated and rendered once, at the first
    fill that has it, with _MU in the fill's place; a one-record unit gives
    its one line and the index 0.  The indices take one byte each while
    there are at most 256 lines, as there almost always are.
    """
    fills, shares = _fills(unit), _KINDS[unit["kind"]]["share"](unit)
    index = dict.fromkeys(shares)  # share -> its line, in order of appearance
    lines: list = []
    for value in index:
        index[value] = len(lines)
        rec = _fill(_base_record(_at(unit, _MU)), _outcome(_at(unit, fills[shares.index(value)])))
        lines.append(_split_line(fmt, rec))
    return lines, array("B" if len(lines) <= 256 else "L", map(index.__getitem__, shares))


def _blocks(units: list[dict], size: int) -> list[list[dict]]:
    """The units cut into blocks of `size` records (the last may be short);
    a unit whose fan field crosses a block boundary is split there."""
    blocks: list[list[dict]] = []
    room = 0
    for unit in units:
        over, n, done = _KINDS[unit["kind"]]["fan"][0], len(_fills(unit)), 0
        while done < n:
            if room == 0:
                blocks.append([])
                room = size
            take = min(room, n - done)
            blocks[-1].append(unit if take == n else {**unit, over: unit[over][done : done + take]})
            done += take
            room -= take
    return blocks


def _run_block(fmt: str, units: list[dict]) -> list[tuple[list, array]]:
    """_shared(unit, fmt) for each unit of a block: all a worker sends back."""
    return [_shared(unit, fmt) for unit in units]


@contextlib.contextmanager
def _block_results(fmt: str, cfg: SweepConfig, jobs: int | None) -> Iterator[Iterator]:
    """(unit, _shared(unit, fmt)) for every sorted work unit, in report order.

    The units are generated on entry, so a config that cannot be enumerated
    fails before the caller opens any output.  They run in contiguous blocks
    that all hold the same number of records but the last, so a sweep
    balances as if each record were its own unit, and no result carries a
    unit's fills back.  The pool starts no more workers than there are
    blocks or CPUs this process may run on, and each worker gets about eight
    blocks; with one worker the blocks run in this process.  A worker that
    dies is a WorkbenchError.  Leaving the context early cancels the blocks
    not yet started.
    """
    if jobs is not None and not (_is_int(jobs) and jobs >= 1):
        raise ConfigError(f"jobs: need a positive integer, got {jobs!r}")
    units = _units(cfg)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(cfg.jobs if jobs is None else jobs, cpus)
    size = max(1, sum(len(_fills(u)) for u in units) // (workers * 8))
    blocks = _blocks(units, size)
    workers = min(workers, len(blocks))
    fn = functools.partial(_run_block, fmt)
    if workers <= 1:
        yield (pair for block in blocks for pair in zip(block, fn(block)))
        return
    # imported here: a serial sweep never pays for the pool machinery
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = pool.map(fn, blocks)
        try:
            yield (pair for block, shared in zip(blocks, results) for pair in zip(block, shared))
        except BrokenProcessPool:
            raise WorkbenchError("a sweep worker died before its blocks were done") from None
        finally:
            results.close()


def _split_line(fmt: str, rec: dict) -> tuple[str, str, int]:
    """A record's report line split at _MU (all head if it has none), and
    its violation count."""
    head, _, tail = render_report([rec], fmt, header=False).partition(_MU)
    return head, tail, count_violations([rec])


def _splice(unit: dict, lines: list, picks: array) -> tuple[str, int]:
    """A unit's report text and violation count from its _shared(unit, fmt):
    the one place a unit's fills go into its records."""
    heads = [head for head, _, _ in lines]
    tails = [tail for _, tail, _ in lines]
    text = "".join([f"{heads[i]}{fill}{tails[i]}" for fill, i in zip(_fills(unit), picks)])
    return text, sum(bad * picks.count(i) for i, (_, _, bad) in enumerate(lines) if bad)


def run_sweep(cfg: SweepConfig, jobs: int | None = None) -> list[dict]:
    """All records for the config in report order: the jsonl lines that
    write_sweep writes, spliced the same way and read back with json.loads.

    The worker count changes scheduling only; unit generation and every
    sampled value happen before fan-out, so the records are identical for
    any value of jobs.
    """
    with _block_results("jsonl", cfg, jobs) as results:
        return [
            json.loads(line)
            for unit, shared in results
            for line in _splice(unit, *shared)[0].splitlines()
        ]


def count_violations(records: Iterable[dict]) -> int:
    """Premise-met records where the inequality failed (a counterexample)."""
    return sum(1 for r in records if r["premise_ok"] and r["holds"] is False)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return _JSON.encode(value)
    return str(value)


def render_report(records: Sequence[dict], fmt: str, *, header: bool = True) -> str:
    """Serialize records to one deterministic string (jsonl or csv).

    header=False leaves out the CSV header line, for the blocks of a report
    after its first.
    """
    if fmt == "jsonl":
        encode = _JSON.encode
        return "".join(f"{encode(r)}\n" for r in records)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if header:
            writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([_csv_cell(rec[col]) for col in CSV_COLUMNS])
        return buf.getvalue()
    raise ConfigError(f"format: unknown {fmt!r} (expected jsonl or csv)")


def _open_report(path: str):
    """A writable text stream for path; '-' is stdout, which stays open."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def emit_report(records: Sequence[dict], fmt: str, path: str) -> None:
    """Write the rendered report; '-' streams to stdout."""
    text = render_report(records, fmt)
    with _open_report(path) as out:
        out.write(text)


def write_sweep(cfg: SweepConfig, fmt: str, path: str, jobs: int | None = None) -> int:
    """Run the sweep and write its report block by block; returns the number
    of premise-met violations.

    Each block runs in its worker and comes back as _shared's split lines
    and indices; each unit is spliced and written here in order after one
    header, so run_sweep's records are this report's lines, while the
    parent holds at most the lines of the blocks not yet written.  The
    output is opened only after the config's instances have been generated.
    If a block raises, a file this call created is removed again; an
    interrupted run keeps the blocks already written, each complete.
    """
    head = render_report([], fmt)  # the CSV header; empty for jsonl
    with _block_results(fmt, cfg, jobs) as results:
        created = path != "-" and not os.path.lexists(path)
        violations = 0
        try:
            with _open_report(path) as out:
                out.write(head)
                for unit, shared in results:
                    text, bad = _splice(unit, *shared)
                    out.write(text)
                    violations += bad
        except Exception:
            if created:
                os.remove(path)
            raise
    return violations
