import csv
import glob
import io
import json
import os
import pickle
import re
import subprocess
import sys
import time
from array import array
from fractions import Fraction

import pytest

from sumprod import cli, poly, sweep
from sumprod.bounds import Verdict
from sumprod.cli import main
from sumprod.errors import BudgetExceeded, ConfigError, WorkbenchError
from sumprod.field import divisors, make_prime
from sumprod.setops import shift_intersection
from sumprod.subgroup import coset_of, in_admitted_window, subgroup_of_order
from sumprod.sweep import (
    CSV_COLUMNS,
    KINDS,
    SweepConfig,
    count_violations,
    emit_report,
    generate_instances,
    render_report,
    run_instance,
    run_sweep,
    write_sweep,
)

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
CONFIG_DIR = os.path.join(ROOT, "scripts", "configs")
SCRIPT_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def gv_config(**over):
    base = dict(inequality="gv", primes=[5, 7, 13], orders="all", seed=1)
    base.update(over)
    return SweepConfig.from_json(base)


# --- config validation -----------------------------------------------------


def test_config_rejects_bad_prime():
    with pytest.raises(ConfigError) as exc:
        SweepConfig.from_json({"inequality": "gv", "primes": [4], "seed": 1})
    assert "primes[0]" in str(exc.value)


def test_config_rejects_bad_poly():
    with pytest.raises(ConfigError) as exc:
        SweepConfig.from_json(
            {"inequality": "t2", "primes": [13], "polys": ["x++y"], "seed": 1}
        )
    assert "x++y" in str(exc.value)


def test_config_rejects_unknown_inequality():
    with pytest.raises(ConfigError):
        SweepConfig.from_json({"inequality": "t9", "primes": [13], "seed": 1})


def test_config_rejects_empty_primes():
    with pytest.raises(ConfigError):
        SweepConfig.from_json({"inequality": "gv", "primes": [], "seed": 1})


@pytest.mark.parametrize(
    "kind, params, where",
    [
        ("probe", {"delta": 2}, "params.delta"),
        ("probe", {"epsilon": 0}, "params.epsilon"),
        ("probe", {"delta": "0.5"}, "params.delta"),
        ("probe", {"trials": 0}, "params.trials"),
        ("probe", {"set_size": 2.5}, "params.set_size"),
        ("vm", {"alpha_count": True}, "params.alpha_count"),
        ("vm", {"alpha_sets": -1}, "params.alpha_sets"),
        ("vm", {"pair_count": 2}, "params.pair_count"),
        ("gv", {"mu_sample": "3"}, "params.mu_sample"),
        ("thmap", {"pair_count": 1.0}, "params.pair_count"),
        ("t2", {"alpha_count": 1}, "params.alpha_count"),
        ("growth", {"typo": 1}, "params.typo"),
    ],
)
def test_config_rejects_bad_params(kind, params, where):
    doc = {"inequality": kind, "primes": [13], "polys": ["x+y"], "params": params}
    with pytest.raises(ConfigError) as exc:
        SweepConfig.from_json(doc)
    assert str(exc.value).startswith(where)


@pytest.mark.parametrize("kind", ["gv", "thmap", "growth"])
def test_config_rejects_polys_on_kinds_that_read_none(kind):
    # they used to load and drop the polys; an empty list still loads
    doc = {"inequality": kind, "primes": [13], "orders": [3], "polys": ["x+y", "x^2"]}
    with pytest.raises(ConfigError) as exc:
        SweepConfig.from_json(doc)
    assert str(exc.value) == f"polys: {kind} sweeps read none, got 2"
    assert SweepConfig.from_json({**doc, "polys": []}).polys == ()


@pytest.mark.parametrize(
    "over, where",
    [
        ({"seed": True}, "seed"),
        ({"seed": 1.0}, "seed"),
        ({"seed": "1"}, "seed"),
        ({"jobs": True}, "jobs"),
        ({"jobs": 2.0}, "jobs"),
        ({"orders": [True]}, "orders[0]"),
        ({"orders": [2, 3.0]}, "orders[1]"),
        ({"orders": ["2"]}, "orders[0]"),
        ({"orders": {"admitted_for_n": True}}, "orders.admitted_for_n"),
        ({"orders": {"admitted_for_n": 2.0}}, "orders.admitted_for_n"),
        ({"budgets": {"max_pairs": True}}, "budgets.max_pairs"),
        ({"budgets": {"max_pairs": 1e6}}, "budgets.max_pairs"),
        ({"budgets": {"ext_elements": True}}, "budgets.ext_elements"),
        ({"budgets": {"ext_elements": "100"}}, "budgets.ext_elements"),
        ({"primes": [True]}, "primes[0]"),
        ({"primes": [5.0]}, "primes[0]"),
        ({"primes": {"start": 3.9, "stop": 7}}, "primes"),
        ({"primes": {"start": 3, "stop": "7"}}, "primes"),
        ({"primes": {"start": True, "stop": 7}}, "primes"),
        ({"primes": {"start": 3}}, "primes"),
        ({"sed": 2}, "sed"),
        ({"job": 2}, "job"),
        ({"param": {"mu_sample": 3}}, "param"),
        ({"budgets": {"max_pair": 1}}, "budgets.max_pair"),
        ({"budgets": {"ext_element": 100}}, "budgets.ext_element"),
        ({"primes": {"start": 3, "stop": 10**12}}, "primes"),
        ({"orders": [3]}, "orders"),
    ],
)
def test_config_rejects_non_integers(over, where):
    doc = {"inequality": "gv", "primes": [5], "orders": "all", "seed": 1}
    doc.update(over)
    with pytest.raises(ConfigError) as exc:
        SweepConfig.from_json(doc)
    assert str(exc.value).startswith(f"{where}:")


@pytest.mark.parametrize(
    "doc, want",
    [
        ({"inequality": "t2", "primes": [101], "orders": [7], "polys": ["x+y"]},
         "orders: no listed d >= 1 divides p - 1 of a listed prime"),
        ({"inequality": "growth", "primes": [101], "orders": [1]},
         "orders: no listed d >= 2 divides p - 1 of a listed prime"),
        ({"inequality": "t2", "primes": {"start": 3, "stop": 10**12}, "polys": ["x+y"]},
         f"primes: need stop - start <= {sweep.MAX_PRIME_SPAN}, got {10**12 - 3}"),
    ],
)
def test_cli_configs_with_nothing_to_sweep_exit_1_fast(tmp_path, capsys, doc, want):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out_path = tmp_path / "out.csv"
    t0 = time.monotonic()
    rc = main(["sweep", "--config", str(cfg_path), "--format", "csv", "--out", str(out_path)])
    assert rc == 1 and time.monotonic() - t0 < 1
    assert want in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "doc",
    [
        {"inequality": "thmap", "primes": [97], "orders": [16], "params": {"pair_count": 10**8}},
        {"inequality": "vm", "primes": [13], "polys": ["x+y"], "params": {"alpha_sets": 10**9}},
        {"inequality": "probe", "primes": [13], "polys": ["x+y"], "params": {"trials": 10**4 + 1}},
    ],
)
def test_cli_rejects_draw_counts_past_the_cap(tmp_path, capsys, doc):
    # pair_count 10**8 used to load and then die in a bare MemoryError; the
    # cap is at least 100 times what any sample, test or benchmark draws
    (name, value), = doc["params"].items()
    assert sweep.MAX_DRAWS >= 100 * 25
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out_path = tmp_path / "out.jsonl"
    t0 = time.monotonic()
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(out_path)])
    assert rc == 1 and time.monotonic() - t0 < 1
    assert f"params.{name}: need at most {sweep.MAX_DRAWS}, got {value}" in capsys.readouterr().err
    assert not out_path.exists()
    doc["params"][name] = sweep.MAX_DRAWS
    assert SweepConfig.from_json(doc).params[name] == sweep.MAX_DRAWS


def test_listed_orders_load_when_one_divides_some_p_minus_1():
    doc = {"inequality": "growth", "primes": [13, 101], "orders": [1, 7, 25]}
    cfg = SweepConfig.from_json(doc)  # 25 | 100
    assert [(i["p"], i["order"]) for i in generate_instances(cfg)] == [(101, 25)]
    wide = {"inequality": "gv", "primes": {"start": 3, "stop": 3 + sweep.MAX_PRIME_SPAN}}
    assert SweepConfig.from_json(wide).primes[-1] == 100003


def test_config_names_the_unknown_key_and_the_known_ones():
    known = "budgets, inequality, jobs, orders, params, polys, primes, seed"
    with pytest.raises(ConfigError) as exc:
        SweepConfig.from_json({"inequality": "gv", "primes": [13], "sed": 2})
    assert str(exc.value) == f"sed: unknown key (known: {known})"
    with pytest.raises(ConfigError) as exc:
        SweepConfig.from_json({"inequality": "gv", "primes": [13], "budgets": {"max_pair": 1}})
    assert str(exc.value) == "budgets.max_pair: unknown key (known: ext_elements, max_pairs)"


@pytest.mark.parametrize("jobs", [True, 2.0])
def test_sweep_rejects_non_integer_jobs(tmp_path, jobs):
    with pytest.raises(ConfigError) as exc:
        run_sweep(gv_config(), jobs=jobs)
    assert str(exc.value) == f"jobs: need a positive integer, got {jobs!r}"
    out = tmp_path / "out.jsonl"
    with pytest.raises(ConfigError):
        write_sweep(gv_config(), "jsonl", str(out), jobs=jobs)
    assert not out.exists()


def test_config_accepts_good_params():
    cfg = SweepConfig.from_json({
        "inequality": "probe", "primes": [13], "polys": ["x+y"],
        "params": {"delta": 0.25, "epsilon": 0.5, "set_size": 3, "trials": 2},
    })
    assert len(generate_instances(cfg)) == 2 * 5  # orders 2, 3, 4, 6, 12


def test_sample_configs_load():
    paths = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json")))
    assert len(paths) == 4
    for path in paths:
        SweepConfig.from_file(path)


def test_config_admitted_order_filter():
    cfg = SweepConfig.from_json(
        {
            "inequality": "t2",
            "primes": [91813] if False else [13],
            "orders": {"admitted_for_n": 1},
            "polys": ["x+y"],
            "seed": 3,
        }
    )
    assert generate_instances(cfg) == []  # no admitted subgroup at p=13


# --- sweep behavior ----------------------------------------------------------


def test_gv_sweep_all_hold():
    records = run_sweep(gv_config())
    assert records
    met = [r for r in records if r["premise_ok"]]
    assert met and all(r["holds"] for r in met)
    assert count_violations(records) == 0


def test_t2_sweep_p13_all_premise_not_met():
    cfg = SweepConfig.from_json(
        {"inequality": "t2", "primes": [13], "polys": ["x+y"], "seed": 1}
    )
    records = run_sweep(cfg)
    assert records
    assert all(not r["premise_ok"] for r in records)
    assert count_violations(records) == 0


def test_records_sorted_and_tagged():
    records = run_sweep(gv_config())
    keys = [(r["p"], r["order"], r["poly"]) for r in records]
    assert keys == sorted(keys)
    assert all(r["schema"] == 1 for r in records)
    assert all(r["seed"] == 1 for r in records)
    assert all(r["kind"] == "gv" for r in records)


def test_generate_instances_deterministic():
    cfg = SweepConfig.from_json(
        {
            "inequality": "vm",
            "primes": [13, 31],
            "orders": "all",
            "polys": ["x+y"],
            "params": {"alpha_count": 2, "alpha_sets": 3},
            "seed": 77,
        }
    )
    a = generate_instances(cfg)
    b = generate_instances(cfg)
    assert a == b
    c = generate_instances(SweepConfig.from_json(
        {
            "inequality": "vm",
            "primes": [13, 31],
            "orders": "all",
            "polys": ["x+y"],
            "params": {"alpha_count": 2, "alpha_sets": 3},
            "seed": 78,
        }
    ))
    assert a != c


def test_vm_alphas_in_distinct_cosets():
    cfg = SweepConfig.from_json({
        "inequality": "vm", "primes": [13, 31, 61], "orders": "all", "polys": ["x+y"],
        "params": {"alpha_count": 4, "alpha_sets": 3}, "seed": 5,
    })
    for inst in generate_instances(cfg):
        p, d = inst["p"], inst["order"]
        G = subgroup_of_order(make_prime(p), d)
        reps = [coset_of(v, G).representative for v in inst["alphas"]]
        assert len(inst["alphas"]) == min(4, (p - 1) // d)
        assert len(set(reps)) == len(reps), inst


def test_budget_records_keep_their_messages():
    # |G|^2 = 144 > 100 at order 12; the homogeneous forms are counted in O(|G|)
    # work but still answer to the pair budget, with the same messages
    want = {
        "t2": "budget: |A|*|B| = 144 exceeds budget 100",
        "vm": "budget: |G|^2 = 144 exceeds budget 100",
        "growth": "budget: |G|^2 = 144 exceeds budget 100",
    }
    for kind, reason in want.items():
        cfg = SweepConfig.from_json({
            "inequality": kind, "primes": [13], "orders": [3, 12],
            "polys": ["x+y", "x*y+1"] if kind != "growth" else [],
            "budgets": {"max_pairs": 100},
        })
        records = run_sweep(cfg)
        over = [r for r in records if r["order"] == 12]
        assert over and all(r["premise_reason"] == reason for r in over)
        assert all(r["extra"] == {"error": "budget"} and r["lhs"] == 0 for r in over)
        assert all(not r["premise_reason"].startswith("budget") for r in records if r["order"] == 3)


def test_import_leaves_the_process_pool_out():
    code = "import sys, sumprod, sumprod.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


_RECORD_PROBE = """
import json, sys
import sumprod, sumprod.cli
def heavy():
    return sorted({"dataclasses", "inspect"} & set(sys.modules))
seen = [heavy()]
for argv in json.loads(sys.argv[1]):
    assert sumprod.cli.main(argv) == 0, argv
    seen.append(heavy())
print(json.dumps(seen))
"""


def test_import_and_sweeps_leave_dataclasses_and_inspect_out(tmp_path):
    """Records are built without `dataclasses`, so neither it nor the
    `inspect` it pulls in is loaded by the import, by a gv, t2, vm, growth
    or thmap sweep, or by check-good."""
    configs = [os.path.join(CONFIG_DIR, f"{name}.json")
               for name in ("gv_small", "growth_probe", "vm_sampled", "thmap_window")]
    t2_path = tmp_path / "t2.json"
    t2_path.write_text(json.dumps({
        "inequality": "t2", "primes": [92921], "orders": [4, 101], "polys": ["x+y"], "seed": 1,
    }))
    configs.append(str(t2_path))
    out = str(tmp_path / "report.jsonl")
    argvs = [["sweep", "--config", c, "--out", out, "--jobs", "1"] for c in configs]
    argvs.append(["check-good", "--p", "3", "--poly", "x^3+x*y^2+2*y^3"])
    run = subprocess.run([sys.executable, "-c", _RECORD_PROBE, json.dumps(argvs)],
                         capture_output=True, text=True, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == [[]] * 7


_FRACTIONS_PROBE = """
import json, sys
import sumprod, sumprod.cli
from sumprod.poly import BiPoly, abs_irreducible_shift, factor_oracle, is_good
def heavy():
    return sorted({"fractions", "decimal"} & set(sys.modules))
seen = [heavy()]
configs, t2_config, out = json.loads(sys.argv[1])
for cfg in configs:
    assert sumprod.cli.main(["sweep", "--config", cfg, "--out", out, "--jobs", "1"]) == 0, cfg
    seen.append(heavy())
for vec in ((1, 0, 0, 1), (1, 2, 1, 0), (0, 1, 1, 0), (2, 0, 1, 3)):
    h = BiPoly(5, {(3 - j, j): c for j, c in enumerate(vec)})
    is_good(h)
    abs_irreducible_shift(h, 1)
    for alpha in range(1, 5):
        factor_oracle(h.shift_const(alpha), 3)
seen.append(heavy())
assert sumprod.cli.main(["sweep", "--config", t2_config, "--out", out, "--jobs", "1"]) == 0
seen.append(heavy())
print(json.dumps(seen))
"""


def test_import_gv_thmap_and_the_oracle_leave_fractions_out(tmp_path):
    """`fractions` (which loads `decimal`) is imported only where a Fraction
    is built: the import, gv and thmap sweeps and the irreducibility checks
    never load it.  A t2 sweep, last, does, so the probe is live, and its
    verdicts are still the exact decision lhs^2 > c^2 |G|^3."""
    configs = [os.path.join(CONFIG_DIR, f"{name}.json") for name in ("gv_small", "thmap_window")]
    t2_path = tmp_path / "t2.json"
    t2_path.write_text(json.dumps({
        "inequality": "t2", "primes": [92921], "orders": [4, 101], "polys": ["x+y", "x^2+y^2"],
        "seed": 1,
    }))
    out = tmp_path / "report.jsonl"
    run = subprocess.run(
        [sys.executable, "-c", _FRACTIONS_PROBE, json.dumps([configs, str(t2_path), str(out)])],
        capture_output=True, text=True, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == [[]] * 4 + [["decimal", "fractions"]]
    records = [json.loads(line) for line in out.read_text().splitlines()]
    met = [r for r in records if r["premise_ok"]]
    assert met
    for r in met:
        n = {"x+y": 1, "x^2+y^2": 2}[r["poly"]]
        base = Fraction(100 * n**2 - 1, 100 * n**2 * 24 * n**4)
        c_sq = min(base**3, Fraction(1, 40**3 * n**9) ** 2)
        assert r["holds"] is (r["lhs"] ** 2 > c_sq * r["order"] ** 3)


_NUMPY_PROBE = """
import json, sys
import sumprod, sumprod.cli
seen = ["numpy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    assert sumprod.cli.main(argv) == 0, argv
    seen.append("numpy" in sys.modules)
print(json.dumps(seen))
"""


# thmap at the largest prime below 2^32 and a prime above it, where the
# F_p scan would cover 4.3e9 points per record
THMAP_ABOVE_2_31 = {
    "inequality": "thmap", "primes": [4294967291, 4294967311], "orders": [190, 11790],
    "params": {"pair_count": 3}, "seed": 5,
}


def test_gv_homogeneous_and_thmap_sweeps_leave_numpy_out(tmp_path):
    """The import, gv sweeps, the homogeneous-form t2/vm/growth sweeps and
    thmap sweeps run on Python ints and never load numpy; a non-homogeneous
    t2 sweep, last, does, so the probe is live.  t2 and thmap run at a prime
    below 2^32 and one above."""
    configs = [os.path.join(CONFIG_DIR, f"{name}.json")
               for name in ("gv_small", "growth_probe", "vm_sampled", "thmap_window")]
    thmap_path = tmp_path / "thmap.json"
    thmap_path.write_text(json.dumps(THMAP_ABOVE_2_31))
    configs.append(str(thmap_path))
    for i, polys in enumerate((["x+y", "x^2+y^2"], ["x*y+x+y"])):
        path = tmp_path / f"t2-{i}.json"
        path.write_text(json.dumps({
            "inequality": "t2", "primes": [92921, 4294967311], "orders": [4, 101, 131],
            "polys": polys, "seed": 1,
        }))
        configs.append(str(path))
    out = str(tmp_path / "report.jsonl")
    argvs = [["sweep", "--config", c, "--out", out, "--jobs", "1"] for c in configs]
    run = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, json.dumps(argvs)],
                         capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == [False] * 7 + [True]


_ORACLE_NUMPY_PROBE = """
import itertools, json, sys
import sumprod.cli
from sumprod.poly import BiPoly, abs_irreducible_shift, factor_oracle, is_good, parse_bipoly
seen = []
assert sumprod.cli.main(["check-good", "--p", "3", "--poly", "x^3+x*y^2+2*y^3"]) == 0
seen.append("numpy" in sys.modules)
assert factor_oracle(parse_bipoly("x^4+y^4-1", 3), 2) is False
seen.append("numpy" in sys.modules)
for p, degrees in ((5, (1, 2, 3)), (7, (1, 2))):
    for n in degrees:
        for vec in itertools.product(range(p), repeat=n + 1):
            h = BiPoly(p, {(n - j, j): c for j, c in enumerate(vec)})
            if h.is_zero():
                continue
            is_good(h)
            abs_irreducible_shift(h, 1)
            for alpha in range(1, p):
                factor_oracle(h.shift_const(alpha), 3)
seen.append("numpy" in sys.modules)
assert sumprod.cli.main(["sweep", "--config", sys.argv[1], "--out", sys.argv[2], "--jobs", "1"]) == 0
seen.append("numpy" in sys.modules)
print(json.dumps(seen))
"""


def test_irreducibility_route_leaves_numpy_out(tmp_path):
    """check-good on a cubic at p = 3 (routed to the factor search), the
    Fermat quartic over F_9 and the degree 1-3 census over F_5 and F_7 with
    d_max 3 never load numpy; a non-homogeneous t2 sweep, last, does, so the
    probe is live."""
    config = tmp_path / "t2.json"
    config.write_text(json.dumps({
        "inequality": "t2", "primes": [92921, 4294967311], "orders": [4, 101, 131],
        "polys": ["x*y+x+y"], "seed": 1,
    }))
    run = subprocess.run(
        [sys.executable, "-c", _ORACLE_NUMPY_PROBE, str(config), str(tmp_path / "report.jsonl")],
        capture_output=True, text=True, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == [False, False, False, True]


def test_thmap_sweep_above_2_31_runs_in_seconds(tmp_path):
    cfg_path = tmp_path / "thmap.json"
    cfg_path.write_text(json.dumps(THMAP_ABOVE_2_31))
    reports = []
    for jobs in (1, 2):
        out = tmp_path / f"out-{jobs}.jsonl"
        t0 = time.monotonic()
        rc = main(["sweep", "--config", str(cfg_path), "--out", str(out), "--jobs", str(jobs)])
        assert rc == 0 and time.monotonic() - t0 < 10
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    records = [json.loads(line) for line in reports[0].splitlines()]
    assert [(r["p"], r["order"]) for r in records] == [(4294967291, 190)] * 3 + [
        (4294967311, 11790)
    ] * 3
    assert all(r["premise_ok"] and r["holds"] for r in records)


def test_nonlinear_thmap_over_budget_is_a_budget_record():
    inst = {
        "kind": "thmap", "seed": 1, "max_pairs": 10**6, "ext_elements": 10**6,
        "p": 4294967311, "order": 11790, "poly": "x^2+3;x^2+7",
        "fs": ((3, 0, 1), (7, 0, 1)), "coset_reps": [5, 9],
    }
    rec = run_instance(inst)
    assert rec["premise_reason"] == "budget: scan of 4294967311 points exceeds budget 1000000"
    assert rec["premise_ok"] is False and rec["holds"] is None


# --- report emission ----------------------------------------------------------


def test_empty_reports(tmp_path):
    j = tmp_path / "empty.jsonl"
    emit_report([], "jsonl", str(j))
    assert j.read_bytes() == b""
    c = tmp_path / "empty.csv"
    emit_report([], "csv", str(c))
    lines = c.read_text().splitlines()
    assert lines == [",".join(CSV_COLUMNS)]


def test_report_bytes_reproducible(tmp_path):
    cfg = gv_config()
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    emit_report(run_sweep(cfg), "jsonl", str(p1))
    emit_report(run_sweep(cfg), "jsonl", str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().count(b"\n") == len(run_sweep(cfg))


def test_jsonl_keys_sorted():
    records = run_sweep(gv_config(primes=[5]))
    line = render_report(records, "jsonl").splitlines()[0]
    obj = json.loads(line)
    assert list(obj) == sorted(obj)


def test_csv_columns_fixed():
    records = run_sweep(gv_config(primes=[5]))
    lines = render_report(records, "csv").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(CSV_COLUMNS) == 16
    assert all(len(line.split(",")) >= 16 for line in lines[1:])


def test_jobs_do_not_change_bytes():
    cfg = gv_config(primes=[5, 7, 13, 31])
    seq = render_report(run_sweep(cfg, jobs=1), "jsonl")
    par = render_report(run_sweep(cfg, jobs=4), "jsonl")
    assert seq == par


# --- CLI ----------------------------------------------------------------------


def test_cli_subgroups(capsys):
    assert main(["subgroups", "--p", "13"]) == 0
    out = capsys.readouterr().out
    assert "elements=1,3,9" in out
    assert "order=12" in out


def test_cli_subgroups_json(capsys):
    assert main(["subgroups", "--p", "13", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [g["order"] for g in data["subgroups"]] == [1, 2, 3, 4, 6, 12]
    assert data["subgroups"][2]["elements"] == [1, 3, 9]


def test_cli_check_good(capsys):
    assert main(["check-good", "--p", "13", "--poly", "x+y"]) == 0
    assert main(["check-good", "--p", "13", "--poly", "(x+y)^2"]) == 0
    out = capsys.readouterr().out
    assert "reducible-shift" in out


def test_cli_check_required_json(capsys):
    assert main(["check-required", "--p", "13", "--poly", "x*y+x", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["required"] is False


def test_cli_image(capsys):
    assert main(["image", "--p", "13", "--poly", "x+y", "--order", "3"]) == 0
    out = capsys.readouterr().out
    assert "2" in out and "12" in out


def test_cli_image_explicit_sets(capsys):
    rc = main(["image", "--p", "13", "--poly", "x*y", "--A", "1,2", "--B", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "3" in out and "6" in out


def test_cli_intersect_shift(capsys):
    assert main(["intersect-shift", "--p", "13", "--order", "3", "--mu", "1"]) == 0
    assert "0" in capsys.readouterr().out


def test_cli_verify_exit_codes(capsys):
    assert main(["verify", "gv", "--p", "13", "--order", "3", "--mu", "1"]) == 0
    capsys.readouterr()
    # premise unmet is not a violation: still exit 0
    assert main(["verify", "t2", "--p", "13", "--order", "3", "--poly", "x+y"]) == 0
    capsys.readouterr()


def test_cli_verify_json(capsys):
    rc = main(
        ["verify", "gv", "--p", "13", "--order", "3", "--mu", "1", "--format", "json"]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["inequality"] == "gv"
    assert data["lhs"] == 0 and data["holds"] is True


def test_cli_verify_thmap(capsys):
    rc = main(
        [
            "verify", "thmap", "--p", "13", "--order", "3",
            "--fs", "x+1;x+12", "--cosets", "1,1", "--format", "json",
        ]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["premise"].startswith("not-met")


def test_cli_verify_thmap_c1_bound_is_strict(capsys):
    # c1 = 2^(2n) * max(m)^(4n) = 16 for two linear fs: |G| = 16 at p = 97
    # sits on c1 < |G|, |G| = 17 at p = 137 is past it and inside the upper
    # window (17^5 * 3^4 < 137^4)
    for p, order, premise in ((97, 16, "not-met(subgroup-too-small)"), (137, 17, "met")):
        argv = ["verify", "thmap", "--p", str(p), "--order", str(order),
                "--fs", "x+1;x+5", "--cosets", "1,1", "--format", "json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["premise"] == premise, p


def test_cli_verify_gv_size_window(capsys):
    # |G|^4 (p-1) < s^4 with s = p - 1 - |G|: s = 6 |G| at both, so the
    # clause reads (p-1)/1296 < 1, 0.9938 at p = 1289 and 1.0046 at p = 1303
    for p, order, premise in ((1289, 184, "met"), (1303, 186, "not-met(size-window)")):
        argv = ["verify", "gv", "--p", str(p), "--order", str(order), "--mu", "1", "--format", "json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["premise"] == premise, p


def test_cli_extract(capsys):
    rc = main(["extract-permissible", "--p", "13", "--poly", "x+y", "--ys", "1,2,3,4,5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kept" in out


def test_cli_probe_growth_json(capsys):
    rc = main(["probe", "growth", "--p", "13", "--order", "3", "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sum_size"] == 6 and data["diff_size"] == 7


def test_cli_probe_factorization(capsys):
    rc = main(
        [
            "probe", "factorization", "--p", "13", "--order", "12",
            "--poly", "x+y", "--A", "1,2,3,4", "--B", "0,4,8", "--format", "json",
        ]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["is_representation"] is True and data["min_q"] == 2


def test_cli_usage_errors(capsys):
    assert main(["verify", "gv", "--p", "13", "--order", "3"]) == 1  # missing --mu
    capsys.readouterr()
    assert main(["nonsense"]) == 1
    capsys.readouterr()
    assert main(["subgroups", "--p", "12"]) == 1  # not a prime
    err = capsys.readouterr().err
    assert err.strip()


def test_cli_sweep_roundtrip(tmp_path, capsys):
    cfg = {
        "inequality": "gv",
        "primes": [5, 7],
        "orders": "all",
        "seed": 9,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "out.jsonl"
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines and all(json.loads(l)["kind"] == "gv" for l in lines)

    rc = main(["sweep", "--config", str(cfg_path), "--format", "csv", "--out", "-"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_cli_sweep_seed_override(tmp_path):
    cfg = {
        "inequality": "vm",
        "primes": [13],
        "orders": "all",
        "polys": ["x+y"],
        "params": {"alpha_count": 1, "alpha_sets": 2},
        "seed": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out", str(b), "--seed", "6"]) == 0
    assert a.read_bytes() != b.read_bytes()
    assert all(json.loads(l)["seed"] == 6 for l in b.read_text().splitlines())


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_seed_override_is_validated_like_the_config(tmp_path, capsys, seed):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"inequality": "gv", "primes": [13], "seed": 5}))
    out_path = tmp_path / "out.jsonl"
    rc = main(["sweep", "--config", str(cfg_path), "--seed", seed, "--out", str(out_path)])
    assert rc == 1
    assert "seed: need an integer in [0, 2^64)" in capsys.readouterr().err
    assert not out_path.exists()


def test_cli_bad_config_exit_1(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"inequality": "gv", "primes": [4], "seed": 1}))
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    assert "primes[0]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "primes, want",
    [
        ([2**64 + 13], "primes[0]: 18446744073709551629 is not an odd prime"),  # prime
        ({"start": 2**64 - 100, "stop": 2**64 + 100}, "primes: need 3 <= start <= stop < 2^64"),
    ],
)
def test_cli_primes_past_2_64_exit_1_no_output(tmp_path, capsys, primes, want):
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps(
        {"inequality": "t2", "primes": primes, "orders": [2], "polys": ["x+y"]}
    ))
    out_path = tmp_path / "out.jsonl"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out_path)]) == 1
    assert want in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("params", [{}, {"mu_sample": 3}])
def test_gv_config_rejects_primes_past_2_63(params):
    p = 9223372036854775837  # the least prime above 2^63
    doc = {"inequality": "gv", "primes": [p], "orders": [2], "params": params}
    with pytest.raises(ConfigError) as exc:
        SweepConfig.from_json(doc)
    assert str(exc.value) == f"primes: gv sweeps need primes below 2^63, got {p}"
    doc["primes"] = [9223372036854775783]  # the greatest prime below 2^63 loads
    assert SweepConfig.from_json(doc).primes == (9223372036854775783,)


def test_cli_bad_params_exit_1_no_output(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(
        {"inequality": "probe", "primes": [13], "polys": ["x+y"], "params": {"delta": 2}}
    ))
    out_path = tmp_path / "out.jsonl"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out_path)]) == 1
    assert "params.delta" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_cli_sweep_error_leaves_no_output(tmp_path, capsys, jobs):
    # x*y has a single-variable factor, so the config is rejected when it
    # loads (test_cli_sweep_error_mid_run_leaves_no_output fails a block)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"inequality": "probe", "primes": [13, 31], "polys": ["x+y", "x*y"]}
    ))
    out_path = tmp_path / "out.jsonl"
    rc = main(["sweep", "--config", str(cfg_path), "--jobs", str(jobs), "--out", str(out_path)])
    assert rc == 1
    assert "single-variable factor" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_cli_sweep_error_mid_run_leaves_no_output(tmp_path, capsys, monkeypatch, jobs):
    # the p = 13 blocks are written before a p = 31 block raises; the pool's
    # forked workers inherit the patched evaluate
    real = sweep.evaluate

    def fail_at_31(inst):
        if inst["p"] == 31:
            raise WorkbenchError("planted failure")
        return real(inst)

    monkeypatch.setattr(sweep, "evaluate", fail_at_31)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"inequality": "gv", "primes": [13, 31], "orders": "all"}))
    out_path = tmp_path / "out.jsonl"
    rc = main(["sweep", "--config", str(cfg_path), "--jobs", str(jobs), "--out", str(out_path)])
    assert rc == 1
    assert "planted failure" in capsys.readouterr().err
    assert not out_path.exists()


def _two_cpus(monkeypatch):
    """A --jobs 2 sweep starts a real pool of two, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def _die_at_101(monkeypatch):
    """Make the forked worker that reaches p = 101 exit at once."""
    _two_cpus(monkeypatch)
    real, parent = sweep.evaluate, os.getpid()

    def die(inst):
        if inst["p"] == 101:
            assert os.getpid() != parent, "p = 101 ran in the test process"
            os._exit(7)
        return real(inst)

    monkeypatch.setattr(sweep, "evaluate", die)


DEAD_WORKER_CONFIG = {"inequality": "gv", "primes": [13, 31, 61, 101], "orders": "all"}


def test_cli_sweep_names_a_dead_worker(tmp_path, capsys, monkeypatch):
    _die_at_101(monkeypatch)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(DEAD_WORKER_CONFIG))
    out_path = tmp_path / "out.jsonl"
    rc = main(["sweep", "--config", str(cfg_path), "--jobs", "2", "--out", str(out_path)])
    assert rc == 1
    assert capsys.readouterr().err == "error: a sweep worker died before its blocks were done\n"
    assert not out_path.exists()


@pytest.mark.parametrize("end", ["run_sweep", "block raises", "worker dies", "leave early"])
def test_no_worker_outlives_a_sweep(monkeypatch, end):
    _two_cpus(monkeypatch)
    cfg = SweepConfig.from_json(DEAD_WORKER_CONFIG)
    if end == "run_sweep":
        assert len(run_sweep(cfg, jobs=2)) == len(generate_instances(cfg))
    elif end == "block raises":
        real = sweep.evaluate

        def fail_at_61(inst):
            if inst["p"] == 61:
                raise WorkbenchError("planted failure")
            return real(inst)

        monkeypatch.setattr(sweep, "evaluate", fail_at_61)
        with pytest.raises(WorkbenchError, match="planted failure"):
            run_sweep(cfg, jobs=2)
    elif end == "worker dies":
        _die_at_101(monkeypatch)
        with pytest.raises(WorkbenchError, match="a sweep worker died"):
            run_sweep(cfg, jobs=2)
    else:
        with sweep._block_results("jsonl", cfg, 2) as results:
            unit, (lines, picks) = next(results)
            assert unit["p"] == 13 and len(picks) == 12
    with pytest.raises(ChildProcessError):  # no child left, running or not yet reaped
        os.waitpid(-1, os.WNOHANG)


def test_probe_config_rejects_single_variable_factor_at_every_prime():
    def load(primes, polys):
        return SweepConfig.from_json({"inequality": "probe", "primes": primes, "polys": polys})

    with pytest.raises(ConfigError) as exc:
        load([13], ["x*y"])
    assert str(exc.value) == "polys[0]: 'x*y' is zero or has a single-variable factor mod 13"
    # x*y + 13 is x*y mod 13 only, so it loads wherever 13 is not listed
    load([31, 61], ["x+y", "x*y+13"])
    with pytest.raises(ConfigError) as exc:
        load([61, 13, 31], ["x+y", "x*y+13"])
    assert str(exc.value).startswith("polys[1]: 'x*y+13' ") and str(exc.value).endswith("mod 13")
    with pytest.raises(ConfigError) as exc:
        load([13, 31], ["13*x+13*y"])  # the zero polynomial mod 13
    assert str(exc.value).endswith("mod 13")


def test_admitted_orders_use_the_subgroup_window():
    p = 92921  # 9 * 101^2 < p and 101 | p - 1
    cfg = SweepConfig.from_json({
        "inequality": "t2", "primes": [p], "orders": {"admitted_for_n": 1}, "polys": ["x+y"],
    })
    want = [d for d in divisors(p - 1) if in_admitted_window(d, 1, p)]
    assert want == [101]
    assert [inst["order"] for inst in generate_instances(cfg)] == want


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so no worker is ever started."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, blocks):
        return (fn(block) for block in blocks)


@pytest.mark.parametrize(
    "cpus, config, workers",
    [
        (64, gv_config(primes=[5, 7]), [36]),  # 36 one-instance blocks
        (3, gv_config(primes=[5, 7]), [3]),
        (None, gv_config(primes=[5, 7]), []),  # unknown CPU count: run serially
        (64, SweepConfig.from_json({"inequality": "growth", "primes": [5], "orders": [2]}), []),
        (1, gv_config(primes=[5, 7]), []),  # one usable CPU: no pool
    ],
)
def test_pool_starts_no_more_workers_than_blocks_or_cpus(monkeypatch, cpus, config, workers):
    # cpus is the size of this process's CPU affinity set on a machine of
    # 128 CPUs; None is a platform without sched_getaffinity whose CPU count
    # is unknown
    import concurrent.futures

    monkeypatch.setattr(_RecordingPool, "started", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 128)
    records = run_sweep(config, jobs=5000)
    assert _RecordingPool.started == workers
    assert records == run_sweep(config, jobs=1)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_rejects_nonpositive_jobs(tmp_path, capsys, jobs):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"inequality": "gv", "primes": [5, 7], "orders": "all"}))
    out_path = tmp_path / "out.jsonl"
    rc = main(["sweep", "--config", str(cfg_path), "--jobs", jobs, "--out", str(out_path)])
    assert rc == 1
    assert f"jobs: need a positive integer, got {jobs}" in capsys.readouterr().err
    assert not out_path.exists()
    with pytest.raises(ConfigError):
        run_sweep(gv_config(), jobs=int(jobs))


# one small config per kind; every instance's CLI output must match its record
PARITY_CONFIGS = {
    "gv": {"inequality": "gv", "primes": [191], "orders": [2, 38], "params": {"mu_sample": 4}},
    "t2": {"inequality": "t2", "primes": [92921], "orders": [4, 101],
           "polys": ["x+y", "x*y+1", "x^2-y^2"]},
    "vm": {"inequality": "vm", "primes": [92921], "orders": [4, 101],
           "polys": ["x+y", "x^2+y^2"], "params": {"alpha_count": 2}},
    "thmap": {"inequality": "thmap", "primes": [443], "orders": "all"},
    "growth": {"inequality": "growth", "primes": [13, 31], "orders": "all"},
    "probe": {"inequality": "probe", "primes": [13], "orders": "all",
              "polys": ["x+y", "x^2+3*y^2"], "params": {"delta": 0.2, "epsilon": 0.3}},
}


@pytest.mark.parametrize("kind", sorted(PARITY_CONFIGS))
def test_run_sweep_is_one_run_instance_per_instance(kind):
    cfg = SweepConfig.from_json(PARITY_CONFIGS[kind])
    records = run_sweep(cfg, jobs=2)
    assert records == run_sweep(cfg, jobs=1) == [run_instance(i) for i in generate_instances(cfg)]


def test_every_kind_has_one_table_entry():
    assert KINDS == ("t2", "vm", "gv", "thmap", "growth", "probe")
    assert list(sweep._KINDS) == list(KINDS)
    assert len({id(entry) for entry in sweep._KINDS.values()}) == len(KINDS)
    assert sorted(PARITY_CONFIGS) == sorted(KINDS)


def _choices(command: str) -> tuple:
    """The choices of a subcommand's positional argument."""
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return next(a for a in sub.choices[command]._actions if a.choices and not a.option_strings).choices


def test_verify_choices_are_the_verdict_kinds():
    verdicts = {
        kind for kind, doc in PARITY_CONFIGS.items()
        if isinstance(sweep.evaluate(generate_instances(SweepConfig.from_json(doc))[0]), Verdict)
    }
    assert _choices("verify") == ("t2", "vm", "gv", "thmap")
    assert set(_choices("verify")) == verdicts
    assert _choices("probe") == ("growth", "factorization")


def test_readme_params_are_the_table_params():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("Per-kind `params`", 1)[1].split("\n\n", 2)[1]
    bullets = [" ".join(b.split()) for b in section.split("\n* ")]
    seen = {}
    for bullet in bullets:
        kinds, _, rest = bullet.lstrip("* ").partition(":")
        spec = {
            name: (rule, None if default == "no default" else default.removeprefix("default "))
            for name, rule, default in re.findall(r"`(\w+)` \((count|fraction), ([^)]+)\)", rest)
        }
        for kind in re.findall(r"`(\w+)`", kinds):
            seen[kind] = spec
    want = {
        kind: {name: (rule, None if d is None else str(d)) for name, (rule, d) in e["params"].items()}
        for kind, e in sweep._KINDS.items()
    }
    assert seen == want


def _cli_argv(inst: dict) -> list[str]:
    """The verify/probe command line that describes a sweep instance."""
    kind = inst["kind"]
    ints = lambda xs: ",".join(map(str, xs))  # noqa: E731
    common = ["--p", str(inst["p"]), "--order", str(inst["order"]), "--format", "json"]
    if kind == "growth":
        return ["probe", "growth", *common]
    if kind == "probe":
        return ["probe", "factorization", *common, "--poly", inst["poly"],
                "--A", ints(inst["A"]), "--B", ints(inst["B"]),
                "--delta", repr(inst["delta"]), "--epsilon", repr(inst["epsilon"])]
    if kind == "gv":
        return ["verify", kind, *common, "--mu", str(inst["mu"])]
    if kind == "thmap":
        return ["verify", kind, *common, "--fs", inst["poly"], "--cosets", ints(inst["coset_reps"])]
    argv = ["verify", kind, *common, "--poly", inst["poly"]]
    return argv + ["--alphas", ints(inst["alphas"])] if kind == "vm" else argv


@pytest.mark.parametrize("kind", sorted(PARITY_CONFIGS))
def test_cli_prints_what_the_sweep_records(capsys, kind):
    instances = generate_instances(SweepConfig.from_json(PARITY_CONFIGS[kind]))
    assert instances
    met = 0
    for inst in instances:
        rec = sweep.run_instance(inst)
        rc = main(_cli_argv(inst))
        out = json.loads(capsys.readouterr().out)
        if kind == "growth":
            assert rc == 0 and out == {"order": rec["order"], **rec["extra"]}
        elif kind == "probe":
            assert rc == 0 and len(out) == 6 and out.items() <= rec["extra"].items()
        else:
            premise = "met" if rec["premise_ok"] else f"not-met({rec['premise_reason']})"
            fields = ("lhs", "rhs", "holds", "borderline", "ratio")
            assert out == {"inequality": kind, "premise": premise, **{k: rec[k] for k in fields}}
            assert rc == (2 if rec["premise_ok"] and rec["holds"] is False else 0)
            met += rec["premise_ok"]
    assert met or kind in ("growth", "probe", "thmap", "vm")


def test_thmap_instances_carry_their_shifts_in_the_poly_text():
    # the family a record reports is the one its instance evaluates: its
    # poly text, read as `verify thmap --fs`, gives the instance's tuples
    cfg = SweepConfig.from_json(PARITY_CONFIGS["thmap"])
    for inst in generate_instances(cfg):
        assert "shifts" not in inst
        fs = cli._fs_coeffs(inst["poly"], make_prime(inst["p"]))
        assert fs == inst["fs"] == tuple(
            (int(part[2:]), 1) for part in inst["poly"].split(";")
        )
        assert run_instance(inst)["poly"] == inst["poly"]


def test_fs_entries_must_use_only_x(capsys):
    with pytest.raises(WorkbenchError) as exc:
        cli._fs_coeffs("x+1;x*y", make_prime(13))
    assert str(exc.value) == "--fs entries must use only x: 'x*y'"
    argv = ["verify", "thmap", "--p", "13", "--order", "3", "--fs", "x+1;x*y", "--cosets", "1,2"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --fs entries must use only x: 'x*y'\n"


def test_thmap_sweep_parses_nothing_per_record(monkeypatch):
    cfg = SweepConfig.from_json(STREAM_CONFIGS["thmap"])
    real, calls = poly.parse_bipoly, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (sweep, poly):
        monkeypatch.setattr(module, "parse_bipoly", counting)
    records = run_sweep(cfg, jobs=1)
    assert len(records) == 5 * (len(divisors(442)) + len(divisors(462)))
    assert calls == []


def _thmap_trial_polys(cfg, p, d, trials):
    """The shift strings of one (p, order) in the order the trials draw them."""
    polys = []
    for t in range(trials):
        rng = sweep._rng(cfg, p, d, "thmap", t)
        a = rng.randrange(1, p)
        b = rng.randrange(1, p)
        while b == a:
            b = rng.randrange(1, p)
        lo, hi = sorted((a, b))
        polys.append(f"x+{lo};x+{hi}")
    return polys


STREAM_CONFIGS = {
    "gv": {"inequality": "gv", "primes": [5, 7, 13, 31], "orders": "all", "seed": 4},
    "thmap": {"inequality": "thmap", "primes": [443, 463], "orders": "all",
              "params": {"pair_count": 5}, "seed": 7},
    "probe": {"inequality": "probe", "primes": [13, 31], "orders": [3, 6],
              "polys": ["x^2+y^2", "x+2*y", "x+y"], "params": {"trials": 2}, "seed": 2},
    "empty": {"inequality": "t2", "primes": [13], "orders": {"admitted_for_n": 1},
              "polys": ["x+y"], "seed": 3},
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("name", sorted(STREAM_CONFIGS))
def test_cli_stream_matches_render_report(tmp_path, name, fmt, jobs):
    doc = STREAM_CONFIGS[name]
    cfg = SweepConfig.from_json(doc)
    records = run_sweep(cfg, jobs=1)
    if name == "thmap":
        # trial order differs from the shift-string order of the report, so
        # the instances really are reordered before they run
        groups = {}
        for r in records:
            groups.setdefault((r["p"], r["order"]), []).append(r["poly"])
        reordered = [
            key for key, polys in groups.items()
            if _thmap_trial_polys(cfg, *key, 5) != polys
        ]
        assert reordered
        assert all(sorted(_thmap_trial_polys(cfg, *k, 5)) == v for k, v in groups.items())
    if name == "empty":
        assert records == []
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out_path = tmp_path / f"out.{fmt}"
    rc = main(["sweep", "--config", str(cfg_path), "--format", fmt,
               "--jobs", str(jobs), "--out", str(out_path)])
    assert rc == 0
    expected = _per_record_report(cfg, fmt)
    assert out_path.read_text(encoding="utf-8") == expected
    if name == "empty":
        assert expected == ("" if fmt == "jsonl" else ",".join(CSV_COLUMNS) + "\n")


def test_cli_sweep_counts_violations(tmp_path, monkeypatch, capsys):
    # gv records come from one verdict per |G ∩ (G + mu)| value, so the flip
    # goes into the verdict: at p = 13, |G| = 4 only the coset 4G has lhs 2
    real = sweep.verify_shift_overlap_bound

    def flip_one_coset(G, mu):
        v = real(G, mu)
        if (G.p, G.order, v.lhs) == (13, 4, 2):
            assert v.premise_ok and v.holds is True
            v = Verdict(v.inequality, v.premise_ok, v.premise_reason, v.lhs, v.rhs, False,
                        v.borderline, v.ratio)
        return v

    doc = {"inequality": "gv", "primes": [7, 13], "orders": "all", "seed": 1}
    coset = [r["detail"] for r in run_sweep(SweepConfig.from_json(doc), jobs=1)
             if (r["p"], r["order"], r["lhs"]) == (13, 4, 2)]
    assert coset == ["mu=4", "mu=6", "mu=7", "mu=9"]
    monkeypatch.setattr(sweep, "verify_shift_overlap_bound", flip_one_coset)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out_path = tmp_path / "out.jsonl"
    rc = main(["sweep", "--config", str(cfg_path), "--jobs", "1", "--out", str(out_path)])
    assert rc == 2
    assert f"{len(coset)} premise-met violation(s) found" in capsys.readouterr().err
    cfg = SweepConfig.from_json(doc)
    assert count_violations(run_sweep(cfg, jobs=1)) == len(coset)
    assert out_path.read_text(encoding="utf-8") == _per_record_report(cfg, "jsonl")


# --- gv work units: one record per verdict, mu spliced into its line --------


def _per_record_report(cfg, fmt):
    """The report as one run_instance per generated instance would write it."""
    return render_report([run_instance(inst) for inst in generate_instances(cfg)], fmt)


def _full_row(rec):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([sweep._csv_cell(rec[c]) for c in CSV_COLUMNS])
    return buf.getvalue()


BIG = 2**64 + 13
SYNTHETIC_OUTCOMES = [
    Verdict("gv", True, "", 3, 4 * 5 ** (2 / 3), True, False, 1e-05),
    Verdict("gv", True, "", 2**70, 4.0, False, False, 1e16),
    Verdict("gv", True, "", 4, 4.0, True, True, 0.1 + 0.2),
    Verdict("gv", False, "size-window", 0, 5e-324, None, False, 0.0),
    Verdict("gv", False, "size-window", 7, 1.7976931348623157e308, None, True, 1e-300),
    BudgetExceeded("|G|^2 = 144 exceeds budget 100"),
]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("outcome", SYNTHETIC_OUTCOMES, ids=range(len(SYNTHETIC_OUTCOMES)))
def test_gv_template_splice_matches_the_full_record(fmt, outcome):
    shared = sweep._fill({
        "schema": 1, "kind": "gv", "p": BIG, "order": 5, "generator": BIG - 2, "poly": "",
        "detail": f"mu={sweep._MU}", "premise_ok": False, "premise_reason": "", "lhs": 0,
        "rhs": 0.0, "holds": None, "borderline": False, "ratio": 0.0, "extra": {},
        "seed": 2**64 - 1,
    }, outcome)
    head, tail, bad = sweep._split_line(fmt, shared)
    for mu in (1, 9, 10**6, BIG - 1, 2**80):
        full = {**shared, "detail": f"mu={mu}"}
        want = sweep._JSON.encode(full) + "\n" if fmt == "jsonl" else _full_row(full)
        assert head + str(mu) + tail == want
        assert bad == count_violations([full])
    line = head + "1" + tail
    assert ("1e-05" in line) == (outcome is SYNTHETIC_OUTCOMES[0])
    assert ("1e+16" in line) == (outcome is SYNTHETIC_OUTCOMES[1])


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_gv_units_share_synthetic_verdicts_by_lhs(monkeypatch, fmt):
    # every field shape at once: each lhs value gets one synthetic verdict
    def synthetic(G, mu):
        lhs = shift_intersection(G, mu)
        v = SYNTHETIC_OUTCOMES[lhs % 5]
        return Verdict(v.inequality, v.premise_ok, v.premise_reason, lhs, v.rhs, v.holds,
                       v.borderline or lhs == 1, v.ratio)

    monkeypatch.setattr(sweep, "verify_shift_overlap_bound", synthetic)
    cfg = gv_config(primes=[61, 191], params={"mu_sample": 40}, seed=8)
    records = [run_instance(inst) for inst in generate_instances(cfg)]
    assert {r["holds"] for r in records} == {True, False, None}
    assert any(r["borderline"] for r in records)
    pieces = [sweep._splice(unit, *sweep._shared(unit, fmt)) for unit in sweep._units(cfg)]
    text, bad = "".join(t for t, _ in pieces), sum(b for _, b in pieces)
    assert text == render_report(records, fmt, header=False)
    assert bad == count_violations(records) > 0
    shared = run_sweep(cfg, jobs=1)
    assert shared == records
    # records that share a template still own their "extra"
    assert len({id(r["extra"]) for r in shared}) == len(shared)


def _block_records(block):
    """A block's records, one run_instance per instance."""
    return [run_instance(inst) for unit in block for inst in sweep._expand(unit)]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_gv_block_payload_is_a_tenth_of_its_text(fmt):
    # what a worker pickles back: per unit its lines and one index per mu,
    # not the text and not the shifts, which the parent already holds.  At
    # 100 samples per subgroup few shifts share a line, so that payload is
    # 10.0% of the CSV text (12.7% when it also carried the shifts)
    for cfg, share in ((gv_config(primes=[389, 397], seed=3), 10),
                       (gv_config(primes=[389, 397], params={"mu_sample": 100}, seed=3), 8),
                       (gv_config(primes=[997, 1009], params={"mu_sample": 400}, seed=3), 10)):
        units = sweep._units(cfg)
        for block in sweep._blocks(units, sum(len(sweep._fills(u)) for u in units) // 16):
            payload = sweep._run_block(fmt, block)
            assert len(payload) == len(block)
            for lines, picks in payload:
                assert isinstance(picks, array)
                assert all(type(line) is tuple and len(line) == 3 for line in lines)
            text = "".join(sweep._splice(u, *shared)[0] for u, shared in zip(block, payload))
            assert text == render_report(_block_records(block), fmt, header=False)
            assert len(pickle.dumps(payload)) < len(text.encode()) / share


def test_gv_unit_with_more_than_256_lines(tmp_path, monkeypatch):
    # |G| = 1 gives lhs = 0 at every mu; a histogram that counts each key as
    # itself makes every mu its own line, past what one byte can index
    monkeypatch.setattr(sweep, "shift_histogram", lambda G: {k: k for k in range(G.p)})
    cfg = gv_config(primes=[1009], orders=[1])
    lines, picks = sweep._shared(sweep._units(cfg)[0], "jsonl")
    assert picks.typecode == "L" and list(picks) == list(range(1008)) and len(lines) == 1008
    for fmt in ("jsonl", "csv"):
        out = tmp_path / f"out.{fmt}"
        assert write_sweep(cfg, fmt, str(out), jobs=1) == 0
        assert out.read_text(encoding="utf-8") == _per_record_report(cfg, fmt)


def test_sampled_gv_unit_split_across_blocks_keeps_bytes(tmp_path):
    cfg = gv_config(primes=[397, 401], params={"mu_sample": 150}, seed=4)
    units = sweep._units(cfg)
    records = sum(len(sweep._fills(u)) for u in units)
    for size in (records // 8, records // 16):  # the blocks of --jobs 1 and 2
        starts = {(u["p"], u["order"]): u["mus"][0] for u in units}
        blocks = sweep._blocks(units, size)
        assert any(b[0]["mus"][0] != starts[b[0]["p"], b[0]["order"]] for b in blocks)
        assert all(isinstance(u["mus"], list) for b in blocks for u in b)
    for fmt in ("jsonl", "csv"):
        reports = []
        for jobs in (1, 2):
            out = tmp_path / f"out{jobs}.{fmt}"
            assert write_sweep(cfg, fmt, str(out), jobs=jobs) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert reports[0].decode("utf-8") == _per_record_report(cfg, fmt)


def test_gv_sweep_builds_no_per_record_instances(tmp_path, monkeypatch):
    cfg = gv_config(primes=[5, 7, 13, 31], params={"mu_sample": 7})
    want = {fmt: _per_record_report(cfg, fmt) for fmt in ("jsonl", "csv")}
    want_all = {fmt: _per_record_report(gv_config(), fmt) for fmt in ("jsonl", "csv")}

    def per_record(*args, **kwargs):
        raise AssertionError("a gv sweep went through per-record instances")

    monkeypatch.setattr(sweep, "run_instance", per_record)
    monkeypatch.setattr(sweep, "generate_instances", per_record)
    for fmt in ("jsonl", "csv"):
        for config, expected in ((cfg, want), (gv_config(), want_all)):
            out = tmp_path / f"out.{fmt}"
            assert write_sweep(config, fmt, str(out), jobs=1) == 0
            assert out.read_text(encoding="utf-8") == expected[fmt]


GV_UNIT_CONFIGS = {
    "sampled-large-p": {"inequality": "gv", "primes": [4294967311], "orders": [2, 5],
                        "params": {"mu_sample": 30}, "seed": 6},
    "straddling": {"inequality": "gv", "primes": [13, 31, 61], "orders": "all", "seed": 2},
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("name", sorted(GV_UNIT_CONFIGS))
def test_gv_units_match_per_record_reports(tmp_path, name, fmt, jobs):
    cfg = SweepConfig.from_json(GV_UNIT_CONFIGS[name])
    units = sweep._units(cfg)
    records = sum(len(sweep._fills(u)) for u in units)
    assert records == len(generate_instances(cfg))
    if name == "straddling":
        # the --jobs 2 blocks split subgroups, some of them more than once
        blocks = sweep._blocks(units, records // 16)
        assert [sum(len(sweep._fills(u)) for u in b) for b in blocks[:-1]] == [records // 16] * (len(blocks) - 1)
        firsts = [(b[0]["p"], b[0]["order"], b[0]["mus"][0]) for b in blocks]
        assert sum(mu != 1 for _, _, mu in firsts) >= 5
    out = tmp_path / f"out.{fmt}"
    assert write_sweep(cfg, fmt, str(out), jobs=jobs) == 0
    assert out.read_text(encoding="utf-8") == _per_record_report(cfg, fmt)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("name", ["growth_probe", "gv_small", "thmap_window", "vm_sampled"])
def test_sample_configs_sweep_to_their_per_record_reports(tmp_path, name, fmt):
    path = os.path.join(CONFIG_DIR, f"{name}.json")
    out = tmp_path / f"out.{fmt}"
    proc = subprocess.run(
        [sys.executable, "-m", "sumprod", "sweep", "--config", path, "--jobs", "2",
         "--format", fmt, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == _per_record_report(SweepConfig.from_file(path), fmt).encode()


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "sumprod", "subgroups", "--p", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "4" in proc.stdout


def _cap_child_memory():
    """preexec_fn: cap the child's address space, so a runaway build fails fast."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_subgroups_cli_past_2_32_lists_every_order_quickly():
    # element lists are built only for the orders that print them (<= 64)
    p = 2**32 + 15
    proc = subprocess.run(
        [sys.executable, "-m", "sumprod", "subgroups", "--p", str(p), "--format", "json"],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_cap_child_memory,
    )
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)["subgroups"]
    assert [row["order"] for row in rows] == list(divisors(p - 1))
    for row in rows:
        assert ("elements" in row) == (row["order"] <= 64), row["order"]
        if "elements" in row:
            assert len(row["elements"]) == row["order"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep_gv.py", "--lo", "5", "--hi", "13"],
        ["sweep_image_ratio.py", "--lo", "101", "--hi", "103", "--out", "OUT"],
        ["irreducibility_census.py", "--primes", "3", "--degrees", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_scripts_run_at_their_smallest_range(argv, tmp_path):
    args = [str(tmp_path / "out.csv") if a == "OUT" else a for a in argv[1:]]
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPT_DIR, argv[0]), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
