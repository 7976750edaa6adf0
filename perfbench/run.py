"""sumprod benchmark: end-to-end sweep/census passes and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout (it imports `sumprod` from ./src).  Workloads:
grid-numpy, grid-large-prime, oracle-census, many-records (see README.md).

--trace 0: set-up is timed SETUP_REPEATS times in fresh interpreters, then
whole passes run back to back until they add up to S seconds (at least
MIN_PASSES).  A sweep pass runs `python3 -m sumprod sweep` once per
generated config; a census pass runs the census in one fresh interpreter.
Every distinct output is checked by perfbench/checks.py, whose checkers
first reject planted errors.

--trace 1: pairs of in-process passes at --jobs 1, one untraced and one
under perfbench/spans.py, until they add up to S seconds.

The last stdout line is the result JSON; the line before it stamps the
environment (Python, numpy, nproc, CPU model), the pass times and the
output digests.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INPROC = os.path.join(HERE, "inproc.py")
CHECKS = os.path.join(HERE, "checks.py")
SETUP_REPEATS = 7
MIN_PASSES = 2


def env_stamp() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


class Child:
    """Runs one child process to completion and records its wall time and
    peak RSS (wait4 folds in every descendant the child waited for, i.e.
    the sweep's pool workers)."""

    def __init__(self, workdir: str):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.workdir = workdir

    def run(self, argv: list[str]) -> tuple[float, float, str]:
        out_path = os.path.join(self.workdir, "child.out")
        err_path = os.path.join(self.workdir, "child.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8") as fh:
            stderr = fh.read()
        sys.stderr.write(stderr)
        if proc.returncode == 3:  # a checker accepted a planted error
            raise SystemExit(f"{os.path.basename(argv[1])} exited 3")
        if proc.returncode not in (0, 2):  # 2: the sweep found violations
            raise RuntimeError(f"{argv[1:4]} exited {proc.returncode}: {stderr[-2000:]}")
        return wall, usage.ru_maxrss / 1024.0, stdout  # KiB -> MiB


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class Workload:
    """Inputs, passes and output checks of one workload in one run."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir
        self.child = Child(workdir)
        self.inputs = workloads.write_inputs(name, seed, workdir)
        self.census = name == "oracle-census"
        self.jobs = workloads.jobs_for(name)
        self.verified: dict[str, tuple[int, int, int]] = {}  # digest -> ops, failed, mismatched

    def setup_s(self) -> float:
        return _last_json(self.child.run([sys.executable, INPROC, "setup", *self.inputs])[2])["setup_s"]

    def _outputs(self) -> list[str]:
        if self.census:
            return [os.path.join(self.workdir, "census.out.json")]
        return [os.path.join(self.workdir, f"{i}.jsonl") for i in range(len(self.inputs))]

    def cli_pass(self, jobs: int) -> tuple[float, float]:
        """One end-to-end pass; returns (wall seconds, peak RSS in MB)."""
        if self.census:
            wall, rss, _ = self.child.run(
                [sys.executable, INPROC, "census", "0", self.inputs[0], self._outputs()[0]])
            return wall, rss
        wall = rss = 0.0
        for cfg, out in zip(self.inputs, self._outputs()):
            w, r, _ = self.child.run([sys.executable, "-m", "sumprod", "sweep", "--config", cfg,
                                      "--out", out, "--format", "jsonl", "--jobs", str(jobs)])
            wall += w
            rss = max(rss, r)
        return wall, rss

    def inproc_pass(self, trace: bool) -> dict:
        """One in-process pass at --jobs 1, traced or not (see inproc.py)."""
        flag = "1" if trace else "0"
        if self.census:
            args = ["census", flag, self.inputs[0], self._outputs()[0]]
        else:
            args = ["sweep", flag, self.workdir, *self.inputs]
        return _last_json(self.child.run([sys.executable, INPROC, *args])[2])

    def verify(self) -> tuple[str, int, int, int]:
        """Check the current outputs in a child process; returns (digest,
        ops, failed, mismatched).  Outputs already checked byte for byte are
        not checked again.  The first check also runs the checkers' self-check."""
        digest = hashlib.sha256()
        for path in self._outputs():
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            digest.update(b"\0")
        key = digest.hexdigest()
        if key not in self.verified:
            argv = [sys.executable, CHECKS, "--seed", str(self.seed)]
            if self.census:
                argv += ["--census", self.inputs[0]]
            if not self.verified:
                argv.append("--self-check")
            doc = _last_json(self.child.run(argv + self._outputs())[2])
            self.verified[key] = (doc["ops"], doc["failed"], doc["mismatched"])
        return (key, *self.verified[key])


class Tally:
    """Operations, failures and output digests over the passes of one run."""

    def __init__(self):
        self.ops = self.failed = self.mismatched = 0
        self.digests: set[str] = set()

    def add(self, checked: tuple[str, int, int, int]) -> int:
        key, ops, failed, mismatched = checked
        self.digests.add(key)
        self.ops += ops
        self.failed += failed
        self.mismatched += mismatched
        return ops

    def outcome(self, info: dict, deterministic: bool = True) -> dict:
        # every pass must write the same bytes (and --jobs must not matter)
        deterministic = deterministic and len(self.digests) == 1
        info = dict(info, report_digest=sorted(self.digests), deterministic=deterministic)
        return {"ops": self.ops, "failed": self.failed,
                "correct": self.mismatched == 0 and deterministic, "info": info}


def measure(w: Workload, seconds: float) -> tuple[dict, dict]:
    setups = [w.setup_s() for _ in range(SETUP_REPEATS)]
    tally = Tally()
    walls, rss, rates = [], [], []
    while len(walls) < MIN_PASSES or sum(walls) < seconds:
        wall, peak = w.cli_pass(w.jobs)
        walls.append(wall)
        rss.append(peak)
        rates.append(tally.add(w.verify()) / wall)
    same_for_one_job = True
    if w.jobs > 1:  # outside the timed passes
        w.cli_pass(1)
        same_for_one_job = w.verify()[0] in tally.digests
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "verdicts_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(rss),
    }
    info = {"passes": len(walls), "ops_per_pass": tally.ops // len(walls),
            "setup_repeats": SETUP_REPEATS, "walls_s": walls}
    return metrics, tally.outcome(info, same_for_one_job)


def measure_traced(w: Workload, seconds: float) -> tuple[dict, dict]:
    tally = Tally()
    plain, traced = [], []
    while not traced or sum(plain) + sum(t["wall_s"] for t in traced) < seconds:
        plain.append(w.inproc_pass(trace=False)["wall_s"])
        tally.add(w.verify())
        traced.append(w.inproc_pass(trace=True))
        tally.add(w.verify())
    metrics = {k: statistics.median(t["trace"][k] for t in traced) for k in traced[0]["trace"]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)
    return metrics, tally.outcome({"pairs": len(traced), "untraced_wall_s": plain})


def metric_specs(trace: int) -> list[dict]:
    """The metrics this mode must print, with their units, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must lie in [0, 2^63)")
    if not os.path.isfile(os.path.join(ROOT, "src", "sumprod", "__init__.py")):
        print(f"error: no sumprod sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        w = Workload(args.workload, args.seed, workdir)
        if args.trace:
            metrics, outcome = measure_traced(w, args.seconds)
        else:
            metrics, outcome = measure(w, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stamp = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "env": env_stamp(), **outcome["info"]}
    print(json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["ops"],
        "failed": outcome["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in metric_specs(args.trace)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
