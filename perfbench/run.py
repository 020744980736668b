"""Benchmark for hcgame: the real CLI on fixed workloads, every report checked.

    python3 perfbench/run.py --workload verify-full --seed 1 --seconds 20 --trace 0

Each command of a workload runs as a fresh ``python3 -m hcgame.cli`` child
with ``PYTHONPATH`` set to the in-tree ``src`` and ``HCGAME_JOBS`` set to the
workload's job count, one child at a time (a closed loop with one client).
A pass runs every command of the workload once; passes repeat until
``--seconds`` have gone by.  The workload seed is forwarded as ``--seed``.
Each command's exit code and report are compared with the reference in
``reference/<workload>.json`` (see reportcheck.py), and the support file
written by ``--export`` with its line count and digest.  Files the
commands write go to a temporary directory inside the checkout that is
removed afterwards.

``--trace 0`` prints the end-to-end metrics over passes:
``wall_s`` and ``cpu_s`` (children's user+sys from ``wait4``) of a pass,
``peak_rss_mb`` (largest child ``ru_maxrss`` in a pass; Linux counts the
parent's RSS at fork in it, so this script stays near 21 MB, below any
child, by not importing numpy under ``--trace 0``) and ``setup_s``
(wall time of a fresh interpreter running ``import hcgame.cli``).
Each pass runs beside speedprobe.py on every CPU it may use (one CPU, to
which the run is pinned, for the one-job workloads), and its times are
scaled to a fixed host speed by the probe's time per unit of work (see
``measure``), because the speed of a shared host drifts by a third within
seconds.
``--trace 1`` alternates untraced passes with passes run under tracer.py
and prints the per-layer metrics; ``trace.overhead_s`` is the traced minus
the untraced median pass wall time.

The last line of standard output is one JSON object with ``correct``,
``attempted`` (commands run), ``failed`` (commands whose exit code or
report failed the check) and ``metrics``.  The lines before it record the
environment and each metric with its unit and sample count.
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
import threading
import time
from pathlib import Path
from typing import NamedTuple

import reportcheck
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
SPEEDPROBE = BENCH_DIR / "speedprobe.py"

# Host speed at which the end-to-end times are quoted: times are scaled as if
# a unit of speedprobe.py's work took this many CPU seconds (about its median
# on a 2-vCPU Xeon VM shared with busy neighbours, so scaled times read near
# real ones).
PROBE_UNIT_REFERENCE_S = 0.0016

# The whole run, set-up included, must end well inside three minutes.
RUN_BUDGET_S = 150.0
# Interpreter start-ups timed for setup_s: a batch before the first pass,
# after the first and after the last, so samples span the run.
SETUP_BATCHES = 3
SETUP_BATCH = 4

# Why each workload exists, which layers it loads and what it predicts is
# recorded in BENCHMARK.json.  Commands take "{tmp}" for the temporary directory.
WORKLOADS = {
    "verify-full": {"jobs": 1, "commands": [["verify", "all", "--jobs", "1"]]},
    "verify-quick-j2": {"jobs": 2, "commands": [["verify", "all", "--quick", "--jobs", "2"]]},
    "verify-exact": {
        "jobs": 1,
        "commands": [
            ["verify", "classical", "--m", "3"],
            ["verify", "nosignalling", "--m", "4", "--subset-max", "4", "--export", "{tmp}/support.jsonl"],
        ],
    },
}

ALL_LAYERS = tuple(tracer.LAYERS)
# Layers whose traced call count must be nonzero on each workload.
EXERCISED = {
    "verify-full": ALL_LAYERS,
    "verify-quick-j2": ALL_LAYERS,
    "verify-exact": ("cli", "classical", "nosignalling", "game"),
}

CACHES = ("win_table", "maximize_r")


def _per_layer_units() -> dict[str, str]:
    units = {}
    for module, names in tracer.LAYERS.items():
        for name in names:
            if module == "cli":
                units[f"cli.{name}.s"] = "s"
            else:
                units.update({f"{module}.{name}.calls": "count", f"{module}.{name}.s": "s", f"{module}.{name}.self_s": "s"})
    units["cli.import_s"] = "s"
    units["game.FacetAssignment.created"] = "count"
    for cache in CACHES:
        units.update({f"quantum.{cache}.hits": "count", f"quantum.{cache}.misses": "count", f"quantum.{cache}.hit_ratio": "ratio"})
    units["nosignalling.support_entries"] = "count"
    units["src.lines"] = "count"
    units["trace.overhead_s"] = "s"
    return units


# The metrics printed under --trace 1 and under --trace 0, with their units.
PER_LAYER_UNITS = _per_layer_units()
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def src_files() -> list[Path]:
    return sorted((SRC / "hcgame").rglob("*.py"))


def src_lines() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in src_files())


def environment() -> dict:
    files = src_files()
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        try:
            result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            revision = result.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(),
    }


class ChildResult(NamedTuple):
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


def run_child(argv: list[str], env: dict, stdout: Path, deadline: float) -> ChildResult:
    """Run one child to completion, killing it at ``deadline``; rusage comes from wait4."""
    stderr = stdout.with_suffix(".err")
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        proc.returncode,
        wall_s,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        stderr.read_text(errors="replace"),
    )


class Bench:
    """One workload at one seed: runs passes and keeps the check's tally."""

    def __init__(self, workload: str, seed: int, tmp: Path, deadline: float):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.reference = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
        if [entry["argv"] for entry in self.reference] != self.spec["commands"]:
            raise SystemExit(f"reference/{workload}.json does not match the workload's commands")
        self.seed = seed
        self.tmp = tmp
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), HCGAME_JOBS=str(self.spec["jobs"]))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def setup_sample(self) -> float:
        child = run_child([sys.executable, "-c", "import hcgame.cli"], self.env, self.tmp / "setup.out", self.deadline)
        if child.exit_code != 0:
            raise SystemExit(f"import hcgame.cli failed:\n{child.stderr}")
        return child.wall_s

    def probed(self, cpus: list[int], action):
        """Run ``action()`` beside a speed probe on each of ``cpus``; returns
        its result and the probes' mean CPU seconds per unit of work."""
        probes = []
        try:
            for cpu in cpus:
                probe = subprocess.Popen(
                    [sys.executable, str(SPEEDPROBE), str(cpu)], stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT
                )
                probes.append(probe)
                if probe.stdout.readline().strip() != "ready":
                    raise SystemExit("speedprobe.py failed to start")
            result = action()
        finally:
            for probe in probes:
                probe.terminate()
            outputs = [probe.communicate()[0].split() for probe in probes]
        per_unit = [float(seconds) / int(units) for units, seconds in outputs if int(units)]
        if not per_unit:
            raise SystemExit("speedprobe.py finished no unit of work")
        return result, statistics.fmean(per_unit)

    def run_pass(self, traced: bool) -> dict[str, float]:
        """Run every command once and check it; a traced pass returns per-layer metrics too."""
        totals = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0}
        prefixes = []
        for k, (argv, reference) in enumerate(zip(self.spec["commands"], self.reference)):
            args = [a.replace("{tmp}", str(self.tmp)) for a in argv] + ["--seed", str(self.seed)]
            prefix = self.tmp / f"trace{k}"
            if traced:
                head = [sys.executable, str(BENCH_DIR / "tracer.py"), str(prefix), "--"]
            else:
                head = [sys.executable, "-m", "hcgame.cli"]
            stdout = self.tmp / f"cmd{k}.out"
            child = run_child(head + args, self.env, stdout, self.deadline)
            if traced and prefix.with_suffix(".json").exists():
                prefixes.append(prefix)
            elif traced:
                self.problems.append(f"{' '.join(args)}: the traced run wrote no trace")
            totals["wall_s"] += child.wall_s
            totals["cpu_s"] += child.cpu_s
            totals["peak_rss_mb"] = max(totals["peak_rss_mb"], child.rss_mb)
            problems = reportcheck.check_command(reference, child.exit_code, stdout.read_text(), self.seed)
            if "export" in reference:
                problems += self.check_export(reference["export"])
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"{' '.join(args)}: {p}" for p in problems[:5]]
                self.problems += child.stderr.strip().splitlines()[-1:]
        if traced:
            totals.update(layer_metrics(prefixes))
        return totals

    def check_export(self, expected: dict) -> list[str]:
        path = self.tmp / "support.jsonl"
        if not path.exists():
            return ["--export wrote no file"]
        data = path.read_bytes()
        path.unlink()
        lines, digest = data.count(b"\n"), hashlib.sha256(data).hexdigest()
        if (lines, digest) != (expected["lines"], expected["sha256"]):
            return [f"export has {lines} lines, sha256 {digest}; reference {expected['lines']}, {expected['sha256']}"]
        return []


def layer_metrics(prefixes: list[Path]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its commands."""
    # Not imported at the top: a child's ru_maxrss includes this process's RSS
    # at fork, so the parent stays small while --trace 0 measures peak_rss_mb.
    import numpy as np

    totals: dict[str, float] = {}

    def add(metric: str, value: float) -> None:
        totals[metric] = totals.get(metric, 0) + value

    import_s = []
    for prefix in prefixes:
        meta = json.loads(prefix.with_suffix(".json").read_text())
        for name, stats in tracer.summarize(np.load(prefix.with_suffix(".npy")), meta["names"]).items():
            for key, value in stats.items():
                add(f"{name}.{key}", value)
        import_s.append(meta["import_s"])
        add("game.FacetAssignment.created", meta["facet_assignments_created"])
        add("nosignalling.support_entries", meta["support_entries"])
        for cache in CACHES:
            add(f"quantum.{cache}.hits", meta[cache][0])
            add(f"quantum.{cache}.misses", meta[cache][1])
    if import_s:
        totals["cli.import_s"] = statistics.median(import_s)
    return totals


def combine_traced(bench: Bench, traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics over all traced passes: counts must repeat exactly, times are medians."""
    units = PER_LAYER_UNITS
    metrics: dict[str, float] = {}
    for metric in units:
        samples = [p[metric] for p in traced if metric in p]
        if units[metric] == "count" and samples:
            if len(set(samples)) > 1:
                bench.problems.append(f"{metric} differs between traced passes: {samples}")
            metrics[metric] = samples[0]
        elif samples:
            metrics[metric] = statistics.median(samples)
    for cache in CACHES:
        hits, misses = metrics[f"quantum.{cache}.hits"], metrics[f"quantum.{cache}.misses"]
        metrics[f"quantum.{cache}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["src.lines"] = src_lines()
    metrics["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in untraced
    )
    for layer in EXERCISED[bench.name]:
        if not any(traced[0][m] for m in traced[0] if m.startswith(f"{layer}.") and m.endswith(".calls")):
            bench.problems.append(f"traced run recorded no calls into {layer}")
    return {metric: metrics[metric] for metric in units}


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced passes for ``seconds``; per-layer metrics and how each was taken."""
    start = time.monotonic()
    bench.setup_sample()  # compiles bytecode once, as a user's first run would
    untraced: list[dict] = []
    traced: list[dict] = []
    while True:
        pass_start = time.monotonic()
        untraced.append(bench.run_pass(traced=False))
        traced.append(bench.run_pass(traced=True))
        now = time.monotonic()
        if now - start >= seconds or now + (now - pass_start) > bench.deadline:
            break
    metrics = combine_traced(bench, traced, untraced)
    return metrics, {metric: f"median of {len(traced)}" for metric in metrics}


def interquartile_mean(values: list[float]) -> float:
    """Mean of the values left after dropping the lowest and highest quarter."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Run passes for ``seconds`` beside speed probes; end-to-end metrics and how each was taken.

    Each pass's wall and CPU times are scaled by PROBE_UNIT_REFERENCE_S over
    the probes' time per unit during that pass, and each set-up sample by that
    of its batch.  A one-job workload, and every set-up batch, runs pinned to
    one CPU with one probe, so the probe sees exactly the speed the pass sees.
    With only three or four passes of the longest workload in a run, the
    interquartile mean of the scaled passes is steadier than their median.
    """
    start = time.monotonic()
    cpus = sorted(os.sched_getaffinity(0))
    if bench.spec["jobs"] == 1:
        cpus = cpus[:1]
        os.sched_setaffinity(0, cpus)  # children inherit it
    bench.setup_sample()  # compiles bytecode once, as a user's first run would
    setup: list[float] = []

    def setup_batch() -> None:
        # An interpreter start is one thread: pin it with one probe on every workload.
        os.sched_setaffinity(0, cpus[:1])
        samples, per_unit = bench.probed(cpus[:1], lambda: [bench.setup_sample() for _ in range(SETUP_BATCH)])
        os.sched_setaffinity(0, cpus)
        setup.extend(sample * PROBE_UNIT_REFERENCE_S / per_unit for sample in samples)

    setup_batch()
    raw: list[dict] = []
    scaled: list[dict] = []
    while True:
        pass_start = time.monotonic()
        result, per_unit = bench.probed(cpus, lambda: bench.run_pass(traced=False))
        raw.append(result)
        scale = PROBE_UNIT_REFERENCE_S / per_unit
        scaled.append({"wall_s": result["wall_s"] * scale, "cpu_s": result["cpu_s"] * scale, "per_unit": per_unit})
        if len(raw) == 1:
            setup_batch()
        now = time.monotonic()
        if now - start >= seconds or now + (now - pass_start) > bench.deadline:
            break
    while len(setup) < SETUP_BATCHES * SETUP_BATCH:
        setup_batch()
    print(f"  unscaled medians: wall_s {statistics.median(p['wall_s'] for p in raw):.6g} s, "
          f"cpu_s {statistics.median(p['cpu_s'] for p in raw):.6g} s; probe on CPUs {cpus}: median "
          f"{statistics.median(p['per_unit'] for p in scaled) * 1e3:.6g} ms per unit")
    metrics = {
        "wall_s": interquartile_mean([p["wall_s"] for p in scaled]),
        "cpu_s": interquartile_mean([p["cpu_s"] for p in scaled]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in raw),
    }
    taken = {
        "wall_s": f"interquartile mean of {len(raw)}, scaled",
        "cpu_s": f"interquartile mean of {len(raw)}, scaled",
        "setup_s": f"median of {len(setup)}, scaled",
        "peak_rss_mb": f"median of {len(raw)}",
    }
    return metrics, taken


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hcgame" / "cli.py").is_file():
        print(f"no hcgame sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    # hcgame seeds numpy generators, which need a nonnegative seed
    seed = args.seed % (1 << 31)

    print("env " + json.dumps(environment()))
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        bench = Bench(args.workload, seed, tmp, time.monotonic() + RUN_BUDGET_S)
        metrics, taken = measure_traced(bench, args.seconds) if args.trace else measure(bench, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"{args.workload} seed={seed} trace={args.trace}: {bench.attempted} commands, {bench.failed} failed "
          f"(failed_ratio {bench.failed}/{bench.attempted} = {bench.failed / bench.attempted:.3g})")
    for name, value in metrics.items():
        how = "equal in every pass" if units[name] == "count" else taken[name]
        print(f"  {name:<48} {value:>14.6g} {units[name]:<6} {how}")
    for problem in bench.problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    result = {
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
