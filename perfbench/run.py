#!/usr/bin/env python3
"""allocgen's benchmark: seeded `allocgen run` workloads, timed end to end, outputs checked.

    python3 perfbench/run.py --workload pool10k [--seed 20260810] [--seconds 30] [--trace 0|1]

Run it from the root of a source checkout; the program runs from ``src``.
Each `allocgen run` is its own process, one at a time, writing into a fresh
directory under ``.perfbench_tmp/`` that is removed afterwards.

With ``--trace 0`` the end-to-end metrics are measured with nothing traced.
With ``--trace 1`` the untraced runs still give ``wall_s``, and one more run
per job, with spans around allocgen's public functions, gives the per-layer
split.  Every run's outputs are checked; a run that exits non-zero or fails a
check counts as failed.  The metrics are printed by name and unit, with
``failed_frac`` and the raw ``identity_dev``; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The benchmark's own tests: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
PROBE = HERE / "probe.py"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

# A run must end within three minutes; children still running after this are killed.
RUN_DEADLINE_S = 170.0
# A run times at least MIN_REPS repetitions and reports their median.
MIN_REPS = 3
# Set-up is probed at least SETUP_PROBES_MIN times and for a third of the run.
SETUP_PROBES_MIN, SETUP_PROBES_MAX = 5, 15

# identity_digits = -log10(identity_dev): a relative bound on digits of
# agreement tolerates round-off reordering but not a real loss of accuracy.
# A deviation below double precision's resolution counts as 17 digits.
DIGITS_FLOOR = 1e-17

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "identity_digits": "digits",
    "valid_points": "count",
}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.main.s": "s",
    **{f"{mod}.{fn}.s": "s" for mod, names in spans.TRACED.items() for fn in names},
    "scenario.allocate_portfolio.span_s": "s",
    "scenario.risks_built": "count",
    "scenario.bytes_written": "B",
    "gf.dft.calls": "count",
    "gf.idft.calls": "count",
    "gf.points": "count",
    "gf.bytes_computed": "B",
    "allocation.table_bytes_computed": "B",
    "rss_after_build_mb": "MB",
    "rss_after_allocate_mb": "MB",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Tally:
    """Process runs attempted and failed, with the reasons."""

    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    failed: int = 0

    def record(self, label: str, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += [f"{label}: {e}" for e in errors]
        return not errors


class Runner:
    """Starts the workload's child processes, one at a time, before a common deadline."""

    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.log = open(tmp / "children.log", "ab")

    def close(self) -> None:
        self.log.close()

    def spawn(self, args: list[str]) -> tuple[int, float, float]:
        """Run ``python3 <args>``; returns exit code, wall seconds and peak RSS in MB."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=ENV, stdout=self.log, stderr=subprocess.STDOUT
        )
        killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def setup_s(self, job: workloads.Job) -> float:
        """Seconds from launch until ``build_portfolio`` returns, in an untraced process."""
        launch = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(PROBE), "setup", *job.cli_args(self.tmp / "unused")],
            cwd=ROOT, env=ENV, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - launch),
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed on {job.scenario.name}: {done.stderr[-2000:]}")
        return float(done.stdout.split()[-1]) - launch


class OutputCheck:
    """Checks one workload's outputs; the reference pool is rebuilt once per run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.reports: dict[Path, str] = {}
        self._pool = None

    def __call__(self, job: workloads.Job, code: int, out: Path) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        text = (out / "report.txt").read_text()
        errors = checks.report_errors(text)
        first = self.reports.setdefault(job.scenario, text)
        if text != first:
            errors.append("report.txt differs from an earlier run of the same inputs")
        if self.workload == "pool10k":
            errors += checks.pool_errors(checks.read_allocations(out / "allocations.csv"), self._risks(job))
        return errors

    def _risks(self, job: workloads.Job):
        if self._pool is None:
            from allocgen.scenario import build_portfolio, load_scenario

            config = load_scenario(job.scenario)
            config.seed = job.seed_arg
            self._pool = build_portfolio(config).portfolio.risks
        return self._pool


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def measure(name, jobs, seconds, runner, check, tally):
    """Repeat the workload until ``seconds`` of it have been timed; per-repetition walls."""
    walls, peak_rss = [], 0.0
    while len(walls) < MIN_REPS or sum(walls) < seconds:
        wall = 0.0
        for i, job in enumerate(jobs):
            out = runner.tmp / f"out{i}"
            code, job_wall, rss = runner.spawn(["-m", "allocgen.cli", *job.cli_args(out)])
            wall += job_wall
            peak_rss = max(peak_rss, rss)
            tally.record(f"run {job.scenario.name}", check(job, code, out))
            shutil.rmtree(out, ignore_errors=True)
        walls.append(wall)
    return walls, peak_rss


def run_oracles(name, runner, tally):
    for scenario in workloads.ORACLE_SCENARIOS.get(name, ()):
        path = ROOT / "scenarios" / f"{scenario}.yaml"
        code, _, _ = runner.spawn(["-m", "allocgen.cli", "oracle", str(path)])
        tally.record(f"oracle {scenario}", [] if code == 0 else [f"exit code {code}"])


def traced(name, jobs, runner, check, tally):
    """One traced run of each job; span summaries and counters summed over the jobs."""
    summary: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {"cli.import_s": 0.0, "scenario.bytes_written": 0, "trace.wall_s": 0.0}
    for i, job in enumerate(jobs):
        out = runner.tmp / f"traced{i}"
        record = runner.tmp / f"trace{i}.json"
        code, wall, _ = runner.spawn([str(PROBE), "trace", str(record), *job.cli_args(out)])
        counters["trace.wall_s"] += wall
        ok = tally.record(f"traced run {job.scenario.name}", check(job, code, out))
        if ok:
            data = json.loads(record.read_text())
            counters["cli.import_s"] += data["import_s"]
            counters["scenario.bytes_written"] += _dir_bytes(out)
            for key, value in data["counters"].items():
                if key.startswith("rss_"):
                    counters[key] = max(counters.get(key, 0.0), value)
                else:
                    counters[key] = counters.get(key, 0) + value
            job_spans = [spans.Span(*s) for s in data["spans"]]
            for span, entry in spans.summarize(job_spans).items():
                total = summary.setdefault(span, {"calls": 0, "self_s": 0.0, "span_s": 0.0})
                for key in total:
                    total[key] += entry[key]
        shutil.rmtree(out, ignore_errors=True)
    missing = [s for s in workloads.EXPECTED_SPANS[name] if summary.get(s, {}).get("calls", 0) == 0]
    tally.record("traced spans", [f"expected span {s} recorded no calls" for s in missing])
    return summary, counters


def per_layer_metrics(summary, counters, untraced_wall):
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    for span, entry in summary.items():
        values[f"{span}.s"] = entry["self_s"]
    values["scenario.allocate_portfolio.span_s"] = summary.get("scenario.allocate_portfolio", {}).get("span_s", 0.0)
    values["gf.dft.calls"] = summary.get("gf.dft", {}).get("calls", 0)
    values["gf.idft.calls"] = summary.get("gf.idft", {}).get("calls", 0)
    values.update(counters)
    values["trace.overhead_s"] = counters["trace.wall_s"] - untraced_wall
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def environment() -> str:
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return (f"{os.cpu_count()} CPUs, {memory:.1f} GiB, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, scipy {importlib.metadata.version('scipy')}")


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    runner = Runner(tmp, started + RUN_DEADLINE_S)
    tally = Tally()
    try:
        jobs = workloads.jobs(name, ROOT, seed)
        check = OutputCheck(name)
        # compile and cache the program's modules before anything is timed
        runner.spawn(["-c", "import allocgen.cli"])

        setups: list[float] = []
        if not trace:
            probe_start = time.monotonic()
            while len(setups) < SETUP_PROBES_MIN or (
                len(setups) < SETUP_PROBES_MAX and time.monotonic() - probe_start < seconds / 3
            ):
                setups.append(sum(runner.setup_s(job) for job in jobs))

        walls, peak_rss = measure(name, jobs, seconds, runner, check, tally)
        run_oracles(name, runner, tally)
        if not check.reports:
            raise RuntimeError("no run of the workload succeeded: " + "; ".join(tally.errors[:5]))
        reports = [checks.parse_report(text) for text in check.reports.values()]
        identity_dev = max(r.identity_dev for r in reports)
        wall = statistics.median(walls)
        if trace:
            summary, counters = traced(name, jobs, runner, check, tally)
            metrics = per_layer_metrics(summary, counters, wall)
        else:
            values = {
                "wall_s": wall,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss,
                "identity_digits": -math.log10(max(identity_dev, DIGITS_FLOOR)),
                "valid_points": sum(r.valid_points for r in reports),
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    finally:
        runner.close()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run's directory is still there

    print(f"workload {name}, seed {seed}: {len(walls)} timed repetition(s) of {len(jobs)} job(s), "
          f"{len(setups)} set-up probe(s), {time.monotonic() - started:.1f} s in all")
    print(f"  on {environment()}")
    print(f"  repetitions (s): {', '.join(f'{w:.4f}' for w in walls)}")
    if setups:
        print(f"  set-up probes (s): {', '.join(f'{s:.4f}' for s in setups)}")
    for metric, entry in metrics.items():
        print(f"  {metric:42s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  {'identity_dev':42s} {identity_dev:>16.6g} 1")
    print(f"  {'failed_frac':42s} {tally.failed / tally.attempted:>16.6g} 1 "
          f"({tally.failed} of {tally.attempted} runs)")
    for error in tally.errors:
        print(f"  FAILED {error}")
    return {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.SHIPPED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "allocgen" / "cli.py", ROOT / "scenarios") if not p.exists()]
    if missing:
        print(f"not a source checkout of allocgen: {', '.join(map(str, missing))} missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # unwind on SIGTERM too, so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
