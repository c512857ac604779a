"""Tests of the benchmark itself: its output checks, its span arithmetic and its tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from allocgen.scenario import build_portfolio, load_scenario, parse_scenario, run_scenario  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _run(raw_or_path, out: Path):
    if isinstance(raw_or_path, dict):
        config = parse_scenario(raw_or_path, name="pool")
    else:
        config = load_scenario(raw_or_path)
    run_scenario(config, out)
    return config


def _small_pool_raw() -> dict:
    """The shipped sampled pool, shrunk to 300 risks on 2^11 points."""
    raw = yaml.safe_load((ROOT / "scenarios" / "large_pool.yaml").read_text())
    raw["kmax"] = 2048
    raw["model"]["sampled"]["count"] = 300
    return raw


def test_report_check_accepts_engine_output_and_rejects_off_euler_sum(tmp_path):
    _run(ROOT / "scenarios" / "small_pool.yaml", tmp_path)
    text = (tmp_path / "report.txt").read_text()
    assert checks.report_errors(text) == []
    report = checks.parse_report(text)
    assert report.valid_points == 25 and len(report.rvar) == 3

    levels, total, summed = report.rvar[0]
    off = text.replace(f"sum_contributions={summed!r}", f"sum_contributions={summed * (1 + 1e-6)!r}", 1)
    assert off != text
    errors = checks.report_errors(off)
    assert len(errors) == 1 and f"rvar({levels})" in errors[0]


def test_report_check_rejects_report_without_gates():
    assert checks.report_errors("scenario: x\n") != []


@pytest.fixture(scope="module")
def pool_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pool")
    config = _run(_small_pool_raw(), out)
    risks = build_portfolio(config).portfolio.risks
    return out / "allocations.csv", risks


def test_pool_check_accepts_engine_output(pool_run):
    csv, risks = pool_run
    columns = checks.read_allocations(csv)
    assert [n for n in columns if n.startswith("mu_")] == [f"mu_{i}" for i in range(1, 9)]
    assert (columns["valid"] == 1).sum() > 100
    assert checks.pool_errors(columns, risks) == []


def test_pool_check_rejects_one_entry_off_by_1e9_relative(pool_run, tmp_path):
    csv, risks = pool_run
    lines = csv.read_text().splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    names = lines[header].strip().split(",")
    col = names.index("mu_3")
    rows = [i for i in range(header + 1, len(lines)) if lines[i].rstrip().endswith(",1")]
    row = rows[len(rows) // 2]
    fields = lines[row].rstrip("\n").split(",")
    fields[col] = repr(float(fields[col]) * (1 + 1e-9))
    lines[row] = ",".join(fields) + "\n"
    bad = tmp_path / "allocations.csv"
    bad.write_text("".join(lines))

    errors = checks.pool_errors(checks.read_allocations(bad), risks)
    assert len(errors) == 1 and errors[0].startswith("mu_3: 1 valid rows")


def test_self_time_on_nested_trace():
    # root [0, 10] holds a [1, 4], which holds c [2, 3], and b twice: [5, 7] and [7.5, 9]
    trace = [
        spans.Span("root", 0.0, 10.0, -1),
        spans.Span("a", 1.0, 4.0, 0),
        spans.Span("c", 2.0, 3.0, 1),
        spans.Span("b", 5.0, 7.0, 0),
        spans.Span("b", 7.5, 9.0, 0),
    ]
    summary = spans.summarize(trace)
    assert summary["root"] == {"calls": 1, "self_s": 3.5, "span_s": 10.0}
    assert summary["a"] == {"calls": 1, "self_s": 2.0, "span_s": 3.0}
    assert summary["c"] == {"calls": 1, "self_s": 1.0, "span_s": 1.0}
    assert summary["b"] == {"calls": 2, "self_s": 3.5, "span_s": 3.5}
    assert sum(e["self_s"] for e in summary.values()) == pytest.approx(10.0)


def test_tracer_records_parents_and_counters():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, lambda t, args, result: t.add("seen", result))
    assert tracer.call("outer", lambda: inner(1) + inner(2)) == 5
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert tracer.counters == {"seen": 5}


def test_traced_run_wraps_bindings_imported_by_name(tmp_path):
    record = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), "trace", str(record),
         "run", str(ROOT / "scenarios" / "shock.yaml"), "--out", str(tmp_path / "out")],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    data = json.loads(record.read_text())
    assert "allocgen.dependence.assemble_table" in data["bindings"]["allocation.assemble_table"]
    assert "allocgen.scenario.allocate_independent" in data["bindings"]["allocation.allocate_independent"]
    assert "allocgen.cli.build_portfolio" in data["bindings"]["scenario.build_portfolio"]

    summary = spans.summarize([spans.Span(*s) for s in data["spans"]])
    # shock_allocation_table reaches assemble_table through dependence's own binding
    assert summary["allocation.assemble_table"]["calls"] == 1
    assert summary["dependence.shock_allocation_table"]["calls"] == 1
    assert summary["gf.idft"]["calls"] == 9
    root = summary.pop("cli.main")
    assert root["self_s"] + sum(e["self_s"] for e in summary.values()) == pytest.approx(root["span_s"])
    assert data["counters"]["scenario.risks_built"] == 8


def test_setup_probe_stops_when_build_portfolio_returns(tmp_path):
    launch = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "probe.py"), "setup",
         "run", str(ROOT / "scenarios" / "small_pool.yaml"), "--out", str(tmp_path / "out")],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert launch < float(done.stdout) < time.monotonic()
    assert not (tmp_path / "out" / "report.txt").exists()


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
