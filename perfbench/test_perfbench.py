"""Tests of the benchmark itself, at the ``tiny`` size (seconds, not minutes).

They run every workload on two seeds, the traced survey, the command line
and the refusal to run without the program's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.layers import survey
from perfbench import run
from perfbench.run import CountLedger, machine
from perfbench.tracing import Tracer
from perfbench.workloads import (
    SIM_WORKLOADS,
    SIZES,
    WORKLOADS,
    Outcome,
    build_simulator,
    run_end_to_end,
    sample_steps,
)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
TINY = SIZES["tiny"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert set(workload["name"] for workload in SPEC["workloads"]) <= set(WORKLOADS)
    assert run.WORKLOADS == WORKLOADS
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}
    assert END_TO_END["setup_s"] == "s" and bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_reports_every_metric_and_passes_its_checks(workload, seed, tmp_path):
    outcome = Outcome()
    run_end_to_end(workload, TINY, seed, 1.0, tmp_path, outcome)
    assert outcome.failures == [] and outcome.failed == 0
    assert outcome.attempted > 100
    assert {name: unit for name, (_, unit) in outcome.metrics.items()} == END_TO_END
    assert all(value > 0 for value, _ in outcome.metrics.values())
    assert outcome.counts


@pytest.mark.parametrize("workload,seed", [("stream-10k", 1), ("sweep-smoke", 2)])
def test_traced_survey_reports_every_layer_metric(workload, seed, tmp_path):
    outcome = Outcome()
    survey(workload, TINY, seed, tmp_path, tmp_path, machine(), outcome)
    metrics = {name: value for name, (value, _) in outcome.metrics.items()}
    assert {name: unit for name, (_, unit) in outcome.metrics.items()} == PER_LAYER
    assert outcome.failures == []
    assert metrics["trace.coverage"] >= 0.95
    assert metrics["cache.hit_ratio"] == 1.0
    assert metrics["executor.executed"] == metrics["executor.cached"] == metrics["executor.tasks"]
    trace = json.loads((tmp_path / f"trace-{workload}-seed{seed}.json").read_text())
    assert set(trace["env"]) == {"cpu_count", "machine", "python", "numpy"}
    spans = trace["spans"]
    assert {"name", "start", "end", "parent", "run_id"} == set(spans[0])
    layers = {span["name"].split("/")[0] for span in spans}
    assert {"overlay", "market_sim", "streaming_sim", "recorder", "metrics", "shard", "plan",
            "partition", "executor", "cache", "grid", "aggregate", "obs", "bench"} <= layers
    assert len({span["run_id"] for span in spans}) == 4
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert parent["run_id"] == span["run_id"]


def test_self_times_add_up_to_the_root():
    tracer = Tracer("test")
    with tracer.span("bench/run") as root:
        with tracer.span("a/outer"):
            with tracer.span("b/inner"):
                sum(range(10_000))
        with tracer.span("b/other"):
            sum(range(10_000))
    self_times = tracer.self_times(root)
    assert set(self_times) == {"bench", "a", "b"}
    assert sum(self_times.values()) == pytest.approx(root.duration)
    assert all(value >= 0 for value in self_times.values())


@pytest.mark.parametrize("workload", list(SIM_WORKLOADS))
def test_sample_steps_match_the_recorder(workload):
    spec = SIM_WORKLOADS[workload]
    simulator, _, _, _ = build_simulator(spec, spec.peers(TINY), 3, Tracer("t", enabled=False))
    steps = 65
    simulator.advance_rounds(steps)
    flags = sample_steps(simulator.config, steps)
    assert len(simulator.recorder.gini_series.x) == int(np.count_nonzero(flags))


def test_count_ledger_flags_a_changed_count(tmp_path):
    ledger = CountLedger(tmp_path / "counts.json")
    assert ledger.compare("key", {"edges": 10}) is None
    assert CountLedger(tmp_path / "counts.json").compare("key", {"edges": 10}) is None
    assert "edges" in CountLedger(tmp_path / "counts.json").compare("key", {"edges": 11})
    assert CountLedger(tmp_path / "counts.json").compare("other", {"edges": 11}) is None


def test_command_prints_every_metric_and_a_json_last_line(tmp_path):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "market-churn-10k", "--seed", "4",
         "--seconds", "1", "--trace", "0", "--size", "tiny", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    for name, unit in END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(re.match(rf"^{re.escape(name)}: \S+ {re.escape(unit)}$", line) for line in lines)
    assert any(line.startswith("failed_ratio: 0 ") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-smoke", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert "{" not in completed.stdout
