"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

TINY = {
    "cyclic-8k": {"kind": "network", "nodes": 300},
    "sessions-600": {"kind": "log", "items": 200, "dense_threshold": 64},
    "synthetic-audit": {"kind": "audit", "size": 150, "walkers": 5000},
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", TINY)


def _printed(capsys, argv) -> dict:
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _declared() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(tiny, capsys, workload, trace):
    result = _printed(capsys, ["--workload", workload, "--seed", "5", "--seconds", "0",
                               "--trace", str(trace)])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_declared_workloads_match():
    assert sorted(w["name"] for w in _declared()["workloads"]) == sorted(run.WORKLOADS)
    assert set(TINY) == set(run.WORKLOADS)


def test_perturbed_stats_value_is_counted(monkeypatch):
    real_spawn = run.spawn

    def spawn_then_perturb(cmds, trace, out):
        report = real_spawn(cmds, trace, out)
        if not cmds:  # the import-only warm-up
            return report
        stats = out / "run" / "stats.csv"
        lines = stats.read_text().splitlines()
        cells = lines[1].split(",")
        cells[-1] = repr(float(cells[-1]) * (1 + 1e-6))  # phi of the first node
        lines[1] = ",".join(cells)
        stats.write_text("\n".join(lines) + "\n")
        return report

    monkeypatch.setattr(run, "spawn", spawn_then_perturb)
    result = run.run("sessions-600", seed=2, seconds=0, trace=False,
                     params=TINY["sessions-600"])
    iterations = len(result["samples"]["wall_s"])
    assert result["correct"] is False
    assert result["failed"] == iterations
    assert all("stats_columns" in p for p in result["problems"])
    assert 0 < result["failed"] / result["attempted"] < 1


def test_self_time_and_nesting():
    spans = [
        {"name": "cli.pipeline", "parent": None, "start": 0.0, "end": 10.0, "rss_rise_mb": 5.0},
        {"name": "network.validate", "parent": 0, "start": 1.0, "end": 3.0, "rss_rise_mb": 1.0},
        {"name": "network.drop_uncertified", "parent": 0, "start": 4.0, "end": 8.0,
         "rss_rise_mb": 2.0},
        {"name": "network.validate", "parent": 2, "start": 5.0, "end": 6.0, "rss_rise_mb": 1.5},
    ]
    agg = tracing.aggregate(spans)
    assert agg["total"]["network.validate"] == 3.0
    assert agg["self_by_layer"]["cli"] == 4.0
    assert agg["self_by_layer"]["network"] == 6.0
    assert agg["self_by_name"]["network.drop_uncertified"] == 3.0
    # nested network spans do not add to the layer's RSS rise twice
    assert agg["rss_by_layer"]["network"] == 3.0


def test_missing_target_is_recorded_not_raised():
    tracer = tracing.Tracer()
    tracer.install([("attnflow.network.no_such_function", "network.none", None),
                    ("attnflow_missing.module.f", "x.none", None)])
    assert tracer.missing == ["attnflow.network.no_such_function", "attnflow_missing.module.f"]


def test_fails_without_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cyclic-8k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
