"""Smoke test of the benchmark itself: one short run of every workload.

Not part of the repository's test suite (pytest collects ``tests/`` only);
run it from the repository root with

    python3 -m pytest -q perfbench/tests

It takes about two minutes on two cores.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((ROOT / "perfbench" / "design.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: per-layer metrics that are exact counts, so they repeat for a seed
COUNT_SUFFIXES = (".calls", ".terms", ".iterations", ".inner_iterations", ".flops_computed",
                  ".errors", ".repeat_share")


def bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def assert_metrics(out: dict, specs: list[dict]) -> None:
    assert set(out["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert out["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    proc = bench(ROOT, workload, 3, 0)
    out = result(proc)
    assert_metrics(out, SPEC["end_to_end"])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert all(m["value"] > 0 for m in out["metrics"].values())
    shown = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()
             if line.startswith("  ")}
    assert shown["failed_share"] == ["0", "ratio"]
    assert "op_p90_ms" in shown
    # the gated *_ref metrics come with their wall-clock counterparts
    assert float(shown["ops_per_s"][0]) > 0 and float(shown["op_p50_ms"][0]) > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (result(bench(ROOT, workload, 5, 1)) for _ in range(2))
    for out in (first, second):
        assert_metrics(out, SPEC["per_layer"])
        assert out["correct"] and out["failed"] == 0
    counts = [name for name in first["metrics"] if name.endswith(COUNT_SUFFIXES)]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_every_layer_metric_names_what_it_should_move():
    moves = DESIGN["per_layer_moves"]
    for m in SPEC["per_layer"]:
        entry = next((e for e in moves if m["name"].startswith(e.get("prefix", "\0"))
                      or m["name"].endswith(e.get("suffix", "\0"))), None)
        assert entry is not None, m["name"]
        assert entry["moves"] and entry["on"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 1, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
