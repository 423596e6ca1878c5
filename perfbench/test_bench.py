"""Fast self-test of the benchmark at toy sizes.

    python3 -m pytest perfbench/test_bench.py -q

Checks that every workload runs and is correct, that every metric of
BENCHMARK.json is printed with its unit, that the traced layer self
times plus ``experiments.self_s`` add up to the traced run time, and
that the benchmark fails when the program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = ("run_s", "setup_s", "peak_rss_mb", "verdicts_failed_frac")
NOT_LAYER_TIMES = {"experiments.self_s", "cli.import_s", "trace.run_s"}


def _run(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", "--size", "toy", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc, None


def _printed_units(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3:
            out[parts[0]] = parts[2]
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    proc, result = _run("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2

    printed = _printed_units(proc.stdout)
    for name in END_TO_END:
        assert name in printed
    metrics = result["metrics"]
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"] == printed[m["name"]]

    value = {k: v["value"] for k, v in metrics.items()}
    layer_s = sum(v for k, v in value.items() if k.endswith(".s") and k not in NOT_LAYER_TIMES)
    run_s = value["trace.run_s"]
    assert value["experiments.self_s"] >= 0.0
    assert layer_s == pytest.approx(value["experiments.concurrency"] * run_s, rel=1e-9)
    if workload != "profile-n4000":  # single-threaded: self times tile the run
        assert layer_s + value["experiments.self_s"] == pytest.approx(run_s, rel=1e-9)


def test_untraced_run_reports_end_to_end_metrics():
    proc, result = _run("--workload", "annealed-n2000", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = _run("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
