"""Smoke test of the benchmark itself: every workload at tiny size, one round,
untraced and traced.

    python3 -m pytest perfbench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == \
        {name: (unit, better) for name, (unit, better, _) in layers.PER_LAYER.items()}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_reports_every_metric_and_passes_its_checks(workload, trace):
    proc = _bench("--workload", workload, "--seed", str(run.DEFAULT_SEED), "--seconds", "0",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] == len(run.WORKLOADS[workload]["ops"]) * (2 if trace else 1)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if trace:
        assert "absent spans" not in proc.stdout
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "exact_front", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
