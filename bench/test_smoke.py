"""Smoke test of the benchmark at tiny scale.

    python3 -m pytest bench/test_smoke.py -q

Every workload runs with ``--tiny`` inputs: the result line carries exactly
the metrics ``BENCHMARK.json`` names, with their units, every output check
passes, and one seed gives one digest whether traced or not.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int, root: Path = ROOT):
    cmd = [
        sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def _result(workload: str, seed: int, trace: int):
    proc = _run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info_line), json.loads(result_line)


def _check_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    info, result = _result(workload, 5, 0)
    _check_metrics(result, SPEC["end_to_end"])
    assert info["checks"]["failed"] == 0 and info["fail_ratio"] == 0
    assert info["samples"] >= 100

    again, _ = _result(workload, 5, 0)
    assert again["digest"] == info["digest"]
    other, _ = _result(workload, 6, 0)
    assert other["digest"] != info["digest"]

    traced_info, traced = _result(workload, 5, 1)
    _check_metrics(traced, SPEC["per_layer"])
    assert traced_info["digest"] == info["digest"]
    assert (ROOT / traced_info["spans_file"]).is_file()


def test_refuses_without_sources():
    """A directory holding only BENCHMARK.json and the benchmark fails fast."""
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        proc = _run("cli_requests", 1, 0, root=bare)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)
