"""Smoke tests for the benchmark at reduced size (1D N=256, 2D 32x32).

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_small(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return "\n".join(lines[:-1]), json.loads(lines[-1])


def test_benchmark_json_parses():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert set(bounds) == set(run.END_TO_END_UNITS)
    assert all(0 < b <= 0.25 for b in bounds.values()) and bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    text, result = run_small(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert f" {name} " in text and f" {unit} " in text
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def flip_byte(path: Path, offset: int = 100) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def test_corrupted_simulate_output_counts_as_failure(tmp_path):
    wl = workloads.Simulate2D(5, "small", tmp_path)
    run_pass = wl.run_pass

    def corrupted_pass():
        status, out = run_pass()
        flip_byte(out / "snap_0002.bin")
        return status, out

    wl.run_pass = corrupted_pass
    result = worker.run_passes(wl, seconds=0)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert "snap_0002.bin does not match its manifest entry" in result["problems"]


def test_corrupted_snapshot_read_fails_that_snapshot(tmp_path):
    wl = workloads.Analyze2D(5, "small", tmp_path)
    flip_byte(wl.paths[3], offset=200)
    result = worker.run_passes(wl, seconds=0)
    assert (result["attempted"], result["failed"]) == (wl.nsnap, 1)
    assert any("snapshot 3 read back differs" in msg for msg in result["problems"])


def test_solver_steps_follow_integrate():
    assert workloads.schedule_steps([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], 0.05) == 20
    assert workloads.schedule_steps([1.0, 2.5], 1.0) == 3
