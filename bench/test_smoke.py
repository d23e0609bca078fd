"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py

Each workload runs once untraced and once traced, on the held-out seed; the
test asserts that every metric BENCHMARK.json declares is printed with its
unit and that no operation failed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORD = json.loads((ROOT / "bench" / "record.json").read_text())
HELD_OUT_SEED = RECORD["baseline"]["held_out_seed"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_without_errors(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(HELD_OUT_SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(ln.startswith(f"{m['name']} = ") and ln.endswith(f" {m['unit']}")
                   for ln in lines), m["name"]
    assert result["failed"] == 0 and result["correct"], proc.stdout
    assert any(ln.startswith("error_rate = 0 fraction") for ln in lines)


def test_record_maps_every_layer_metric():
    for m in SPEC["per_layer"]:
        entry = RECORD["per_layer"][m["name"]]
        assert entry["module"] in RECORD["layers"]
        for target in entry["moves"]:
            assert target["metric"] in {e["name"] for e in SPEC["end_to_end"]}
            assert target["workload"] in {w["name"] for w in SPEC["workloads"]}
