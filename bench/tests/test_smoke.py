"""Smoke tests of the benchmark at tiny sizes.

    python -m pytest bench/tests -q

Every workload runs traced and untraced and must print every metric that
BENCHMARK.json names, with its unit; a flipped checkpoint byte must trip the
correctness gate; and without the program next to it the command must fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT = 300

# Pins the thread pools the way run.py does, then saves the first checkpoint
# normally and every later one with its last byte flipped on disk. With one
# round the gate's save-load-save check sees the flip, with more rounds the
# train() repeat check does too.
FLIP_LAUNCHER = """
import os, sys
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
bench, src = sys.argv[1:3]
sys.path[:0] = [src, bench]
from pathlib import Path
from xlembed import trainer

original = trainer.save_checkpoint
saved = []

def save_and_flip(ckpt, path):
    original(ckpt, path)
    saved.append(path)
    if len(saved) > 1:
        blob = bytearray(Path(path).read_bytes())
        blob[-1] ^= 0x01
        Path(path).write_bytes(bytes(blob))

trainer.save_checkpoint = save_and_flip
import harness
sys.exit(harness.main(sys.argv[3:]))
"""


def tiny_args(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
            "--size", "tiny"]


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *tiny_args(workload, trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT,
    )
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
        assert f"metric {name} " in proc.stdout
    assert "error_rate 0 " in proc.stdout
    assert "FAIL" not in proc.stdout


def test_flipped_checkpoint_byte_trips_the_gate(tmp_path):
    launcher = tmp_path / "flip.py"
    launcher.write_text(FLIP_LAUNCHER)
    proc = subprocess.run(
        [sys.executable, str(launcher), str(BENCH), str(ROOT / "src"), *tiny_args("train-short", 0)],
        cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT,
    )
    assert proc.returncode != 0
    result = last_json(proc.stdout)
    assert result["correct"] is False and result["failed"] >= 1
    assert "check checkpoint_round_trip FAIL" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *tiny_args("train-short", 0)],
        cwd=tmp_path, capture_output=True, text=True, timeout=TIMEOUT,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
