"""Run-to-run spread of the end-to-end metrics, against the bounds in BENCHMARK.json.

    python3 bench/spread.py --workloads train-short train-long --seeds 1 2 3 4 5

Runs ``bench/run.py`` once per workload and seed, one run at a time, and
prints for each metric the median, the quartiles (``statistics.quantiles``
with n=4) and the spread: the distance between the quartiles as a share of
the median. A spread above a third of the metric's bound is flagged
``wide``; setup_s has no spread limit. Each run's result line is appended
to ``--log`` so two sets of runs can be compared afterwards.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--log", type=Path, default=ROOT / ".bench_out" / "spread.jsonl")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    args.log.parent.mkdir(exist_ok=True)
    wide = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds)
            with args.log.open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {len(args.seeds)} runs")
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  wide"
            wide += bool(flag)
            print(f"  {name:20s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:.4f}  bound {bounds[name]}{flag}")
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
