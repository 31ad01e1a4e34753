"""Run the benchmark over many seeds and record the result in baseline.json.

Usage (from the repository root; about 30 minutes with the defaults):

    python3 bench/record_baseline.py [--seeds 1-10] [--heldout 1001] [--seconds 20]

For every workload: one untraced run per seed, with each end-to-end
metric's median, quartiles and spread (interquartile range over median,
as statistics.quantiles(values, n=4) gives the quartiles); one untraced
run on the held-out seed; one traced run for the per-layer metrics, the
tracing overhead and the known defects that still fail.  The machine and
library versions go alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["failure_lines"] = [line for line in lines[:-1] if line.startswith(("failed:", "known defect"))]
    return result


def machine() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "platform": platform.platform(),
    }


def summarize(results: list, name: str) -> dict:
    values = [r["metrics"][name]["value"] for r in results]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"unit": results[0]["metrics"][name]["unit"], "median": statistics.median(values),
            "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values), "values": values}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(v) for v in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--heldout", type=int, default=1001)
    parser.add_argument("--seconds", type=int, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    doc = {"machine": machine(), "seconds": args.seconds, "seeds": seeds, "heldout_seed": args.heldout,
           "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        runs = []
        for s in seeds:
            runs.append(run(w, s, args.seconds, 0))
            print(w, s, {k: v["value"] for k, v in runs[-1]["metrics"].items()}, file=sys.stderr, flush=True)
        heldout = run(w, args.heldout, args.seconds, 0)
        traced = run(w, seeds[0], args.seconds, 1)
        doc["workloads"][w] = {
            "end_to_end": {m["name"]: summarize(runs, m["name"]) for m in spec["end_to_end"]},
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "failure_lines": traced["failure_lines"],
            "heldout": {k: v["value"] for k, v in heldout["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
