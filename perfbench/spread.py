#!/usr/bin/env python3
"""Checks how steady the benchmark is on one workload.

    python3 perfbench/spread.py --workload <name> [--seeds 1-10] [--seconds <s>]

Runs the workload once per seed through run.py (end-to-end metrics, tracing
off) and prints, for each metric, the median of the runs and the distance
between their first and third quartiles as a share of the median — the
spread a regression bound in BENCHMARK.json has to cover. Metrics whose
spread exceeds a third of their bound are marked.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        run = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        if run.returncode != 0:
            sys.exit(f"seed {seed}: run failed with exit code {run.returncode}")
        result = json.loads(run.stdout.splitlines()[-1])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])

    print(f"{args.workload}: {len(args.seeds)} runs of {seconds} s")
    for m in spec["end_to_end"]:
        runs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(runs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        mark = "  <-- above bound/3" if spread > m["bound"] / 3 else ""
        print(f"  {m['name']:<22} median {med:>14.6g} {m['unit']:<5} "
              f"spread {spread:6.3f} (bound {m['bound']}){mark}")


if __name__ == "__main__":
    main()
