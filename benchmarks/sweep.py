"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 benchmarks/sweep.py --workloads exact-verify flow-ensemble --seeds 1-10
    python3 benchmarks/sweep.py --seeds 1-10 --out benchmarks/baseline.json

Runs are sequential, one process at a time.  With --out, one traced run per
workload (the first seed) adds the per-layer metrics.  Spread is the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of the
median; a metric is steady when its spread is below a third of its bound in
BENCHMARK.json.
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

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None,
                        help="write medians, spreads and per-layer metrics as JSON here")
    args = parser.parse_args(argv)

    import numpy
    report = {"host": {"python": platform.python_version(), "numpy": numpy.__version__,
                       "machine": platform.machine(), "nproc": os.cpu_count()},
              "seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in parse_seeds(args.seeds)]
        rows = {}
        print(f"{workload}: correct {all(r['correct'] for r in runs)}, "
              f"failed {[r['failed'] for r in runs]} of {[r['attempted'] for r in runs]}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            steady &= ok
            rows[metric["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                    "unit": metric["unit"], "values": values}
            print(f"  {metric['name']:14s} median {med:10.4f} {metric['unit']:5s} "
                  f"spread {spread:6.3f} (bound {metric['bound']}){'' if ok else '  NOT STEADY'}")
        report["workloads"][workload] = rows
        if args.out:
            traced = run_once(workload, parse_seeds(args.seeds)[0], args.seconds, 1)
            report.setdefault("per_layer", {})[workload] = traced["metrics"]
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
