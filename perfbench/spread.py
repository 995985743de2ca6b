"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--workload NAME ...]

Runs the benchmark command of BENCHMARK.json once per seed on each
workload, with tracing off, from the current directory (the root of a
checkout). For every end-to-end metric it prints the median of the runs
and the distance between the first and third quartile as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound and
a third of it. A run that fails or reports correct=false is printed and
makes the script exit 1. The output, with the environment line first,
is the record kept in baseline.log.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import environment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    print("environment " + json.dumps(environment(Path.cwd())), flush=True)
    ok = True
    for name in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            took = time.monotonic() - start
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else {}
            if proc.returncode != 0 or not result.get("correct") or result.get("failed"):
                print(f"{name} seed {seed}: exit {proc.returncode}, result {result}\n{proc.stderr}")
                ok = False
                continue
            for metric, m in result["metrics"].items():
                values[metric].append(m["value"])
            print(f"{name} seed {seed} ({took:.1f} s): " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread < m["bound"] / 3 else "WIDE"
            print(f"SPREAD {name} {m['name']}: median {med:.6g} {m['unit']}, IQR/median {spread:.4f} "
                  f"(bound {m['bound']}, third {m['bound'] / 3:.4f}) {flag}", flush=True)
    print("all runs correct" if ok else "SOME RUNS FAILED OR WERE WRONG")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
