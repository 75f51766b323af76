#!/usr/bin/env python3
"""Run-to-run spread of the pipeline benchmark's end-to-end metrics.

Runs every workload once per seed 1..N with tracing off and prints, per
end-to-end metric, the median of the runs and the distance between their
first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json.

    python3 pipebench/spread.py --seeds 10
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worst = 0.0
    for w in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, args.seeds + 1):
            cmd = [sys.executable, str(ROOT / "pipebench" / "run.py"),
                   "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if res.returncode != 0:
                sys.exit(f"{w} seed {seed} failed:\n{res.stderr}")
            out = json.loads(res.stdout.splitlines()[-1])
            if not out["correct"]:
                sys.exit(f"{w} seed {seed}: outputs wrong\n{res.stdout}")
            for name, m in out["metrics"].items():
                values[name].append(m["value"])
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / statistics.median(v)
            worst = max(worst, spread / m["bound"])
            flag = "" if spread < m["bound"] / 3 else "  <-- over bound/3"
            print(f"{w:16} {m['name']:17} median {statistics.median(v):12.6g}"
                  f"  spread {spread:7.4f}  bound {m['bound']}{flag}")
        sys.stdout.flush()
    print(f"largest spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
