#!/usr/bin/env python3
"""Pipeline benchmark: builds pipebench from source and runs one workload.

Run from the root of a checkout:

    python3 pipebench/run.py --workload jacobi_drift --seed 1 --seconds 10 --trace 0
    python3 pipebench/run.py --self-check

The benchmark program is built under .bench_build/pipebench with the
repository's default settings (RelWithDebInfo) on first use. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end_to_end metrics
of BENCHMARK.json; with --trace 1 they are its per_layer metrics. Every
declared metric must be printed by the program with its declared unit; a
workload sets the metrics of the layers it leaves idle to 0 itself. A
traced run also writes a Chrome trace-event file under
.bench_build/traces.

--self-check runs every workload at minimal size, checks that every
declared metric is printed with its declared unit, and checks that a
deliberately wrong answer is counted as a failure.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "pipebench"
BINARY = BUILD_DIR / "pipebench"
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def build():
    """Configures (once) and builds the benchmark; a no-op when current."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "pipebench"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def source_id():
    """Git commit when available, and a digest of the framework sources."""
    sha = "none"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            sha = res.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return f"git:{sha} src-sha256:{digest.hexdigest()[:16]}"


def run_program(args, extra=()):
    """Runs the benchmark program once; returns (notes, result dict)."""
    work = BUILD_ROOT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    traces = BUILD_ROOT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-file", str(traces / f"pipebench-{args.workload}-{args.seed}.json"),
           "--work-dir", str(work), "--sha", source_id(), *extra]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(res.stderr)
    lines = res.stdout.splitlines()
    if res.returncode != 0 or not lines:
        raise BenchError(f"{args.workload} exited with {res.returncode}")
    return lines[:-1], json.loads(lines[-1])


def select_metrics(spec, workload, result, trace):
    """The metrics BENCHMARK.json declares for this mode, with units checked."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result["metrics"]
    out = {}
    for m in declared:
        name, unit = m["name"], m["unit"]
        got = measured.get(name)
        if got is None:
            raise BenchError(f"{workload}: metric {name} was not measured")
        if got["unit"] != unit:
            raise BenchError(f"{workload}: {name}: unit {got['unit']}, declared {unit}")
        out[name] = got
    return out


def run_once(spec, args, extra=()):
    notes, result = run_program(args, extra)
    return notes, {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": select_metrics(spec, args.workload, result, args.trace),
    }


def self_check(spec):
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=w["name"], seed=1, seconds=1,
                                      trace=trace)
            _, res = run_once(spec, args, ["--smoke"])
            if not res["correct"] or res["failed"]:
                problems.append(f"{w['name']} trace={trace}: outputs wrong")
            if not trace:
                zero = [n for n, m in res["metrics"].items() if not m["value"] > 0]
                if zero:
                    problems.append(f"{w['name']}: end-to-end metrics not > 0: {zero}")
            print(f"self-check {w['name']} trace={trace}: "
                  f"{len(res['metrics'])} metrics, {res['attempted']} checked")
        args = argparse.Namespace(workload=w["name"], seed=1, seconds=1, trace=0)
        _, res = run_once(spec, args, ["--smoke", "--inject-wrong"])
        if res["correct"] or res["failed"] < 1:
            problems.append(f"{w['name']}: an injected wrong answer was not counted")
        print(f"self-check {w['name']} injected wrong answer: "
              f"failed {res['failed']} of {res['attempted']}")
    for p in problems:
        print("PROBLEM:", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    try:
        spec = load_spec()
        build()
        if args.self_check:
            return self_check(spec)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r} (one of {names})")
        notes, out = run_once(spec, args)
    except BenchError as e:
        print(f"pipebench: {e}", file=sys.stderr)
        return 1
    for line in notes:
        print(line)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
