#!/usr/bin/env python3
"""CloudScope benchmark: builds the perfbench program and runs a workload.

Run one workload (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload probe --seed 1 --seconds 12 --trace 0

The last line of standard output is the result JSON; build output goes to
standard error. The program is built from source on first use under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).

Helper modes:

    python3 perfbench/run.py steady --workload probe --runs 10 [--save f.json]
        runs one workload at N seeds and reports each metric's median and
        quartiles against its bound in BENCHMARK.json.
    python3 perfbench/run.py pair parent/ change/
        compares saved result sets (two files, or two directories of
        them), one row per workload and metric; runs pair by seed order.
    python3 perfbench/run.py test
        builds and runs the benchmark's own tests.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = ROOT / "BENCHMARK.json"
MODES = ("steady", "pair", "test")


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    """Configures and builds `target`; returns the binary path."""
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in \
            cache.read_text():
        shutil.rmtree(out)  # configured for another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out), "--target", target, "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return out / target


def manifest():
    return json.loads(MANIFEST.read_text())


def run_workload(binary, workload, seed, seconds, trace, extra=()):
    """Runs the program once; returns (exit code, stdout lines)."""
    out_dir = build_dir() / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(out_dir), *extra]
    env = {k: v for k, v in os.environ.items() if not k.startswith("CS_")}
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    return done.returncode, done.stdout.splitlines()


def result_of(lines):
    return json.loads(lines[-1]) if lines else None


# --- steadiness ------------------------------------------------------------

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def bounds():
    return {m["name"]: m for m in manifest()["end_to_end"]}


def steady(args):
    binary = build("perfbench")
    seconds = args.seconds or manifest()["run_seconds"]
    runs = []
    for i in range(args.runs):
        seed = args.seed0 + i
        code, lines = run_workload(binary, args.workload, seed, seconds, 0)
        result = result_of(lines) if code == 0 else None
        if not result or not result["correct"]:
            sys.exit(f"perfbench: {args.workload} seed {seed} failed "
                     f"(exit {code})")
        runs.append({"seed": seed, "metrics": {
            k: v["value"] for k, v in result["metrics"].items()}})
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()),
              flush=True)
    data = {"workload": args.workload, "runs": runs}
    if args.save:
        Path(args.save).write_text(json.dumps(data, indent=1) + "\n")
    print_steadiness(data)


def print_steadiness(data):
    limits = bounds()
    print(f"\n{data['workload']}: {len(data['runs'])} runs")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for name in data["runs"][0]["metrics"]:
        values = [r["metrics"][name] for r in data["runs"]]
        q1, med, q3 = quartiles(values)
        s = spread(values)
        bound = limits.get(name, {}).get("bound")
        if bound is None:
            verdict = ""
        elif s <= bound / 3:
            verdict = "steady"
        elif s <= bound:
            verdict = "within bound"
        else:
            verdict = "UNSTEADY"
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:7.3f} "
              f"{'' if bound is None else bound:>6}  {verdict}")


# --- pairing ---------------------------------------------------------------

def compare(parent, change):
    """One row per end-to-end metric, per the rules for claiming a gain:
    a win needs >= 90% of pairs and a median gap beyond the parent's own
    quartile spread; a spread wider than the bound is unresolved."""
    limits = bounds()
    print(f"\n{parent['workload']}: {len(parent['runs'])} parent runs, "
          f"{len(change['runs'])} change runs")
    print(f"{'metric':14} {'parent':>11} {'p.spread':>8} {'change':>11} "
          f"{'c.spread':>8} {'delta':>7} {'wins':>5}  verdict")
    for name, spec in limits.items():
        p = [r["metrics"][name] for r in parent["runs"]]
        c = [r["metrics"][name] for r in change["runs"]]
        lower = spec["better"] == "lower"
        better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
        pairs = list(zip(p, c))
        wins = sum(better(b, a) for a, b in pairs) / len(pairs)
        p1, pm, p3 = quartiles(p)
        _, cm, _ = quartiles(c)
        delta = (cm - pm) / pm if pm else 0.0
        worse_by = delta if lower else -delta
        bound = spec["bound"]
        if all(better(b, a) for a in p for b in c):
            verdict = "better (every run)"
        elif max(spread(p), spread(c)) > bound:
            verdict = "unresolved"
        elif wins >= 0.9 and abs(cm - pm) > (p3 - p1) and better(cm, pm):
            verdict = "better"
        elif worse_by > bound:
            verdict = "WORSE"
        else:
            verdict = "no change beyond bound"
        print(f"{name:14} {pm:11.5g} {spread(p):8.3f} {cm:11.5g} "
              f"{spread(c):8.3f} {delta:+7.3f} {wins:5.2f}  {verdict}")


def load_sets(path):
    """Result sets saved by `steady --save`: one file, or a directory."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    sets = [json.loads(f.read_text()) for f in files]
    return {s["workload"]: s for s in sets}


def pair(args):
    parents = load_sets(args.files[0])
    for workload, change in load_sets(args.files[1]).items():
        if workload in parents:
            compare(parents[workload], change)


# --- entry -----------------------------------------------------------------

def main(argv):
    if argv and argv[0] in MODES:
        mode, rest = argv[0], argv[1:]
        parser = argparse.ArgumentParser(prog=f"run.py {mode}")
        if mode == "test":
            binary = build("perfbench_test")
            return subprocess.run([str(binary), *rest], cwd=ROOT).returncode
        parser.add_argument("files", nargs="*")
        parser.add_argument("--workload")
        parser.add_argument("--runs", type=int, default=10)
        parser.add_argument("--seed0", type=int, default=1)
        parser.add_argument("--seconds", type=int, default=0)
        parser.add_argument("--save")
        args = parser.parse_args(rest)
        if mode == "steady":
            steady(args)
        elif len(args.files) == 2:
            pair(args)
        else:
            parser.error("pair wants two result files")
        return 0

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args(argv)
    binary = build("perfbench")
    code, lines = run_workload(binary, args.workload, args.seed, args.seconds,
                               args.trace, extra)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
