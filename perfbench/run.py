"""earlyflow benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload ingest --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout. Steps, each in its own process:

1. generate the workload's inputs from --seed (perfbench/inputs.py), cached
   under .perfbench_work/inputs/ by seed and generator digest, because a
   seed always gives the same files;
2. time import + set-up in five fresh interpreters (perfbench/probe.py);
3. measure (perfbench/measure.py) with BLAS threads pinned to 1, which also
   checks the program's outputs against the generator's ground truth.

Human-readable lines come first; the last line of stdout is one JSON object
with "correct", "attempted", "failed" and "metrics" (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1). The exit code is 0 only when
every output check passed and no operation failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ingest", "train_packets", "infer_duration")
SETUP_PROBES = 5
STEP_TIMEOUT_S = 170
# (name, unit) of the end-to-end metrics, in BENCHMARK.json order
END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("work_per_s", "1/s")]


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "tests"), HERE])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_step(argv, env, what):
    try:
        proc = subprocess.run(argv, env=env, timeout=STEP_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{what} did not finish within {STEP_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        fail(f"{what} exited with code {proc.returncode}", 1)
    return proc.stdout


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description="earlyflow benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    for needed in ("src/earlyflow/__init__.py", "tests/flow_oracle.py", "tests/gen_mts.py"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of an earlyflow checkout")
    env = child_env(root)
    work = os.path.join(root, ".perfbench_work")
    with open(os.path.join(HERE, "inputs.py"), "rb") as fh:
        generator = hashlib.sha256(fh.read()).hexdigest()[:12]
    inputs = os.path.join(work, "inputs", f"{args.workload}-{args.seed}-{generator}")
    if not os.path.isfile(os.path.join(inputs, "truth.json")):
        run_step([sys.executable, os.path.join(HERE, "inputs.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--out", inputs], env, "input generation")

    run_dir = os.path.join(work, "runs", f"{args.workload}-{args.seed}-trace{args.trace}")
    result_path = os.path.join(run_dir, "result.json")
    os.makedirs(run_dir, exist_ok=True)
    probes = [] if args.trace else [
        json.loads(run_step([sys.executable, os.path.join(HERE, "probe.py"), "--workload", args.workload,
                             "--inputs", inputs, "--work", run_dir], env, "set-up probe"))
        for _ in range(SETUP_PROBES)]
    run_step([sys.executable, os.path.join(HERE, "measure.py"),
              "--workload", args.workload, "--inputs", inputs, "--work", run_dir,
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--result", result_path], env, "measurement")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    environment = dict(result["environment"], seed=args.seed, git_commit=git_commit(root),
                       workload=args.workload, seconds=args.seconds, trace=args.trace)
    print("environment: " + json.dumps(environment, sort_keys=True))
    readout = result["readout"]
    if probes and probes[0]["read_s"] is not None:   # set-up reads the dataset
        with open(os.path.join(inputs, "truth.json"), encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
        readout.append(("load_rows_per_s", statistics.median(rows / p["read_s"] for p in probes),
                        "rows/s"))
    for name, value, unit in readout:
        print(f"{args.workload} {name} = {value} {unit}")
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit in result["per_layer"]}
    else:
        m = result["metrics"]
        m["setup_s"] = statistics.median(p["import_s"] + p["setup_s"] for p in probes)
        metrics = {name: {"value": m[name], "unit": unit} for name, unit in END_TO_END}
    for name, entry in metrics.items():
        print(f"{args.workload} {name} = {entry['value']} {entry['unit']}")
    for failure in result["failures"]:
        print(f"FAILED CHECK: {failure}")
    correct = not result["failures"]
    summary = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
               "metrics": metrics}
    with open(os.path.join(run_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(summary, environment=environment, readout=readout,
                       samples=result["samples"]), fh, indent=1)
    print(json.dumps(summary))
    return 0 if correct and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
