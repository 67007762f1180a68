#!/usr/bin/env python3
"""Entry point of the repository benchmark (BENCHMARK.json "command").

    python3 bench/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  Builds e2e_bench and lotec_worker from the
checkout's sources into $CARGO_TARGET_DIR/e2e (default .bench_build/e2e; later
runs only confirm the build is current), runs one workload and prints, as the
last line of stdout, one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}, ...}}

--trace 0 reports every end_to_end metric of BENCHMARK.json, --trace 1 every
per_layer metric (e2e_bench --traced).  A failed build exits 2 without a
result; a failed correctness gate prints "correct": false and exits 1.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build the two targets; returns the bench path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join("bench", "e2e"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "e2e_bench",
                  "lotec_worker", "-j", "4"])
    with open(log_path, "a") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                log(f"build step {cmd[:2]} failed: {e}")
                return None
            if rc != 0:
                log(f"build step {' '.join(cmd[:3])} failed (exit {rc}); "
                    f"see {log_path}")
                return None
    return os.path.join(build_dir, "e2e_bench")


def run_bench(cmd):
    """Run the bench in its own process group so a timeout also reaps the
    wire workers it forked.  Returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"e2e_bench timed out after {RUN_TIMEOUT_S} s")
        return None, ""
    return proc.returncode, out


def parse_metrics(stdout):
    """`name value unit` lines -> {name: (value, unit)}."""
    metrics = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) != 3:
            continue
        try:
            metrics[parts[0]] = (float(parts[1]), parts[2])
        except ValueError:
            pass
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json from the checkout root: {e}")
        return 2
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "e2e")
    bench = build(build_dir)
    if bench is None:
        return 2
    # Relative, so the wire workers' socket paths stay short.
    out_dir = os.path.relpath(os.path.join(build_dir, "out"))
    os.makedirs(out_dir, exist_ok=True)
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out-dir", out_dir]
    if args.trace:
        cmd.append("--traced")
    rc, stdout = run_bench(cmd)
    if rc is None:
        return 1
    sys.stdout.write(stdout)
    printed = parse_metrics(stdout)

    correct = rc == 0
    metrics = {}
    for m in wanted:
        got = printed.get(m["name"])
        if got is None or got[1] != m["unit"]:
            log(f"metric {m['name']} [{m['unit']}] missing or with "
                "another unit")
            correct = False
            continue
        metrics[m["name"]] = {"value": got[0], "unit": m["unit"]}
    attempted = int(printed.get("harness.attempted", (0, ""))[0])
    failed = int(printed.get("harness.failed", (0, ""))[0])
    if attempted < 1:
        correct = False
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
