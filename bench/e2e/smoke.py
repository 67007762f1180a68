#!/usr/bin/env python3
"""e2e_bench_smoke: every workload at tiny size, untraced and --traced, twice.

    python3 smoke.py --bench PATH/e2e_bench [--worker PATH/lotec_worker]

Asserts that
  - every metric BENCHMARK.json names is printed with its unit (end-to-end
    metrics by the untraced run, per-layer metrics by the traced run);
  - the counts (*_per_txn and tick.* metrics not measured in time) repeat
    exactly between the two passes;
  - the layer estimates plus the unattributed remainder equal
    est.us_per_txn.
wire-nested is skipped, with a message, when there is no worker binary.
Scratch output goes to a temporary directory under the working directory.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
TINY = ["--seconds", "0.1"]  # one warm-up batch, one set-up
TIME_UNITS = {"s", "ms", "us", "ns", "ns/KiB"}


def run(bench, workload, traced, worker, out_dir):
    cmd = [bench, "--workload", workload, "--out-dir", out_dir] + TINY
    if traced:
        cmd.append("--traced")
    if worker:
        cmd += ["--worker", worker]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=60)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}")
    printed = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 3:
            try:
                printed[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    return printed


def is_count(name, unit):
    return unit not in TIME_UNITS and (name.endswith("_per_txn") or
                                       name.startswith("tick."))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", required=True)
    ap.add_argument("--worker")
    args = ap.parse_args()
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
        spec = json.load(f)

    failures = []
    # Relative, so the wire workers' socket paths stay short.
    out_dir = os.path.relpath(tempfile.mkdtemp(prefix="e2e_smoke_", dir="."))
    try:
        for w in (w["name"] for w in spec["workloads"]):
            worker = args.worker
            if w == "wire-nested" and not (worker and
                                           os.access(worker, os.X_OK)):
                print(f"skip {w}: no lotec_worker binary")
                continue
            for traced, wanted in ((False, spec["end_to_end"]),
                                   (True, spec["per_layer"])):
                passes = [run(args.bench, w, traced, worker, out_dir)
                          for _ in range(2)]
                label = f"{w}{' --traced' if traced else ''}"
                for m in wanted:
                    got = passes[0].get(m["name"])
                    if got is None or got[1] != m["unit"]:
                        failures.append(f"{label}: {m['name']} [{m['unit']}] "
                                        f"not printed")
                for name, (value, unit) in passes[0].items():
                    again = passes[1].get(name, (None, None))[0]
                    if is_count(name, unit) and value != again:
                        failures.append(f"{label}: count {name} {value} then "
                                        f"{again}")
                if traced:
                    p = passes[0]
                    parts = [v for n, (v, _) in p.items()
                             if n.endswith(".est_us_per_txn")]
                    total = sum(parts) + p["est.unattributed_us_per_txn"][0]
                    est = p["est.us_per_txn"][0]
                    if abs(total - est) > 1e-6 * max(1.0, abs(est)):
                        failures.append(f"{label}: estimates sum to {total}, "
                                        f"est.us_per_txn is {est}")
                print(f"ok {label}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
