#!/usr/bin/env python3
"""Result sets for the repository benchmark (README.md, "Result sets").

    python3 bench/e2e/sets.py run OUT_DIR [--seeds 1-10] [--workloads a,b]
    python3 bench/e2e/sets.py layers OUT_DIR [--seed 1]
    python3 bench/e2e/sets.py compare SET_A SET_B
    python3 bench/e2e/sets.py table SET... [--layers DIR]

Run from the root of a checkout.

run      calls run.py once per workload and seed and writes, per workload,
         OUT_DIR/BENCH_e2e_<workload>.json in the BenchJson format
         tools/bench_check reads: one row per seed, then q1/median/q3 rows.
         Prints each end-to-end metric's median, quartiles and spread,
         (q3 - q1) / median, next to its bound.
layers   runs run.py --trace 1 per workload and copies the layer tables.
compare  prints, per workload and end-to-end metric, how much worse SET_B's
         median is than SET_A's, against the bound, and checks that the
         deterministic counts are identical seed by seed.
table    prints Markdown tables of the sets' medians and quartiles and, with
         --layers DIR, of the layer tables in DIR.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COUNTS = ("msgs_per_txn", "bytes_per_txn", "commit_pct")


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def out_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "e2e", "out")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"sets.py: {workload} seed {seed} failed (exit "
                 f"{proc.returncode})")
    return result


def read_bench_rows(path):
    with open(path) as f:
        return {row.pop("label"): row for row in json.load(f)["rows"]}


def write_bench(path, name, rows):
    """BenchJson layout (bench/json_out.hpp): flat rows of numbers."""
    with open(path, "w") as f:
        f.write('{\n  "bench": "%s",\n  "rows": [\n' % name)
        for i, (label, fields) in enumerate(rows):
            body = "".join(f', "{k}": {v!r}' for k, v in fields.items())
            f.write(f'    {{"label": "{label}"{body}}}')
            f.write(",\n" if i + 1 < len(rows) else "\n")
        f.write("  ]\n}\n")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def cmd_run(args, spec):
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    os.makedirs(args.out, exist_ok=True)
    for w in workloads:
        per_seed = []
        for seed in parse_seeds(args.seeds):
            run_once(w, seed, spec["run_seconds"], 0)
            rows = read_bench_rows(
                os.path.join(out_dir(), f"BENCH_e2e_{w}.json"))
            per_seed.append((f"seed_{seed}", rows["metrics"]))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{m['name']}={rows['metrics'][m['name']]:.6g}"
                for m in spec["end_to_end"]), flush=True)
        names = list(per_seed[0][1])
        stats = {k: quartiles([r[k] for _, r in per_seed]) for k in names}
        summary = [(label, {k: stats[k][i] for k in names})
                   for i, label in enumerate(("q1", "median", "q3"))]
        write_bench(os.path.join(args.out, f"BENCH_e2e_{w}.json"), f"e2e_{w}",
                    per_seed + summary)
        print(f"\n{w}: metric | median | q1 | q3 | spread | bound")
        for m in spec["end_to_end"]:
            q1, med, q3 = stats[m["name"]]
            print(f"  {m['name']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{100 * (q3 - q1) / med:.2f}% | {100 * m['bound']:g}%")
    return 0


def cmd_layers(args, spec):
    os.makedirs(args.out, exist_ok=True)
    for w in (w["name"] for w in spec["workloads"]):
        run_once(w, args.seed, spec["run_seconds"], 1)
        name = f"BENCH_e2e_{w}_layers.json"
        shutil.copyfile(os.path.join(out_dir(), name),
                        os.path.join(args.out, name))
        print(f"{w}: {name}", flush=True)
    return 0


def cmd_compare(args, spec):
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        a = read_bench_rows(os.path.join(args.set_a, f"BENCH_e2e_{w}.json"))
        b = read_bench_rows(os.path.join(args.set_b, f"BENCH_e2e_{w}.json"))
        print(f"{w}: metric | median A | median B | worse by | bound")
        for m in spec["end_to_end"]:
            ma, mb = a["median"][m["name"]], b["median"][m["name"]]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = "" if worse <= m["bound"] else "  OUT OF BOUND"
            ok &= not flag
            print(f"  {m['name']} | {ma:.6g} | {mb:.6g} | "
                  f"{100 * worse:+.2f}% | {100 * m['bound']:g}%{flag}")
        seeds = [k for k in a if k.startswith("seed_")]
        same = all(a[s][c] == b.get(s, {}).get(c)
                   for s in seeds for c in COUNTS)
        ok &= same
        print(f"  counts {'identical' if same else 'DIFFER'} over {len(seeds)} "
              f"seeds")
    return 0 if ok else 1


def cmd_table(args, spec):
    names = [os.path.basename(os.path.normpath(d)) for d in args.sets]
    for w in (w["name"] for w in spec["workloads"]):
        sets = [read_bench_rows(os.path.join(d, f"BENCH_e2e_{w}.json"))
                for d in args.sets]
        print(f"\n`{w}`\n")
        print("| metric | unit | bound | " + " | ".join(
            f"{n}: median [q1, q3] | spread" for n in names) + " |")
        print("|---" * (3 + 2 * len(sets)) + "|")
        for m in spec["end_to_end"]:
            cells = []
            for rows in sets:
                q1, med, q3 = (rows[k][m["name"]]
                               for k in ("q1", "median", "q3"))
                cells += [f"{med:.6g} [{q1:.6g}, {q3:.6g}]",
                          f"{100 * (q3 - q1) / med:.1f}%"]
            print(f"| {m['name']} | {m['unit']} | {100 * m['bound']:g}% | "
                  + " | ".join(cells) + " |")
    if args.layers:
        workloads = [w["name"] for w in spec["workloads"]]
        tables = [read_bench_rows(os.path.join(
            args.layers, f"BENCH_e2e_{w}_layers.json"))["metrics"]
            for w in workloads]
        print("\n| metric | unit | " + " | ".join(workloads) + " |")
        print("|---" * (2 + len(workloads)) + "|")
        for m in spec["per_layer"]:
            print(f"| {m['name']} | {m['unit']} | " + " | ".join(
                f"{t[m['name']]:.4g}" for t in tables) + " |")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("out")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workloads")
    lay = sub.add_parser("layers")
    lay.add_argument("out")
    lay.add_argument("--seed", type=int, default=1)
    c = sub.add_parser("compare")
    c.add_argument("set_a")
    c.add_argument("set_b")
    t = sub.add_parser("table")
    t.add_argument("sets", nargs="+")
    t.add_argument("--layers")
    args = ap.parse_args()
    spec = load_spec()
    return {"run": cmd_run, "layers": cmd_layers, "compare": cmd_compare,
            "table": cmd_table}[args.cmd](args, spec)


if __name__ == "__main__":
    sys.exit(main())
