#!/usr/bin/env python3
"""Run the benchmark once per seed for each workload and summarise every
metric as BENCHMARK.json's bounds are judged: the median over invocations,
the quartiles (statistics.quantiles(values, n=4)), and the spread, i.e. the
distance between the quartiles as a share of the median.

Run from the repository root:

    python3 perfbench/sweep.py --seeds 1-10 --trace 0 --out sweep.json

Each invocation is the command BENCHMARK.json names, with
`--workload W --seed S --seconds N --trace T` appended. Invocations run one
after another, never in parallel, so they do not contend for the host.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", type=seed_list)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", default=str(bench["run_seconds"]))
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args()

    declared = bench["end_to_end" if args.trace == "0" else "per_layer"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", args.seconds, "--trace", args.trace]
            run = subprocess.run(cmd, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
            if not result or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED (exit {run.returncode})\n"
                      f"{run.stdout[-3000:]}\n{run.stderr[-3000:]}", file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        print(f"== {workload}: {len(args.seeds)} seeds, trace {args.trace}")
        rows = {}
        for name, m in values.items():
            v = m["values"]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "values": v}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "  OVER BOUND" if spread > bound else ("  over bound/3" if spread > bound / 3 else "")
            print(f"  {name:36s} {med:14.6g} {m['unit']:6s} spread {spread:7.4f}{flag}")
        summary[workload] = rows
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
