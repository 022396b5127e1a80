#!/usr/bin/env python3
"""Run the benchmark as the driver does and report how steady it is.

For each workload, runs BENCHMARK.json's command once per seed and prints, for
each end-to-end metric, the distance between the first and third quartile of
its values as a share of their median, beside the metric's bound. Run it from
the repository root:  python3 benchmark/spread.py [runs] [first-seed] [workload]
"""
import json
import statistics
import subprocess
import sys

runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
first = int(sys.argv[2]) if len(sys.argv) > 2 else 1
only = sys.argv[3] if len(sys.argv) > 3 else None
spec = json.load(open("BENCHMARK.json"))
worst = 0.0
for wl in spec["workloads"]:
    if only and wl["name"] != only:
        continue
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(first, first + runs):
        cmd = spec["command"] + ["--workload", wl["name"], "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        last = json.loads(out.strip().splitlines()[-1])
        if not last["correct"] or last["failed"]:
            print(f"  {wl['name']} seed {seed}: correct={last['correct']} failed={last['failed']}")
        for name, vals in values.items():
            vals.append(last["metrics"][name]["value"])
    print(wl["name"])
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / abs(med) / m["bound"] if med else float("inf")
        worst = max(worst, share) if m["name"] != "setup_s" else worst
        print(f"  {m['name']:<20} median {med:<12.6g} iqr/median {100 * (q3 - q1) / abs(med):6.2f}%"
              f"  bound {100 * m['bound']:4.0f}%  share of bound {share:5.2f}")
        print("    " + " ".join(f"{v:.5g}" for v in vals))
print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")
