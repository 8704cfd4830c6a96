#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--seeds 0-9] [--seconds S]

Runs perfbench/run.py once per seed (trace off) and prints, per metric, the
median and the interquartile range as a share of the median, computed with
statistics.quantiles(values, n=4). A spread above a third of the metric's
bound in BENCHMARK.json is marked. The same figures in host seconds, before
speed normalisation, are printed below for comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            ["python3", os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        print("seed %d: exit %d, failed %d/%d, %s" % (
            seed, proc.returncode, result["failed"], result["attempted"],
            ", ".join("%s=%.6g" % (k, v["value"])
                      for k, v in result["metrics"].items())), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        record = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                              "perfbench", "results",
                              "%s-seed%d-trace0.json" % (args.workload, seed))
        with open(record) as f:
            host = json.load(f)["host"]
        for name in ("wall_s", "setup_s", "admissions_per_s"):
            values.setdefault("host " + name, []).append(host[name])

    for name, series in values.items():
        q1, q2, q3 = statistics.quantiles(series, n=4)
        share = (q3 - q1) / q2
        flag = "  > bound/3" if share > bounds.get(name, 1) / 3 else ""
        print("%-18s median %-12.6g spread %.4f (bound %s)%s"
              % (name, q2, share, bounds.get(name), flag))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
