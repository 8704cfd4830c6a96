#!/usr/bin/env python3
"""Regenerates perfbench/pins/ from the current sources.

    python3 perfbench/make_pins.py [traffic_flash_crowd|fleet_lifecycle|chaos_sweep ...]

Runs every member of each workload's input pool once and writes the
outputs the benchmark checks. Pins are the reference: regenerate them only
when a change is meant to alter simulated results, and say so where the
change is recorded.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

PINS = os.path.join(run.HERE, "pins")


def ops(binary, workload, token):
    return run.run_program(binary, workload, [token], 0.001, 0, None)["op"]


def pin_traffic(binary):
    pins = {}
    for seed in run.TRAFFIC_SEEDS:
        (op,) = ops(binary, "traffic_flash_crowd", str(seed))
        pins[str(seed)] = {k: op[k] for k in ("digest", "scheduled", "served",
                                              "refused", "p99_s", "bytes_delivered")}
    return pins


def pin_fleet(binary):
    pins = {}
    for variant in run.FLEET_VARIANTS:
        by_kind = {op["kind"]: op for op in ops(binary, "fleet_lifecycle", variant)}
        pin = {"nodes_placed": by_kind["ramp"]["nodes_placed"],
               "routed": by_kind["routes"]["routed"]}
        pin.update({k: by_kind["fault"][k] for k in ("host_failures", "recoveries",
                                                     "placements_lost", "digest")})
        pins[variant] = pin
    return pins


def pin_chaos(binary):
    digests = [None] * run.CHAOS_POOL
    violations, setup_errors = {}, {}
    # One pass over the whole pool.
    token = "%#x:0:%d:%d:1" % (run.CHAOS_BASE, run.CHAOS_POOL, run.CHAOS_BLOCK)
    for op in ops(binary, "chaos_sweep", token):
        digests[op["index"]] = op["digest"]
        if op["violations"]:
            violations[str(op["index"])] = [op["violations"], op["invariant"]]
        if op["setup_error"]:
            setup_errors[str(op["index"])] = op["setup_error"]
    with open(os.path.join(PINS, "chaos_sweep_digests.txt"), "w") as f:
        f.write("\n".join(digests) + "\n")
    return {"base": "%#x" % run.CHAOS_BASE, "pool": run.CHAOS_POOL,
            "violations": violations, "setup_errors": setup_errors}


def main(argv):
    binary = run.build()
    makers = {"traffic_flash_crowd": pin_traffic, "fleet_lifecycle": pin_fleet,
              "chaos_sweep": pin_chaos}
    os.makedirs(PINS, exist_ok=True)
    for workload in argv or run.WORKLOADS:
        pins = makers[workload](binary)
        with open(os.path.join(PINS, workload + ".json"), "w") as f:
            json.dump(pins, f, indent=1, sort_keys=True)
            f.write("\n")
        print("pinned " + workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
