#!/usr/bin/env python3
"""Benchmark of the SODA simulator: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds perfbench/ (which
compiles ../src) into .bench_build/perfbench; later runs reuse the build.
The seed is turned into the workload's inputs here, so the C++ program only
sees concrete inputs. Every operation the program reports is checked
against the values pinned in perfbench/pins/. Machine context and the
failure share are printed before the last line, which is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones from a traced run, whose spans are written as Chrome
trace-event JSON under .bench_build/perfbench/traces/. The exit code is 0
when every output matched its pin, 1 on a mismatch, and 2 or 3 when the
benchmark could not run at all (bad arguments, no sources, build failure).
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("traffic_flash_crowd", "fleet_lifecycle", "chaos_sweep")

# name -> unit; the names and units BENCHMARK.json declares.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "admissions_per_s": "1/s",
}
PER_LAYER = {
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.pending_peak": "count",
    "net.active_flows_peak": "count",
    "net.active_flows_mean": "count",
    "net.burst_slice_ms": "ms",
    "net.warm_slice_ms": "ms",
    "net.allocs_per_request": "count",
    "net.flow_probe_us": "us",
    "net.bytes_delivered": "B",
    "core.admission_ms_p50": "ms",
    "core.admission_ms_p99": "ms",
    "core.allocs_per_admission": "count",
    "core.route_ns": "ns",
    "core.heartbeat_host_s_per_s": "s/s",
    "core.fault_ms": "ms",
    "core.trace_render_ms": "ms",
    "core.trace_bytes": "B",
    "host.add_host_us": "us",
    "os.guest_fs_us": "us",
    "os.guest_fs_allocs": "count",
    "snapshot.save_ms": "ms",
    "snapshot.load_ms": "ms",
    "snapshot.mb": "MB",
    "chaos.scenario_ms_p50": "ms",
    "chaos.scenario_ms_p99": "ms",
    "chaos.check_overhead_pct": "%",
    "chaos.violations": "count",
    "chaos.setup_errors": "count",
    "trace_overhead_pct": "%",
}

# Input pools. Pins exist for every member; the seed picks where a run
# starts in its pool, and a run walks the pool in order from there.
TRAFFIC_SEEDS = [0xBEEF + i * 1001 for i in range(4)]  # fig_traffic's rule
FLEET_VARIANTS = ["%d:%d" % (2000 * v, 496 * v) for v in range(8)]
CHAOS_BASE = 0xC4A05EED  # fig_chaos's base seed
CHAOS_POOL = 10000
CHAOS_BLOCK = 500
# Host seconds of one pass over the chaos pool on the reference machine; a
# chaos run makes round(--seconds / CHAOS_PASS_S) whole passes (at least
# one), so its work and its failed operations do not depend on host speed.
CHAOS_PASS_S = 7.5


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def make_inputs(workload, seed, seconds):
    """The workload's program inputs for `seed` (same seed, same inputs)."""
    start = splitmix64(seed & 0xFFFFFFFFFFFFFFFF)
    if workload == "traffic_flash_crowd":
        k = start % len(TRAFFIC_SEEDS)
        return [str(s) for s in TRAFFIC_SEEDS[k:] + TRAFFIC_SEEDS[:k]]
    if workload == "fleet_lifecycle":
        k = start % len(FLEET_VARIANTS)
        return FLEET_VARIANTS[k:] + FLEET_VARIANTS[:k]
    first = (start % (CHAOS_POOL // CHAOS_BLOCK)) * CHAOS_BLOCK
    passes = max(1, round(seconds / CHAOS_PASS_S))
    return ["%#x:%d:%d:%d:%d" % (CHAOS_BASE, first, CHAOS_POOL, CHAOS_BLOCK,
                                 passes)]


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, ".lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                fail(3, "build failed; see " + log_path)
    return os.path.join(out, "soda_perfbench")


def source_digest():
    """SHA-1 over src/ and perfbench/ (the checkout need not be a git repo)."""
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def load_pins(pins_dir, workload):
    with open(os.path.join(pins_dir, workload + ".json")) as f:
        pins = json.load(f)
    if workload == "chaos_sweep":
        with open(os.path.join(pins_dir, "chaos_sweep_digests.txt")) as f:
            pins["digests"] = f.read().split()
    return pins


class Checker:
    """Counts attempted and failed operations and records every mismatch."""

    def __init__(self, pins):
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.mismatches = []
        self.failures = []

    def expect(self, what, got, want):
        if got != want:
            self.mismatches.append("%s: got %r, pinned %r" % (what, got, want))
            return False
        return True

    def count(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(what)

    def count_one(self, ok, what):
        self.count(1, 0 if ok else 1, what)

    def check(self, op):
        kind = op["kind"]
        if kind == "replica":
            pin = self.pins[op["input"]]
            ok = all([self.expect("replica %s %s" % (op["input"], k), op[k], pin[k])
                      for k in ("digest", "scheduled", "served", "refused",
                                "p99_s", "bytes_delivered")])
            self.count_one(ok, "replica " + op["input"])
        elif kind == "ramp":
            pin = self.pins[op["input"]]
            placed = self.expect("ramp %s nodes_placed" % op["input"],
                                 op["nodes_placed"], pin["nodes_placed"])
            # A wrong placement count cannot be laid on one admission, so it
            # fails the whole ramp.
            bad = op["admission_failures"] if placed else op["admissions"]
            self.count(op["admissions"], bad, "ramp %s admissions" % op["input"])
        elif kind == "routes":
            pin = self.pins[op["input"]]
            ok = self.expect("routes %s" % op["input"], op["routed"], pin["routed"])
            self.count_one(ok, "routes " + op["input"])
        elif kind == "steady":
            ok = self.expect("steady %s host_failures" % op["input"],
                             op["host_failures"], 0)
            self.count_one(ok, "steady " + op["input"])
        elif kind == "snapshot":
            ok = (self.expect("snapshot %s error" % op["input"], op["error"], "")
                  and self.expect("snapshot %s loaded digest" % op["input"],
                                  op["loaded_digest"], op["saved_digest"]))
            self.count_one(ok, "snapshot " + op["input"])
        elif kind == "fault":
            pin = self.pins[op["input"]]
            ok = all([self.expect("fault %s %s" % (op["input"], k), op[k], pin[k])
                      for k in ("host_failures", "recoveries", "placements_lost",
                                "digest")])
            self.count_one(ok, "fault " + op["input"])
        elif kind == "scenario":
            index = op["index"]
            want_violations = self.pins["violations"].get(str(index), [0, ""])
            want_error = self.pins["setup_errors"].get(str(index), "")
            matched = all([
                self.expect("scenario %d digest" % index, op["digest"],
                            self.pins["digests"][index]),
                self.expect("scenario %d violations" % index,
                            [op["violations"], op["invariant"]], want_violations),
                self.expect("scenario %d setup_error" % index,
                            op["setup_error"], want_error)])
            # A scenario that trips an invariant or cannot be set up is a
            # failed operation even when that outcome is the pinned one.
            healthy = op["violations"] == 0 and not op["setup_error"]
            self.count_one(matched and healthy, "scenario %d seed %d %s" % (
                index, op["seed"], op["invariant"] or op["setup_error"]))
        else:
            raise ValueError("unknown operation kind " + kind)


def run_program(binary, workload, inputs, seconds, trace, trace_out):
    cmd = [binary, workload, "--seconds", str(seconds), "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    for token in inputs:
        cmd += ["--input", token]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(3, "%s exited %d: %s" % (workload, proc.returncode, proc.stderr[-2000:]))
    lines = {"op": [], "info": [], "summary": [], "build": []}
    for line in proc.stdout.splitlines():
        tag, _, body = line.partition(" ")
        if tag not in lines:
            fail(3, "unexpected program output: " + line[:200])
        lines[tag].append(json.loads(body))
    if len(lines["summary"]) != 1 or len(lines["build"]) != 1:
        fail(3, "malformed program output")
    return lines


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--pins", default=os.path.join(HERE, "pins"),
                        help="directory of pinned outputs (default: perfbench/pins)")
    args = parser.parse_args(argv)

    binary = build()
    pins = load_pins(args.pins, args.workload)
    inputs = make_inputs(args.workload, args.seed, args.seconds)
    out = build_dir()
    trace_out = None
    if args.trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        trace_out = os.path.join(out, "traces", "%s-seed%d.trace.json"
                                 % (args.workload, args.seed))

    started = time.time()
    lines = run_program(binary, args.workload, inputs, args.seconds, args.trace,
                        trace_out)
    checker = Checker(pins)
    for op in lines["op"]:
        checker.check(op)
    summary = lines["summary"][0]

    if args.trace:
        layers = summary.get("layers", {})
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": summary["e2e"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": inputs,
        "run_seconds": args.seconds,
        "repetitions": summary["iterations"],
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "machine": platform.machine(),
        "build_type": lines["build"][0]["build_type"],
        "compiler": lines["build"][0]["compiler"],
        "git_sha": git_sha(),
        "source_sha1": source_digest(),
        "started_unix": started,
    }
    correct = not checker.mismatches
    result = {"correct": correct, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    host = summary["host"]
    record = dict(meta=meta, result=result, host=host, samples={
        "wall_s": summary["wall_s"], "setup_s": summary["setup_s"]},
        mismatches=checker.mismatches, failures=checker.failures,
        info=lines["info"], trace_file=trace_out)
    os.makedirs(os.path.join(out, "results"), exist_ok=True)
    with open(os.path.join(out, "results", "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)

    print("meta " + json.dumps(meta, sort_keys=True))
    print("host seconds, before speed normalisation: wall_s=%.6g setup_s=%.6g "
          "admissions_per_s=%.6g; run-wide speed scale %.4f from %d reference-kernel runs"
          % (host["wall_s"], host["setup_s"], host["admissions_per_s"],
             host["speed_scale"], len(host["speed_ref_s"])))
    for line in checker.mismatches[:20]:
        print("MISMATCH " + line)
    print("failed operations: %d of %d (%.4f%%)%s" % (
        checker.failed, checker.attempted,
        100.0 * checker.failed / max(1, checker.attempted),
        "" if not checker.failures else "; " + ", ".join(checker.failures[:10])))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
