#!/usr/bin/env python3
"""End-to-end trace-correction benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload p2p-sweep --seed 1 --seconds 20 --trace 0

One run builds perfbench/ together with the chronosync sources under src/
into .bench_build/ (incremental after the first run), then runs three
processes of the benchmark program:

1. ``setup`` simulates the workload from --seed and writes the trace plus its
   probe record, three times before the corrections and twice after them;
   set-up time is the median of the five, and the five inputs must be
   bit-identical.
2. ``correct`` corrects the trace file to file, checking every output, for
   --seconds.  Its peak RSS covers corrections only.
3. ``evaluate`` checks the kept output of the warm-up correction against
   the input and the simulator's ground truth.

Every metric is printed with its unit; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer ones with --trace 1.  README.md in this
directory lists the workloads and which end-to-end metric each layer metric
should move.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("p2p-sweep", "collective-pop", "stream-sweep")
# Set-up reps before and after the corrections, so that set-up time samples
# the machine over the whole run, as the corrections do.
SETUP_REPS = (3, 2)
RUN_BUDGET_S = 170  # wall budget of one run after the build
BUILD_BUDGET_S = 850

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; returns the program path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no chronosync sources under {ROOT}/src")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        deadline = time.monotonic() + BUILD_BUDGET_S
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr,
                           timeout=deadline - time.monotonic())
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                       stdout=sys.stderr, timeout=deadline - time.monotonic())
    return os.path.join(BUILD_DIR, "perfbench")


def run_json(cmd, deadline):
    """Runs one benchmark process and parses its last stdout line."""
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                         timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(out.stdout.strip().splitlines()[-1])


def median(values, default=0.0):
    return statistics.median(values) if values else default


def end_to_end(setup, corr, events):
    """The metrics a user of the correction sees (--trace 0)."""
    rates = [events / w for w in corr["wall_s"]]
    return {
        "events_per_s": (median(rates), "1/s"),
        "cpu_s_p50": (median(corr["cpu_s"]), "s"),
        "peak_rss_mb": (corr["peak_rss_bytes"] / 1e6, "MB"),
        "setup_s": (median([a + b for a, b in zip(setup["simulate_s"], setup["write_s"])]), "s"),
    }


def output_quality(corr, ev):
    """What the user gets besides speed.  Printed with --trace 0 but not
    exported there: accuracy and distortion follow the seed's clock drifts,
    far beyond any regression bound, and failed_frac is failed / attempted."""
    return {
        "failed_frac": (corr["failed"] / corr["attempted"], "ratio"),
        "accuracy_rms_us": (ev["accuracy_rms_us"], "us"),
        "interval_distortion_pct": (ev["interval_distortion_pct"], "%"),
    }


def per_layer(setup, corr, ev, events):
    """Layer medians over the traced corrections (--trace 1).  A layer the
    workload's correction path bypasses reads 0."""
    layers = corr["layers"]
    counts = corr["counts"]

    def ms(name):
        return median(layers.get(name, {}).get("ms", []))

    def alloc_per_event(name):
        return median(layers.get(name, {}).get("alloc_bytes", [])) / events

    edges = counts["p2p_messages"] + counts["logical_messages"]
    dag = ev["dag_critical_path"]
    traced = corr["traced_wall_s"]
    unattributed = [100.0 * (w - s) / w for w, s in zip(traced, corr["span_sum_s"])]
    overhead = 100.0 * (median(traced) / median(corr["untraced_wall_s"], 1.0) - 1.0)
    return {
        "trace.decode_ms": (ms("trace.decode"), "ms"),
        "trace.decode_alloc_b_per_event": (alloc_per_event("trace.decode"), "B/event"),
        "trace.input_b_per_event": (counts["input_bytes"] / events, "B/event"),
        "trace.match_ms": (ms("trace.match"), "ms"),
        "trace.p2p_messages": (counts["p2p_messages"], "count"),
        "trace.derive_ms": (ms("trace.derive"), "ms"),
        "trace.logical_messages": (counts["logical_messages"], "count"),
        "sync.schedule_ms": (ms("sync.schedule"), "ms"),
        "sync.schedule_edges": (counts["schedule_edges"], "count"),
        "sync.schedule_alloc_b_per_event": (alloc_per_event("sync.schedule"), "B/event"),
        "sync.dag_critical_path": (dag, "count"),
        "sync.dag_width": (events / dag if dag else 0.0, "ratio"),
        "sync.presync_ms": (ms("sync.presync"), "ms"),
        "sync.clc_ms": (ms("sync.clc"), "ms"),
        "sync.clc_repaired": (counts["repaired"], "count"),
        "sync.clc_repair_ratio": (counts["repaired"] / edges if edges else 0.0, "ratio"),
        "sync.clc_alloc_b_per_event": (alloc_per_event("sync.clc"), "B/event"),
        "verify.audit_ms": (ms("verify.audit"), "ms"),
        "verify.audit_edges": (counts["audit_edges"], "count"),
        "trace.encode_ms": (ms("trace.encode"), "ms"),
        "trace.output_b_per_event": (counts["output_bytes"] / events, "B/event"),
        "sync.clc_stream_ms": (ms("sync.clc_stream"), "ms"),
        "sync.clc_stream_alloc_b_per_event": (alloc_per_event("sync.clc_stream"), "B/event"),
        "sync.stream_peak_resident_events": (counts["stream_peak_resident_events"], "count"),
        "sync.stream_peak_outstanding_msgs": (counts["stream_peak_outstanding_msgs"], "count"),
        "sync.stream_spilled_msgs": (counts["stream_spilled_msgs"], "count"),
        "sync.stream_divergences": (counts["stream_divergences"], "count"),
        "analysis.scan_ms": (ms("analysis.scan"), "ms"),
        "analysis.scan_peak_outstanding_messages":
            (counts["scan_peak_outstanding_messages"], "count"),
        "workload.simulate_ms": (1e3 * median(setup["simulate_s"]), "ms"),
        "trace.setup_write_ms": (1e3 * median(setup["write_s"]), "ms"),
        "verify.accuracy_rms_us": (ev["accuracy_rms_us"], "us"),
        "analysis.interval_distortion_pct": (ev["interval_distortion_pct"], "%"),
        "e2e.unattributed_pct": (median(unattributed), "%"),
        "e2e.trace_overhead_pct": (overhead, "%"),
    }


def output_problems(workload, setup, corr, ev, events):
    """Every reason the run's outputs are not correct; empty when they are."""
    problems = list(corr["errors"])
    if not setup["deterministic"]:
        problems.append("set-up reps with one seed wrote different inputs")
    if not corr["warmup_ok"]:
        problems.append("warm-up correction failed its check")
    if not corr["wall_s"]:
        problems.append("no correction succeeded")
    if not ev["fields_match"] or ev["output_events"] != events:
        problems.append("output events differ from the input beyond local_ts")
    if ev["output_violations"] != 0:
        problems.append("output violates the clock condition")
    if ev["accuracy_rms_us"] < 0:
        problems.append("no ground truth to measure accuracy against")
    if workload == "stream-sweep":
        # Out of core means far below what the trace's events alone would
        # take in memory; the in-memory path needs several times that.
        bound = events * corr["event_struct_bytes"] / 4
        if corr["peak_rss_bytes"] >= bound:
            problems.append(f"streaming peak RSS {corr['peak_rss_bytes']} B is not "
                            f"below {bound:.0f} B (a quarter of the events' size)")
    return problems


def terminate(signum, _frame):
    # Unwinds through subprocess.run, which kills and reaps the running
    # child, and through the clean-up of the work directory.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        program = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    work = os.path.join(BUILD_ROOT, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    common = ["--workload", args.workload, "--dir", work]
    try:
        setup_cmd = [program, "setup", *common, "--seed", str(args.seed), "--reps"]
        setup = run_json(setup_cmd + [str(SETUP_REPS[0])], deadline)
        events = setup["events"]
        corr = run_json([program, "correct", *common, "--events", str(events),
                         "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        late = run_json(setup_cmd + [str(SETUP_REPS[1])], deadline)
        ev = run_json([program, "evaluate", *common, "--trace", str(args.trace)], deadline)
    except (OSError, subprocess.SubprocessError, ValueError, IndexError) as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup["simulate_s"] += late["simulate_s"]
    setup["write_s"] += late["write_s"]
    setup["deterministic"] &= late["deterministic"] and late["input_crc"] == setup["input_crc"]

    problems = output_problems(args.workload, setup, corr, ev, events)
    attempted, failed = corr["attempted"], corr["failed"]
    counts = corr["counts"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} corrections of {events} events, {len(corr['wall_s'])} succeeded")
    print(f"determinism: events={events} p2p_messages={counts['p2p_messages']} "
          f"logical_messages={counts['logical_messages']} repaired={counts['repaired']} "
          f"input_crc={setup['input_crc']:08x}")
    if args.trace:
        metrics = per_layer(setup, corr, ev, events)
        shown = metrics
    else:
        metrics = end_to_end(setup, corr, events)
        shown = {**metrics, **output_quality(corr, ev)}
    for name, (value, unit) in shown.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    if args.trace:
        for name, layer in sorted(corr["layers"].items()):
            print(f"  span {name:35s} {median(layer['ms']):.6g} ms")
    for p in problems:
        print(f"  problem: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
