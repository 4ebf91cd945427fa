#!/usr/bin/env python3
"""Input-determinism self-check of the benchmark.

Run from the repository root:

    python3 perfbench/selfcheck.py [--seed 1] [--workload W ...]

For each workload, runs perfbench/run.py twice with one seed and once with the
next seed (short runs).  The `determinism:` line (event, p2p, logical-edge and
repaired counts plus the input CRC) must match exactly between the two
same-seed runs, and the input CRC must change with the seed.  Every run must
also report correct outputs.  Exits 0 when all checks hold.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("p2p-sweep", "collective-pop", "stream-sweep")


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    record = next(line for line in lines if line.startswith("determinism:"))
    fields = dict(kv.split("=") for kv in record.split()[1:])
    return fields, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()

    ok = True
    for workload in args.workload or WORKLOADS:
        a, ra = run(workload, args.seed)
        b, rb = run(workload, args.seed)
        c, rc = run(workload, args.seed + 1)
        checks = {
            "same seed, same record": a == b,
            "other seed, other input": a["input_crc"] != c["input_crc"],
            "outputs correct": ra["correct"] and rb["correct"] and rc["correct"],
        }
        for name, passed in checks.items():
            print(f"{workload}: {name}: {'ok' if passed else 'FAILED'}")
            ok &= passed
        print(f"{workload}: seed {args.seed}: {a}")
        print(f"{workload}: seed {args.seed + 1}: {c}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
