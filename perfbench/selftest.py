"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py [--workload NAME|all] [--seed N]

For each workload it runs the fixed plan three times, each in a fresh
interpreter: once untraced and twice traced with the same seed.  It fails
(exit code 1) unless

* the two traced runs give identical call, miss and cache-entry counts, and
* all three runs pass the workload's correctness checks with the same
  attempted and failed counts, which shows the wrappers alter no value.

It also prints how the traced counts compare with the seed counts recorded in
baseline.json; a change that alters the work done moves those on purpose, so
they are reported, not enforced.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import monotonic

from run import WORKLOADS, BenchError, run_child

HERE = Path(__file__).resolve().parent


def child(name, seed, traced):
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", name, "--seed", str(seed),
           "--seconds", "0", "--fixed-plan"] + (["--trace"] if traced else [])
    return json.loads(run_child(cmd, monotonic() + 600))


def counters(res):
    return {k: v for k, v in res["layers"].items()
            if k.endswith((".calls", ".misses", "cache_entries", "candidates"))}


def check(name, seed, seed_counts):
    plain = child(name, seed, False)
    first = child(name, seed, True)
    second = child(name, seed, True)
    problems = []
    a, b = counters(first), counters(second)
    for key in a:
        if a[key] != b[key]:
            problems.append(f"{key}: {a[key]} then {b[key]} in two traced runs")
    for label, res in (("untraced", plain), ("traced", first), ("traced again", second)):
        if not res["correct"]:
            problems.append(f"{label} run failed its correctness checks")
        if (res["attempted"], res["failed"]) != (plain["attempted"], plain["failed"]):
            problems.append(f"{label} run: {res['failed']} of {res['attempted']} failed, "
                            f"untraced {plain['failed']} of {plain['attempted']}")
    expected = seed_counts.get(name, {})
    moved = []
    for key, want in expected.items():
        phase, _, metric = key.rpartition(":")
        if phase:  # a per-phase count, e.g. "cold:numerics.char_em.calls"
            layer, _, field = metric.rpartition(".")
            got = first["phases"][phase][layer][("calls", "misses").index(field)]
        else:
            got = first["layers"].get(key, 0)
        if got != want:
            moved.append(f"{key} = {got} (seed had {want})")
    print(f"  {name}: {len(expected) - len(moved)} of {len(expected)} seed counts as at seed")
    for line in moved:
        print(f"    {line}")
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description="benchmark tracing self-test")
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    seed_counts = json.loads((HERE / "baseline.json").read_text())["seed_counts"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    failed = False
    for name in names:
        try:
            problems = check(name, args.seed, seed_counts)
        except BenchError as exc:
            problems = [str(exc)]
        for p in problems:
            print(f"  FAIL {name}: {p}")
        print(f"{name}: {'FAIL' if problems else 'ok'}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
