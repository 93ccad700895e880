"""Benchmark entry point for the mzv package.

    python3 perfbench/run.py [--workload verify-corpus|search-h16|deep-eval|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from `src/`, nothing
is installed or built.  Each workload runs in a fresh interpreter
(`workloads.py`), one after another, single-threaded.  The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the lines above it print every metric by name and
unit.  See README.md in this directory for what is measured and why.

--trace 0  end-to-end metrics: setup_s, total_ref_s, peak_rss_mb; the wall
           time, the host's slowdown, the median and tail latency and the
           workload's own named times are printed beside them.  setup_s and
           total_ref_s are seconds at the reference host speed: wall seconds
           divided by the slowdown that workloads.py's reference loop measured
           at the same time (see RefClock there).
--trace 1  per-layer metrics: the workload runs once untraced and once traced
           (same fixed plan, each in a fresh interpreter); the layer counters
           come from the traced run and trace.overhead_s is the difference
           between the two job wall times.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-corpus", "search-h16", "deep-eval")
SETUP_PROBES = 5  # before the workload and again after it, so a slow spell of the host weighs less
RUN_LIMIT_S = 170.0  # one workload, set-up included, must end within this

# `import mzv` plus parsing the packaged corpus, timed inside a fresh
# interpreter; then the host's slowdown, from the reference loop (workloads.py)
_SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import mzv\n"
    "from mzv.verify import load_corpus\n"
    "n = len(load_corpus())\n"
    "t1 = time.perf_counter()\n"
    f"sys.path.insert(0, {str(HERE)!r})\n"
    "from workloads import REF_NOMINAL_S, host_probe\n"
    "print(t1 - t0, host_probe() / REF_NOMINAL_S, n)\n"
)

E2E_UNITS = {"setup_s": "s", "total_ref_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, deadline):
    left = deadline - monotonic()
    if left <= 0:
        raise BenchError("time limit reached before " + " ".join(cmd[1:3]))
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(cmd[1:3])} exceeded the {RUN_LIMIT_S:.0f} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd[1:])} exited with code {proc.returncode}")
    return lines[-1]


def measure_setup(deadline):
    """Seconds of `import mzv` + parsing the corpus, each in a fresh interpreter,
    divided by the host's slowdown measured right after it in that interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        seconds, slowdown, identities = run_child([sys.executable, "-c", _SETUP_CODE],
                                                  deadline).split()
        if int(identities) != 46:
            raise BenchError(f"the packaged corpus parsed to {identities} identities, not 46")
        times.append(float(seconds) / float(slowdown))
    return times


def workload_child(name, args, deadline, traced, fixed_plan):
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if fixed_plan:
        cmd.append("--fixed-plan")
    if traced:
        cmd.append("--trace")
    return json.loads(run_child(cmd, deadline))


def show(label, value, unit):
    print(f"  {label:<44} {value:>14.6g} {unit}")


def run_workload(name, args):
    deadline = monotonic() + RUN_LIMIT_S
    if args.trace:
        print(f"{name} (seed {args.seed}, fixed plan, traced)")
    elif name == "verify-corpus":
        print(f"{name} (seed {args.seed}, {args.seconds:g} s warm window)")
    else:
        print(f"{name} (seed {args.seed})")
    if not args.trace:
        setup = measure_setup(deadline)
        res = workload_child(name, args, deadline, traced=False, fixed_plan=False)
        setup += measure_setup(deadline)
        lat = res["latency"]
        if not res["ref_samples"]:
            raise BenchError(f"{name}: the reference loop never ran during the job")
        metrics = {
            "setup_s": statistics.median(setup),
            "total_ref_s": res["total_s"] / res["slowdown"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        for key, value in metrics.items():
            show(key, value, unit_of(key))
        show("total_s (wall)", res["total_s"], "s")
        show(f"host slowdown ({res['ref_samples']} reference loops)", res["slowdown"], "x")
        show("p50_ms", lat["p50_ms"], "ms")
        show(f"tail_ms (p{lat['tail_pct']:.1f} of {lat['samples']} samples)", lat["tail_ms"], "ms")
        for key, value in res["named"].items():
            show(key, value, "s")
    else:
        base = workload_child(name, args, deadline, traced=False, fixed_plan=True)
        res = workload_child(name, args, deadline, traced=True, fixed_plan=True)
        metrics = dict(res["layers"])
        metrics["trace.overhead_s"] = res["job_wall_s"] - base["job_wall_s"]
        metrics["host.probe_s"] = res["probe_s"]
        res["correct"] = res["correct"] and base["correct"]
        for key, value in metrics.items():
            show(key, value, unit_of(key))
        for layer, self_s in res["layer_self_s"].items():
            show(f"{layer} self time", self_s, "s")
        for phase, layers in res.get("phases", {}).items():
            for layer in ("numerics.char_em", "numerics.class_tail"):
                calls, misses, self_s = layers[layer]
                print(f"  {phase} pass {layer}: {calls} calls, {misses} misses, {self_s:.3f} s self")
        show("untraced job wall", base["job_wall_s"], "s")
        show("traced job wall", res["job_wall_s"], "s")
    failed_frac = res["failed"] / res["attempted"]
    show("failed_frac", failed_frac, f"({res['failed']} of {res['attempted']})")
    show("host_probe_s (informational)", res["probe_s"], "s")
    for line in res.get("raised", []):
        print(f"  raised: {line}")
    return {"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
            "failed": int(res["failed"]), "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description="mzv benchmark: verify-corpus, search-h16, deep-eval")
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mzv" / "__init__.py").is_file():
        print(f"perfbench: no mzv package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args) for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (out,) = results.values()
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{key}": value for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }
    out["metrics"] = {key: {"value": value, "unit": unit_of(key)}
                      for key, value in out["metrics"].items()}
    print(json.dumps(out))
    return 0


def unit_of(key):
    key = key.split("/")[-1]  # "deep-eval/total_ref_s" in an all-workload run
    if key in E2E_UNITS:
        return E2E_UNITS[key]
    last = key.rsplit(".", 1)[-1]
    return {"calls": "count", "misses": "count", "self_s": "s", "self_pct": "%",
            "overhead_s": "s", "probe_s": "s", "cache_entries": "count",
            "candidates": "count"}.get(last, "ratio")


if __name__ == "__main__":
    sys.exit(main())
