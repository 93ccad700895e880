"""One benchmark workload, run in a fresh interpreter.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S
                                   [--trace] [--fixed-plan]

`run.py` starts this file once per workload (twice in a traced run) and reads
the JSON object it prints on its last line.  It imports `mzv` from the
checkout's `src/`, checks every output it gets and reports timings, counters
and the correctness tally.  It starts no process or thread of its own.

Workloads (one caller; each request is sent after the previous one returns):

* verify-corpus: the packaged corpus at max-param 10, P = 40 (665 instances):
  one cold numeric pass, then warm numeric and symbolic passes, alternating,
  for ``--seconds`` (at least three of each; exactly one each with
  ``--fixed-plan``).  The seed is recorded, unused.
* search-h16: ``search_general(SearchConfig(H=16))`` with the default
  families.  The seed is recorded, unused.
* deep-eval: a cold ``dzeta_num(3, 2)`` at P = 300, then a stream of
  ``char_dzeta_num`` requests in an order drawn from the seed (see
  `deep_draw`), each evaluated together with its reflection partner.
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify-corpus", "search-h16", "deep-eval")

# --- seed expectations (the values the program produced when the benchmark was written)
VERIFY_INSTANCES = 665
VERIFY_MUST_PASS = 560
SEARCH_SURVIVORS = {
    ("power", "any", "1"),
    ("power", "any", "2"),
    ("power", "even", "-1"),
    ("symmetric-even", "any", "4"),
}

CHARS = ("1", "2a", "2b", "m4")
CHI = {"1": (1, 1, 1, 1), "2a": (1, 0, 1, 0), "2b": (1, -1, 1, -1), "m4": (1, 0, -1, 0)}
MEAN_ZERO = ("2b", "m4")
DEEP_PRECS = (100, 300)
DEEP_MAX_EXP = 2


REF_INTERVAL_S = 0.05  # how often the reference loop runs during a measured job
# The reference loop's time on an unloaded core: the fastest of about 10,000
# runs on a 2-core x86-64 host under Python 3.11.  Only scales total_ref_s.
REF_NOMINAL_S = 0.00200
_REF_X = 3**630  # about 1000 bits, the mantissa size of a P = 300 mpf


def reference_loop():
    """A fixed piece of work like the job's own: small Fractions (the exact
    algebra) and 1000-bit integer products (the pure-Python mpmath backend).
    It touches no state of `mzv` or `mpmath`."""
    acc, y = Fraction(0), 0
    for k in range(1, 121):
        acc = Fraction(k, k + 1) * Fraction(k + 2, k + 3) + acc.limit_denominator(10**6)
        y += ((_REF_X * (_REF_X + k)) >> 1000) // (k + 7)
    return acc, y


class RefClock:
    """The job's clock, and how fast the host ran while the job did.

    On this kind of shared host the same job runs up to twice as slowly when
    other tenants are busy, and such spells last minutes, so single runs of a
    fixed job spread by 20-30%.  While started, a SIGALRM timer runs
    `reference_loop` every REF_INTERVAL_S seconds in the job's own thread; its
    mean time over the job, divided by REF_NOMINAL_S, is the host's slowdown
    during the job.  `now()` leaves out the time spent in the reference loop,
    so the job's timings are the same as without it.  Not started (traced
    and fixed-plan runs), it is plain `perf_counter`.
    """

    def __init__(self):
        self.samples = []
        self.paused = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        reference_loop()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.paused += dt

    def now(self):
        while True:
            paused = self.paused
            t = perf_counter()
            if paused == self.paused:  # no tick between the two reads
                return t - paused

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self):
        return statistics.fmean(self.samples) / REF_NOMINAL_S if self.samples else None


CLOCK = RefClock()


def host_probe(runs=25):
    """Mean seconds of `reference_loop` over `runs` runs in a row."""
    t0 = perf_counter()
    for _ in range(runs):
        reference_loop()
    return (perf_counter() - t0) / runs


def tail_of(values):
    """(value, percentile, n): the highest percentile with at least ten samples
    beyond it, i.e. the 11th largest sample; the largest when n <= 10."""
    xs = sorted(values)
    n = len(xs)
    i = max(n - 11, 0) if n > 10 else n - 1
    return xs[i], 100.0 * (i + 1) / n, n


def latency_summary(values):
    tail, pct, n = tail_of(values)
    return {"p50_ms": 1e3 * statistics.median(values), "tail_ms": 1e3 * tail,
            "tail_pct": pct, "samples": n}


# ---------------------------------------------------------------------------
# verify-corpus
# ---------------------------------------------------------------------------


def run_verify(args, tracer, identities):
    from mzv import EvalContext, verify

    ctx = EvalContext(40)
    instances = [(i, b) for i in identities for b in verify.enumerate_bindings(i, 10)]
    phases = {}
    checks = []

    def one_pass(name, fn):
        if tracer:
            tracer.span_begin(f"verify.{name}_pass")
            before = tracer.snapshot()
        reports, lat = [], []
        t0 = CLOCK.now()
        for ident, binding in instances:
            t1 = CLOCK.now()
            reports.append(fn(ident, binding))
            lat.append(CLOCK.now() - t1)
        elapsed = CLOCK.now() - t0
        if tracer:
            tracer.span_end()
            phases.setdefault(name, tracer.snapshot_diff(before))
        checks.append((name, verify.summarize(reports)))
        return elapsed, lat

    numeric = lambda ident, b: verify.verify_numeric(ident, b, ctx)  # noqa: E731
    cold_s, _ = one_pass("cold", numeric)
    warm, sym, warm_lat = [], [], []
    t_window = CLOCK.now()
    while True:
        s, lat = one_pass("warm", numeric)
        warm.append(s)
        warm_lat.append(lat)
        sym.append(one_pass("symbolic", verify.verify_symbolic)[0])
        if args.fixed_plan:
            break
        if len(warm) >= 3 and CLOCK.now() - t_window >= args.seconds:
            break

    correct = len(instances) == VERIFY_INSTANCES and all(
        summ["failures"] == 0 and (name == "symbolic" or summ["passes"] == VERIFY_MUST_PASS)
        for name, summ in checks
    )
    # per-instance warm latency: the median over the warm passes
    per_instance = [statistics.median(col) for col in zip(*warm_lat)]
    named = {
        "verify_cold_s": cold_s,
        "verify_warm_s": statistics.median(warm),
        "verify_symbolic_s": statistics.median(sym),
    }
    return {
        "correct": correct,
        "attempted": sum(summ["instances"] for _, summ in checks),
        "failed": sum(summ["failures"] for _, summ in checks),
        "total_s": sum(named.values()),
        "latency": latency_summary(per_instance),
        "named": named,
        "passes": {"warm": len(warm), "symbolic": len(sym)},
        "phases": phases,
    }


# ---------------------------------------------------------------------------
# search-h16
# ---------------------------------------------------------------------------


def run_search(args, tracer, identities):
    from mzv import search

    # candidate boundary clock: every candidate passes through _is_new once
    stamps = []
    is_new = search._is_new

    def stamped(cand, emitted, *rest, **kw):
        stamps.append(CLOCK.now())
        return is_new(cand, emitted, *rest, **kw)

    search._is_new = stamped
    try:
        t0 = CLOCK.now()
        survivors = search.search_general(search.SearchConfig(H=16))
        search_s = CLOCK.now() - t0
    finally:
        search._is_new = is_new
    edges = [t0, *stamps, t0 + search_s]
    per_candidate = [b - a for a, b in zip(edges, edges[1:])]
    got = {(c.family, c.s_parity, str(c.params.get("a", c.params.get("d")))) for c in survivors}
    ok = got == SEARCH_SURVIVORS
    return {
        "correct": ok,
        "attempted": 1,
        "failed": 0 if ok else 1,
        "total_s": search_s,
        "latency": latency_summary(per_candidate),
        "named": {"search_s": search_s},
        "survivors": sorted("/".join(k) for k in got),
    }


# ---------------------------------------------------------------------------
# deep-eval
# ---------------------------------------------------------------------------


def convergent(p, q, s, t):
    """The documented domain of char_dzeta_num: t >= 1, and s >= 2 or s = 1
    with a mean-zero outer character."""
    return t >= 1 and (s >= 2 or (s == 1 and p in MEAN_ZERO))


def deep_draw(seed):
    """The request stream for one seed: every reflection pair of the bounded
    domain, once, in an order drawn from the seed.

    The pairs {[p,q](s,t), [q,p](t,s)} are those with 1 <= s, t <= DEEP_MAX_EXP
    whose two members are both in the domain and (s, t) != (1, 1), at each
    precision in DEEP_PRECS.  The s = t = 1 cell enters with its two documented
    corners: the pair [m4,2b](1,1) / [2b,m4](1,1), and [2b,1](1,1), whose
    partner diverges and which is checked against its closed form -log(2)^2/2.
    Sending the whole domain makes the set of requests, and so the work, the
    same for every seed; the seed decides which request is the first to touch
    a new exponent or precision and so pays for the cold caches.
    """
    pool = set()
    for s in range(1, DEEP_MAX_EXP + 1):
        for t in range(1, DEEP_MAX_EXP + 1):
            if (s, t) == (1, 1):
                continue
            for p in CHARS:
                for q in CHARS:
                    if convergent(p, q, s, t) and convergent(q, p, t, s):
                        pool.add(min((p, q, s, t), (q, p, t, s)))
    ops = []
    for P in DEEP_PRECS:
        ops += [(P, req, True) for req in sorted(pool)]
        ops += [(P, ("m4", "2b", 1, 1), True), (P, ("2b", "1", 1, 1), False)]
    random.Random(seed).shuffle(ops)
    return ops


class Reference:
    """Independent values from mpmath: L_p(s) through Hurwitz zeta(s, r/4) for
    s >= 2, log 2 and pi/4 at s = 1.  Cached here, outside the timed region."""

    def __init__(self):
        self._L = {}

    def L(self, p, s, P):
        from mpmath import mp

        key = (p, s, P)
        if key not in self._L:
            with mp.workdps(P + 30):
                if s == 1:
                    v = {"2b": mp.log(2), "m4": mp.pi / 4}[p]
                else:
                    v = sum(c * mp.zeta(s, mp.mpf(r) / 4) for r, c in zip((1, 2, 3, 4), CHI[p]) if c)
                    v = v / mp.mpf(4) ** s
            self._L[key] = v
        return self._L[key]

    def reflection(self, p, q, s, t, P):
        """[p,q](s,t) + [q,p](t,s) = L_p(s) L_q(t) - L_pq(s+t)."""
        from mpmath import mp

        pq = next(n for n, v in CHI.items() if v == tuple(a * b for a, b in zip(CHI[p], CHI[q])))
        with mp.workdps(P + 30):
            return self.L(p, s, P) * self.L(q, t, P) - self.L(pq, s + t, P)


def run_deep(args, tracer, identities):
    from mpmath import mp

    from mzv import DomainError, EvalContext, PrecisionError, char_dzeta_num, dzeta_num

    ref = Reference()
    ops = deep_draw(args.seed)
    ok = True

    if tracer:
        tracer.span_begin("deep.request")
    t0 = CLOCK.now()
    v = dzeta_num(3, 2, EvalContext(300))
    first_s = CLOCK.now() - t0
    if tracer:
        tracer.span_end()
    with mp.workdps(330):
        want = mp.pi**2 / 2 * mp.zeta(3) - mp.mpf(11) / 2 * mp.zeta(5)
        ok &= abs(v - want) <= mp.mpf(10) ** -300

    latencies, failed, raised = [], 0, []
    for P, (p, q, s, t), paired in ops:
        ctx = EvalContext(P)
        if tracer:
            tracer.span_begin("deep.request")
        t1 = CLOCK.now()
        values, error = [], None
        for req in ((p, q, s, t), (q, p, t, s)) if paired else ((p, q, s, t),):
            try:
                values.append(char_dzeta_num(*req, ctx))
            except (DomainError, PrecisionError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        latencies.append(CLOCK.now() - t1)
        if tracer:
            tracer.span_end()
        if error is not None:
            failed += 1
            raised.append(f"[{p},{q}]({s},{t}) P={P}: {error}")
            continue
        with mp.workdps(P + 30):
            if paired:
                residual = abs(values[0] + values[1] - ref.reflection(p, q, s, t, P))
                bound = 2 * mp.mpf(10) ** -P
            else:  # [2b,1](1,1) = -log(2)^2 / 2
                residual = abs(values[0] + mp.log(2) ** 2 / 2)
                bound = mp.mpf(10) ** -P
            if residual > bound:
                failed += 1
                ok = False
    return {
        "correct": bool(ok),
        "attempted": len(ops) + 1,
        "failed": failed,
        "total_s": first_s + sum(latencies),
        "latency": latency_summary(latencies),
        "named": {
            "eval_dz32_p300_s": first_s,
            "deep_total_s": first_s + sum(latencies),
            "deep_p50_s": statistics.median(latencies),
            "deep_tail_s": tail_of(latencies)[0],
        },
        "raised": sorted(set(raised)),
    }


RUNNERS = {"verify-corpus": run_verify, "search-h16": run_search, "deep-eval": run_deep}


def layer_metrics(tracer, job_s, survivors):
    """The per-layer numbers of a traced run (see tracer.py)."""
    from mzv import numerics

    from tracer import CACHED, SEARCH_STAGES, SHARED_TIMED

    out = {}
    for name, st in tracer.stats.items():
        if name not in SEARCH_STAGES:
            out[f"{name}.calls"] = st.calls
        if name in CACHED:
            out[f"{name}.misses"] = st.misses
        if name in SHARED_TIMED:
            out[f"{name}.self_s"] = st.self_s
        else:
            out[f"{name}.self_pct"] = 100.0 * st.self_s / job_s
    for key, names in (
        ("value", ("numerics.char_em", "numerics.L", "numerics.witten")),
        ("kernel", ("numerics.class_tail",)),
        ("array", ("numerics.inner_array",)),
    ):
        calls = sum(tracer.stats[n].calls for n in names)
        misses = sum(tracer.stats[n].misses for n in names)
        out[f"numerics.{key}_hit_ratio"] = (calls - misses) / calls if calls else 0.0
    out["numerics.cache_entries"] = (
        len(numerics._value_cache) + len(numerics._kernel_cache) + len(numerics._array_cache)
    )
    checked = tracer.stats["search.is_new"].calls
    out["search.candidates"] = checked
    out["search.emit_ratio"] = survivors / checked if checked else 0.0
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true",
                    help="count layers; write the spans to .perfbench_out/trace-<workload>-<seed>.json")
    ap.add_argument("--fixed-plan", action="store_true",
                    help="one warm and one symbolic verify pass, whatever --seconds says")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    probe_s = host_probe()

    from mzv import verify

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    identities = verify.load_corpus()

    if not (args.trace or args.fixed_plan):  # a measured run: track the host's speed
        CLOCK.start()
    try:
        t_job = CLOCK.now()
        res = RUNNERS[args.workload](args, tracer, identities)
        job_wall_s = CLOCK.now() - t_job
    finally:
        CLOCK.stop()
    res.update(
        workload=args.workload,
        seed=args.seed,
        probe_s=probe_s,
        job_wall_s=job_wall_s,
        slowdown=CLOCK.slowdown(),
        ref_samples=len(CLOCK.samples),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer:
        res["layers"] = layer_metrics(tracer, job_wall_s, len(res.get("survivors", ())))
        res["layer_self_s"] = {n: st.self_s for n, st in tracer.stats.items()}
        out = ROOT / ".perfbench_out" / f"trace-{args.workload}-{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        with open(out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "spans": tracer.spans}, fh)
        tracer.uninstall()
    print(json.dumps(res, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
