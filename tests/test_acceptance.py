"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""
import math
import random
import time
from fractions import Fraction

from mpmath import mp, mpf

import mzv.numerics as numerics
from mzv.exact import (
    alternating_binom_sum,
    bernoulli,
    euler_number,
    harmonic,
    inv_binomial_sum,
)
from mzv.errors import NotReducible
from mzv.numerics import (
    CHAR_IDS,
    EvalContext,
    L_num,
    brute_force_oracle,
    char_dzeta_num,
    char_product,
    dzeta_num,
    expr_num,
    harmonic_sum_num,
    witten_num,
    zeta_num,
)
from mzv.reductions import dzeta_reduce
from mzv.search import (
    SearchConfig,
    f_eval,
    search_general,
    search_poly_weights,
    solve_power_base,
)
from mzv.symexpr import pi_power, zeta_sym
from mzv.verify import SuiteConfig, eval_ast, run_suite, verify_numeric, load_corpus


def _report(num, ok, detail=""):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


TOL30 = mpf(10) ** -30


def test_criterion_1_full_corpus_run():
    """verify --all --max-param 10 --prec 40: every must-pass entry passes with
    residual <= 1e-30; the annotated C07/C10/C37 produce residual reports;
    total runtime <= 10 minutes."""
    t0 = time.perf_counter()
    reports, summary = run_suite(SuiteConfig(max_param=10, prec=40))
    elapsed = time.perf_counter() - t0
    with mp.workdps(60):
        must = [r for r in reports if r.expect == "must-pass"]
        bad = [r for r in must if r.status != "pass" or (r.residual not in ("0",) and mpf(r.residual) > TOL30)]
        annotated = {r.ident for r in reports if r.expect == "report"}
        has_reports = annotated == {"C07", "C10", "C37"} and all(
            r.residual is not None for r in reports if r.expect == "report" and r.status != "error"
        )
    ok = not bad and summary["failures"] == 0 and has_reports and elapsed <= 600
    _report(
        1,
        ok,
        f"{summary['instances']} instances, {summary['failures']} failures, "
        f"{len(bad)} above 1e-30, report-only ids {sorted(annotated)}, {elapsed:.1f}s",
    )


def test_criterion_2_closed_form_table():
    """dzeta_reduce reproduces the weight <= 5 table exactly, each value is
    confirmed numerically to <= 1e-30 at P = 40, and zeta(5,3) refuses."""
    ctx = EvalContext(40)
    z5 = zeta_sym(5)
    z2z3 = zeta_sym(2) * zeta_sym(3)
    table = {
        (2, 1): zeta_sym(3),
        (2, 2): pi_power(4, Fraction(1, 120)),
        (3, 1): pi_power(4, Fraction(1, 360)),
        (4, 1): z5 * 2 - z2z3,
        (3, 2): z2z3 * 3 - z5 * Fraction(11, 2),
        (2, 3): z5 * Fraction(9, 2) - z2z3 * 2,
    }
    ok = True
    detail = []
    with mp.workdps(60):
        for (a, b), want in table.items():
            if dzeta_reduce(a, b) != want:
                ok = False
                detail.append(f"symbolic {a},{b}")
            got, _ = numerics._char_em("1", "1", a, b, ctx.work_digits)
            if abs(got - expr_num(want, ctx)) > TOL30:
                ok = False
                detail.append(f"numeric {a},{b}")
    try:
        dzeta_reduce(5, 3)
        ok = False
        detail.append("zeta(5,3) reduced unexpectedly")
    except NotReducible:
        pass
    _report(2, ok, "; ".join(detail) or "6 closed forms + zeta(5,3) NotReducible")


def test_criterion_3_tabulated_constants():
    """The tabulated harmonic-sum and alternating closed forms hold to 1e-30 at P=40."""
    ctx = EvalContext(40)
    bad = []
    with mp.workdps(60):
        z3, z5 = zeta_num(3, ctx), zeta_num(5, ctx)
        pi, ln2 = +mp.pi, mp.log(2)
        z4 = zeta_num(4, ctx)
        checks = {
            "half_index(2)": (
                harmonic_sum_num("half_index", 2, ctx),
                mpf(37) / 4 * z5 - mpf(2) / 3 * pi**2 * z3,
            ),
            "odd_denom(4)": (
                harmonic_sum_num("odd_denom", 4, ctx),
                (372 * z5 - 21 * pi**2 * z3 - 2 * pi**4 * ln2) / 96,
            ),
            "odd_denom(5)": (
                harmonic_sum_num("odd_denom", 5, ctx),
                (pi**6 - 294 * z3**2 - 744 * ln2 * z5) / 384,
            ),
            "alt(2,1)": (char_dzeta_num("2b", "1", 2, 1, ctx), -z3 / 8),
            "alt(2,2) even": (char_dzeta_num("2b", "2b", 2, 2, ctx), -3 * z4 / 16),
            "alt(2,2) Li4": (
                char_dzeta_num("2b", "1", 2, 2, ctx),
                ln2**4 / 6
                - ln2**2 * pi**2 / 6
                + mpf(7) / 2 * ln2 * z3
                - mpf(13) / 288 * pi**4
                + 4 * numerics._li4_half_internal(ctx.work_digits)[0],
            ),
        }
        for name, (got, want) in checks.items():
            if abs(got - want) > TOL30:
                bad.append(name)
    _report(3, not bad, "; ".join(bad) or f"{len(checks)} constants within 1e-30")


def test_criterion_4_search_reproduction():
    """Power bases exactly {1,2}; affine recovers the plain and 2^j sums;
    alternating recovers the signed sum; symmetric-even recovers d = 4;
    the degree-2 polynomial family recovers (2j-1)(2s-2j-1); and nothing else
    survives at height 16."""
    detail = []
    nonzero = set()
    for w in (5, 6, 7):
        nonzero = nonzero & set(solve_power_base(w, H=16)) if nonzero else set(
            solve_power_base(w, H=16)
        )
    nonzero = {a for a in nonzero if a != 0}
    ok = nonzero == {1, 2}
    if not ok:
        detail.append(f"power bases {sorted(nonzero)}")

    affine = search_general(SearchConfig(families=("affine",), H=4))
    pairs = {(c.params["b"], c.params["c"]) for c in affine if c.s_parity == "any"}
    if not {(Fraction(1), Fraction(0)), (Fraction(2), Fraction(0))} <= pairs:
        ok = False
        detail.append(f"affine pairs {sorted(pairs)}")

    alt = search_general(SearchConfig(families=("alternating",), H=4))
    if not any(
        c.params["a"] == -1 and f_eval(c.f_coeffs, 4) == Fraction(1, 2) for c in alt
    ):
        ok = False
        detail.append("alternating family missed the signed sum")

    full = search_general(SearchConfig(H=16))
    want_keys = {
        ("power", "any", "1"),
        ("power", "any", "2"),
        ("power", "even", "-1"),
        ("symmetric-even", "any", "4"),
    }
    got_keys = {
        (c.family, c.s_parity, str(c.params.get("a", c.params.get("d")))) for c in full
    }
    if got_keys != want_keys:
        ok = False
        detail.append(f"H=16 survivors {sorted(got_keys)}")
    d4 = next(c for c in full if c.family == "symmetric-even")
    for s in (2, 5, 9):
        if f_eval(d4.f_coeffs, s) != s + Fraction(4, 3) + Fraction(2, 3) * 4 ** (s - 1):
            ok = False
            detail.append("d=4 f(s) wrong")
            break

    poly = search_poly_weights(SearchConfig(families=("poly",), deg=2))
    quad = [c for c in poly if c.family == "poly-even"]
    if len(quad) != 1 or quad[0].params != {
        "1": Fraction(1),
        "s": Fraction(-2),
        "j*(s-j)": Fraction(4),
    }:
        ok = False
        detail.append("quadratic weight not recovered")
    elif any(f_eval(quad[0].f_coeffs, s) != Fraction(3, 4) * (s - 3) for s in (4, 7, 10)):
        ok = False
        detail.append("quadratic f(s) wrong")
    if len(poly) != 2:
        ok = False
        detail.append(f"poly emitted {len(poly)} candidates")
    _report(4, ok, "; ".join(detail) or "all families reproduce; no extra survivors at H=16")


def test_criterion_5_exact_integer_suites():
    """Bernoulli convolution (n<=40), Miki and twin recursions (n<=25),
    Euler convolution (even n<=30), inverse-binomial closed form (n<=30),
    Celine recursion (n<=20): exact equalities, zero tolerance."""
    bad = []
    for n in range(1, 41):
        if sum(math.comb(n + 1, k) * bernoulli(k) for k in range(n + 1)) != 0:
            bad.append(f"bernoulli {n}")
    for n in range(2, 26):
        lhs = sum(
            (1 - math.comb(2 * n, 2 * k))
            * bernoulli(2 * k)
            * bernoulli(2 * n - 2 * k)
            / ((2 * k) * (2 * n - 2 * k))
            for k in range(1, n)
        )
        if lhs != harmonic(2 * n) / n * bernoulli(2 * n):
            bad.append(f"miki {n}")
    for n in range(3, 26):
        lhs = sum(
            (n - math.comb(2 * n, 2 * k)) * bernoulli(2 * k) * bernoulli(2 * n - 2 * k - 2)
            for k in range(1, n - 1)
        )
        if lhs != (n - 1) * (2 * n - 1) * bernoulli(2 * n - 2):
            bad.append(f"twin {n}")
    for n in range(4, 31, 2):
        lhs = sum(
            math.comb(n - 2, k) * euler_number(k) * euler_number(n - 2 - k)
            for k in range(n - 1)
        )
        if lhs != Fraction(2**n * (2**n - 1)) * bernoulli(n) / n:
            bad.append(f"euler-conv {n}")
    for n in range(1, 31):
        want = (
            Fraction(2 * (n + 1), n + 2) if n % 2 == 0 else Fraction(0)
        )
        if inv_binomial_sum(n, n) != want:
            bad.append(f"invbinom {n}")
        m = n // 2
        direct = sum(Fraction((-1) ** k, math.comb(n, k)) for k in range(m + 1))
        if inv_binomial_sum(n, m) != direct:
            bad.append(f"invbinom partial {n}")
    for n in range(2, 21):
        if 4 * alternating_binom_sum(n) - 2 * alternating_binom_sum(n - 1) != 3 * (
            -1
        ) ** n * math.comb(2 * n, n):
            bad.append(f"celine {n}")
    _report(5, not bad, "; ".join(bad) or "all exact recursions hold with zero tolerance")


def test_criterion_6_reflection_sweep():
    """All 16 character pairs, 2 <= s,t <= 5, residual <= 4e-40 at P = 40."""
    ctx = EvalContext(40)
    worst = mpf(0)
    with mp.workdps(60):
        for p in CHAR_IDS:
            for q in CHAR_IDS:
                pq = char_product(p, q)
                for s in range(2, 6):
                    for t in range(2, 6):
                        lhs = char_dzeta_num(p, q, s, t, ctx) + char_dzeta_num(q, p, t, s, ctx)
                        rhs = L_num(p, s, ctx) * L_num(q, t, ctx) - L_num(pq, s + t, ctx)
                        worst = max(worst, abs(lhs - rhs))
        ok = worst <= 4 * mpf(10) ** -40
    _report(6, ok, f"worst residual {mp.nstr(worst, 3)} over 256 instances")


def test_criterion_7_oracle_equivalence():
    """20 randomized convergent tuples: the accelerated evaluators agree with
    brute_force_oracle(N=1e5) within the oracle's own rigorous bound."""
    ctx = EvalContext(40)
    rng = random.Random(20260809)
    bad = []
    N = 10**5
    with mp.workdps(60):
        for _ in range(8):
            a, b = rng.randint(2, 6), rng.randint(2, 5)
            value, bound = brute_force_oracle("dzeta", (a, b), N)
            if abs(dzeta_num(a, b, ctx) - value) > bound:
                bad.append(f"dzeta{(a, b)}")
        for _ in range(8):
            p, q = rng.choice(CHAR_IDS), rng.choice(CHAR_IDS)
            s, t = rng.randint(2, 5), rng.randint(1, 4)
            value, bound = brute_force_oracle("char_dzeta", (p, q, s, t), N)
            if abs(char_dzeta_num(p, q, s, t, ctx) - value) > bound:
                bad.append(f"char{(p, q, s, t)}")
        count = 0
        while count < 4:
            r, s, t = rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 4)
            if not (r + t >= 2 and s + t >= 2 and 3 <= r + s + t <= 8):
                continue
            count += 1
            value, bound = brute_force_oracle("witten", (r, s, t), N)
            if abs(witten_num(r, s, t, ctx) - value) > bound:
                bad.append(f"witten{(r, s, t)}")
    _report(7, not bad, "; ".join(bad) or "20 tuples within oracle bounds at N=1e5")


def test_criterion_8_precision_scaling():
    """The sides of C02..C05 at s = 8 pass at P=30 and P=50, and each comes
    >= 1e8 closer to its own P = 90 value between them (a side's distance to a
    deeper evaluation, unlike |lhs - rhs|, cannot be an exact zero by luck)."""
    cmap = {i.ident: i for i in load_corpus()}
    bad = []
    ratios = []
    for cid in ("C02", "C03", "C04", "C05"):
        bad += [f"{cid}@P{prec}" for prec in (30, 50)
                if verify_numeric(cmap[cid], {"s": 8}, EvalContext(prec)).status != "pass"]
        for i, side in enumerate(side for part in cmap[cid].parts for side in part):
            ref = eval_ast(side, {"s": 8}, EvalContext(90))
            with mp.workdps(110):
                d30, d50 = (abs(eval_ast(side, {"s": 8}, EvalContext(p)) - ref) for p in (30, 50))
                ratio = d30 / max(d50, mpf(10) ** -75)
                ratios.append(f"{cid}.{i}:{mp.nstr(ratio, 2)}")
                if ratio < mpf(10) ** 8:
                    bad.append(f"{cid} side {i} ratio {mp.nstr(ratio, 3)}")
    _report(8, not bad, "; ".join(bad) or "shrink ratios " + ", ".join(ratios))
