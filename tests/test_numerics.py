"""Multiprecision evaluator: single series, double sums, Witten sums,
harmonic sums, oracles and the error-bound contract."""
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from mzv.errors import DomainError, PrecisionError
from mzv.exact import bernoulli
from mzv import numerics
from mzv.numerics import (
    CHAR_IDS,
    CHI,
    EvalContext,
    L_num,
    brute_force_oracle,
    char_dzeta_num,
    char_product,
    dzeta_num,
    generator_num,
    harmonic_sum_num,
    periodic_tail_num,
    witten_num,
    zeta_num,
)


def tol(ctx, k=1):
    return mpf(10) ** (-ctx.prec) * k


# ---------------------------------------------------------------------------
# single series
# ---------------------------------------------------------------------------


def test_zeta_closed_forms(ctx40):
    with mp.workdps(60):
        assert abs(zeta_num(2, ctx40) - mp.pi**2 / 6) < tol(ctx40)
        assert abs(zeta_num(4, ctx40) - mp.pi**4 / 90) < tol(ctx40)


def test_zeta3_brute_force(ctx40):
    # truncated oracle with integral tail bound: sum_{n<=1e6} n^-3 + tail in [0, N^-2/2]
    n = np.arange(1, 10**6 + 1, dtype=np.float64)
    partial = float(np.sum(n**-3.0))
    bound = 0.5 * 1e-12 + 3e-10  # tail + float roundoff allowance
    with mp.workdps(60):
        assert abs(zeta_num(3, ctx40) - partial) < bound


def test_zeta_domain(ctx40):
    with pytest.raises(DomainError):
        zeta_num(1, ctx40)


def test_L_values(ctx40):
    with mp.workdps(60):
        assert abs(L_num("2a", 4, ctx40) - (1 - mpf(2) ** -4) * zeta_num(4, ctx40)) < tol(ctx40, 2)
        assert abs(L_num("m4", 1, ctx40) - mp.pi / 4) < tol(ctx40)
        assert abs(L_num("2b", 1, ctx40) - mp.log(2)) < tol(ctx40)
        assert abs(L_num("2b", 2, ctx40) - mp.pi**2 / 12) < tol(ctx40)
    with pytest.raises(DomainError):
        L_num("2a", 1, ctx40)


@pytest.mark.parametrize("prec", [40, 100, 300])
def test_L_and_li4h_against_mpmath_reference(prec):
    # L_p(s) = 4^-s sum_r chi_p(r) zeta(s, r/4), with log 2 and pi/4 at s = 1, and
    # Li_4(1/2) from mpmath's polylog; each reference carries 30 more digits
    ctx = EvalContext(prec)
    cases = [(p, s) for p in CHAR_IDS for s in (2, 3, 7)] + [("2b", 1), ("m4", 1)]
    for p, s in cases:
        value = L_num(p, s, ctx)
        with mp.workdps(prec + 30):
            if s == 1:
                ref = {"2b": mp.log(2), "m4": mp.pi / 4}[p]
            else:
                ref = sum(c * mp.zeta(s, mpf(r) / 4) for r, c in zip((1, 2, 3, 4), CHI[p]) if c) / mpf(4) ** s
            assert abs(value - ref) <= tol(ctx), (p, s, prec)
    value = generator_num("li4h", ctx)
    with mp.workdps(prec + 30):
        assert abs(value - mp.polylog(4, mpf(1) / 2)) <= tol(ctx)


@pytest.mark.parametrize("D", [20, 50, 310])
def test_integer_L_within_its_bound_of_hurwitz_reference(D):
    # the fixed-point L_p(s) against 4^-s sum_r chi_p(r) zeta(s, r/4) (log 2 and
    # pi/4 at s = 1) with no allowance; at D = 20 the kernel start of u = 150
    # passes N, so that tail row sums direct terms first
    cases = [(p, s) for p in CHAR_IDS for s in (2, 3, 7)] + [("2b", 1), ("m4", 1)]
    if D == 20:
        N = numerics._outer_cutoff(D)
        assert numerics._kernel_start(150, D) > N
        cases += [(p, 150) for p in CHAR_IDS]
    for p, s in cases:
        value, bound = numerics._L_internal(p, s, D)
        assert 0 < bound < mpf(10) ** -D
        with mp.workdps(D + 40):
            if s == 1:
                ref = {"2b": mp.log(2), "m4": mp.pi / 4}[p]
            else:
                ref = sum(c * mp.zeta(s, mpf(r) / 4) for r, c in zip((1, 2, 3, 4), CHI[p]) if c) / mpf(4) ** s
            assert abs(value - ref) <= bound, (p, s, D)


def test_cold_verify_values_within_their_bounds_of_a_deeper_evaluation():
    # every L and [p,q](s,t) value a cold verify computes at D = 50, against the
    # same sum at D = 90, with no allowance: the bounds count the floors of the
    # fixed-point combine and the roundings of the mpf steps
    from mzv import verify

    ctx = EvalContext(40)
    D = ctx.work_digits
    numerics.clear_caches()
    for ident in verify.load_corpus():
        for binding in verify.enumerate_bindings(ident, 10):
            verify.verify_numeric(ident, binding, ctx)
    entries = [(key, vb) for key, vb in numerics._value_cache.items() if key[0] in ("L", "cs") and key[-1] == D]
    assert sum(key[0] == "L" for key, _ in entries) >= 40
    assert sum(key[0] == "cs" for key, _ in entries) >= 1800
    for key, (value, bound) in entries:
        if key[0] == "L":
            ref, _ = numerics._L_internal(key[1], key[2], 90)
        else:
            ref, _ = numerics._char_em(*key[1:5], 90)
        with mp.workdps(130):
            assert abs(value - ref) <= bound, key


def test_periodic_tail_partitions_zeta(ctx40):
    with mp.workdps(60):
        for s, N in ((2, 10), (5, 37)):
            head = sum(mpf(n) ** -s for n in range(1, N + 1))
            assert abs(head + periodic_tail_num("1", s, N, ctx40) - zeta_num(s, ctx40)) < tol(ctx40, 2)


def test_periodic_tail_alternating_brute(ctx40):
    # sum_{10 < n <= 1e7} (-1)^(n-1)/n^2 compared within the alternating tail bound
    n = np.arange(11, 10**7 + 1, dtype=np.float64)
    signs = np.where(n % 2 == 1, 1.0, -1.0)
    brute = float(np.sum(signs * n**-2.0))
    alt_bound = (1e7) ** -2.0 + 1e-11  # first omitted term + roundoff allowance
    with mp.workdps(60):
        assert abs(periodic_tail_num("2b", 2, 10, ctx40) - brute) < alt_bound


def test_periodic_tail_full_series_is_beta(ctx40):
    with mp.workdps(60):
        assert abs(periodic_tail_num("m4", 3, 0, ctx40) - L_num("m4", 3, ctx40)) < tol(ctx40, 2)


# ---------------------------------------------------------------------------
# double sums
# ---------------------------------------------------------------------------


def test_dzeta_examples(ctx40):
    with mp.workdps(60):
        assert abs(dzeta_num(2, 1, ctx40) - zeta_num(3, ctx40)) < tol(ctx40, 2)
        assert abs(dzeta_num(2, 2, ctx40) - mp.pi**4 / 120) < tol(ctx40)
        want = 3 * zeta_num(2, ctx40) * zeta_num(3, ctx40) - mpf(11) / 2 * zeta_num(5, ctx40)
        assert abs(dzeta_num(3, 2, ctx40) - want) < tol(ctx40, 4)


def test_dzeta_brute_force_low_precision(ctx40):
    value, bound = brute_force_oracle("dzeta", (3, 2), 10**5)
    with mp.workdps(60):
        assert abs(dzeta_num(3, 2, ctx40) - value) < bound


def test_dzeta_domain(ctx40):
    with pytest.raises(DomainError):
        dzeta_num(1, 1, ctx40)
    with pytest.raises(DomainError):
        dzeta_num(2, 0, ctx40)


def test_char_dzeta_small_values(ctx40):
    with mp.workdps(60):
        z3 = zeta_num(3, ctx40)
        assert abs(char_dzeta_num("2b", "1", 2, 1, ctx40) + z3 / 8) < tol(ctx40, 2)
        want = mp.pi**2 * mp.log(2) / 4 - z3
        assert abs(char_dzeta_num("1", "2b", 2, 1, ctx40) - want) < tol(ctx40, 2)
        assert abs(
            char_dzeta_num("2b", "2b", 2, 2, ctx40) + mpf(3) / 16 * zeta_num(4, ctx40)
        ) < tol(ctx40, 2)


def test_char_dzeta_specializes_to_dzeta(ctx40):
    with mp.workdps(60):
        for a, b in ((2, 2), (3, 2), (4, 3)):
            assert abs(char_dzeta_num("1", "1", a, b, ctx40) - dzeta_num(a, b, ctx40)) < tol(ctx40, 2)


def test_char_dzeta_domain(ctx40):
    with pytest.raises(DomainError):
        char_dzeta_num("1", "1", 1, 2, ctx40)  # outer s=1 needs a mean-zero character
    with pytest.raises(DomainError):
        char_dzeta_num("2a", "1", 1, 2, ctx40)


def test_reflection_formula_sweep(ctx40):
    # [p,q](s,t) + [q,p](t,s) = L_p(s) L_q(t) - L_pq(s+t), all 16 pairs, 2<=s,t<=5
    with mp.workdps(60):
        for p in CHAR_IDS:
            for q in CHAR_IDS:
                pq = char_product(p, q)
                for s in range(2, 6):
                    for t in range(2, 6):
                        lhs = char_dzeta_num(p, q, s, t, ctx40) + char_dzeta_num(q, p, t, s, ctx40)
                        rhs = L_num(p, s, ctx40) * L_num(q, t, ctx40) - L_num(pq, s + t, ctx40)
                        assert abs(lhs - rhs) < 4 * tol(ctx40), (p, q, s, t)


@pytest.mark.parametrize("prec", [40, 100])
def test_char_dzeta_mean_zero_s1_t1_corners(prec):
    # s = t = 1 with a mean-zero inner character: the log coefficients of the
    # inner classes cancel once folded
    ctx = EvalContext(prec)
    with mp.workdps(prec + 20):
        ln2, pi = mp.log(2), +mp.pi
        assert abs(char_dzeta_num("2b", "2b", 1, 1, ctx) - (ln2**2 / 2 - pi**2 / 12)) < tol(ctx)
        assert abs(char_dzeta_num("m4", "m4", 1, 1, ctx) + pi**2 / 32) < tol(ctx)
        pair = char_dzeta_num("m4", "2b", 1, 1, ctx) + char_dzeta_num("2b", "m4", 1, 1, ctx)
        assert abs(pair - (pi / 4 * ln2 - mp.catalan)) < tol(ctx)


@pytest.mark.parametrize("p,q", [("2b", "1"), ("2b", "2a"), ("m4", "1")])
def test_char_dzeta_divergent_inner_s1_corner_names_the_sum(ctx40, p, q):
    msg = re.escape(f"[{p},{q}](1,1)") + r".*divergent-inner s = 1 case is not supported yet"
    with pytest.raises(DomainError, match=msg):
        char_dzeta_num(p, q, 1, 1, ctx40)


def _char_em_per_character(p, q, s, t, D):
    """[p,q](s,t) with its per-class terms computed for this p alone: the
    per-character combine loop that _class_pairs replaced, kept as a reference."""
    from itertools import accumulate, cycle
    from operator import mul

    N, W = numerics._outer_cutoff(D), numerics._fixed_bits(D)
    Ns = N**s
    prefix = list(accumulate(map(mul, cycle(CHI[q][3:] + CHI[q][:3]), numerics._pow_row(t, D))))
    outer = numerics._pow_row(s, D)
    direct = sum(
        c * sum(map(mul, outer[r::4], prefix[r - 1 : N : 4])) for r, c in zip((1, 2, 3, 4), CHI[p]) if c
    )
    acc = direct * Ns
    units = numerics._head_units(D) * Ns
    C, Cu = numerics._inner_const(q, t, D)
    for r in (1, 2, 3, 4):
        cp = CHI[p][r - 1]
        if not cp:
            continue
        emin, F, k, log4, rems, rnd = numerics._folded_inner(q, t, r, D)
        lo = s + emin
        hi = lo + len(F)
        G, B = numerics._tail_row(r, s if s > 1 else lo, hi, D)
        Gs, Bs = G[lo:hi], B[lo:hi]
        acc -= cp * sum(map(mul, F, Gs))
        units += sum(map(mul, map(abs, F), Bs)) + k * (sum(Bs) + sum(Gs)) + rnd * (Gs[0] + Bs[0])
        units += sum(-(-rem // (s + erem - 1)) for rem, erem in rems)
        if s > 1:
            acc += cp * C * G[s]
            units += abs(C) * B[s] + Cu * (G[s] + B[s])
        if log4:
            X, Xu = numerics.class_tail(r, s, N, D, logw=True)
            acc -= cp * log4 * X << (W - 2)
            units += abs(log4) * Xu << (W - 2)
    if s == 1:
        R, Ru = numerics._class_tails_fixed(p, 1, N, D)
        acc += C * R
        units += abs(C) * Ru + Cu * (abs(R) + Ru)
    return numerics._from_fixed(acc // Ns, -(-units // Ns) + 1, 2 * W, D)


def test_shared_class_pairs_bit_identical_to_per_character_loop():
    # every supported [p,q](s,t), s <= 4, t <= 3, at three depths, requested in a
    # shuffled order from empty caches so that pairs one p fills are read by another
    import random

    requests = [
        (p, q, s, t, D)
        for p in CHAR_IDS
        for q in CHAR_IDS
        for s in range(1, 5)
        for t in range(1, 4)
        for D in (20, 50, 110)
        if numerics._char_convergent(p, q, s, t) and not (s == t == 1 and not numerics.is_mean_zero(q))
    ]
    random.Random(20261018).shuffle(requests)
    numerics.clear_caches()
    shared = [numerics._char_em(*req) for req in requests]
    # one pair tuple per distinct (q, s, t, D), whichever p asked first
    assert {key for key in numerics._fixed_cache if key[0] == "pairs"} == {
        ("pairs",) + req[1:] for req in requests
    }
    for req, (v, b) in zip(requests, shared):
        ref_v, ref_b = _char_em_per_character(*req)
        assert (v._mpf_, b._mpf_) == (ref_v._mpf_, ref_b._mpf_), req
    # the unsupported corner is refused before any pair is built
    with pytest.raises(DomainError):
        numerics._char_em("2b", "1", 1, 1, 50)
    assert ("pairs", "1", 1, 1, 50) not in numerics._fixed_cache


def test_reflection_s_t_le_2_within_reported_bounds(ctx40):
    # [p,q](s,t) + [q,p](t,s) = L_p(s) L_q(t) - L_pq(s+t), checked against L from
    # mpmath's Hurwitz zeta (log 2 and pi/4 at s = 1) within the two reported bounds
    D = ctx40.work_digits

    def L(p, s):
        if s == 1:
            return {"2b": mp.log(2), "m4": mp.pi / 4}[p]
        return sum(c * mp.zeta(s, mpf(r) / 4) for r, c in zip((1, 2, 3, 4), CHI[p]) if c) / mpf(4) ** s

    checked = 0
    for p in CHAR_IDS:
        for q in CHAR_IDS:
            for s in (1, 2):
                for t in (1, 2):
                    if not (numerics._char_convergent(p, q, s, t) and numerics._char_convergent(q, p, t, s)):
                        continue
                    v1, b1 = numerics._char_em(p, q, s, t, D)
                    v2, b2 = numerics._char_em(q, p, t, s, D)
                    with mp.workdps(D + 30):
                        ref = L(p, s) * L(q, t) - L(char_product(p, q), s + t)
                        assert abs(v1 + v2 - ref) <= b1 + b2, (p, q, s, t)
                    checked += 1
    assert checked == 36


def test_char_oracle_agreement(ctx40):
    value, bound = brute_force_oracle("char_dzeta", ("2b", "2b", 2, 2), 10**4)
    with mp.workdps(60):
        want = -mpf(3) / 16 * zeta_num(4, ctx40)
        assert abs(want - value) < bound


# ---------------------------------------------------------------------------
# Witten sums
# ---------------------------------------------------------------------------


def test_witten_boundaries(ctx40):
    with mp.workdps(60):
        assert abs(witten_num(3, 2, 0, ctx40) - zeta_num(3, ctx40) * zeta_num(2, ctx40)) < tol(ctx40, 2)
        assert abs(witten_num(0, 2, 3, ctx40) - dzeta_num(3, 2, ctx40)) < tol(ctx40, 2)
        assert abs(witten_num(1, 1, 1, ctx40) - 2 * zeta_num(3, ctx40)) < tol(ctx40, 2)


def test_witten_recursion_and_symmetry(ctx40):
    with mp.workdps(60):
        triples = [
            (r, s, t)
            for r in range(0, 4)
            for s in range(0, 4)
            for t in range(1, 5)
            if r + s + t <= 8 and r + t >= 2 and s + t >= 2 and r + s + t >= 3
        ]
        for r, s, t in triples:
            assert abs(witten_num(r, s, t, ctx40) - witten_num(s, r, t, ctx40)) < 2 * tol(ctx40)
            if r >= 1 and s >= 1:
                rec = witten_num(r - 1, s, t + 1, ctx40) + witten_num(r, s - 1, t + 1, ctx40)
                assert abs(witten_num(r, s, t, ctx40) - rec) < 4 * tol(ctx40), (r, s, t)


def test_witten_oracle(ctx40):
    value, bound = brute_force_oracle("witten", (1, 1, 2), 10**4)
    with mp.workdps(60):
        assert abs(witten_num(1, 1, 2, ctx40) - value) < bound


def test_witten_oracle_matches_strided_loop():
    # the oracle dots contiguous slices of a reversed copy; the strided per-k
    # loop it replaced must agree within the oracle's round-off term
    N = 2000
    n = np.arange(0, N + 1, dtype=np.float64)
    for r, s, t in ((1, 2, 1), (0, 2, 2), (3, 3, 2)):
        with np.errstate(divide="ignore"):
            u, v = n ** (-float(r)), n ** (-float(s))
        u[0] = v[0] = 0.0
        kw = n.copy()
        kw[0] = 1.0
        kpow = kw ** (-float(t))
        old = 0.0
        for k in range(2, N + 1):
            old += kpow[k] * float(np.dot(u[1:k], v[k - 1 : 0 : -1]))
        value, _ = numerics._oracle_witten(r, s, t, N)
        assert abs(value - old) <= 4.0 * N * numerics._EPS64 * (abs(old) + 1.0), (r, s, t)


def test_witten_domain(ctx40):
    with pytest.raises(DomainError):
        witten_num(1, 2, 0, ctx40)
    with pytest.raises(DomainError):
        witten_num(0, 0, 2, ctx40)


def test_witten_t0_terms_are_zeta_products():
    # a convergent W(r, s, 0) has r, s >= 2: it is the product zeta(r) zeta(s)
    convergent = [(r, s) for r in range(13) for s in range(13) if numerics.witten_convergent(r, s, 0)]
    assert len(convergent) == 121
    for r, s in convergent:
        assert numerics.witten_terms(r, s, 0) == {("zz", r, s): 1}, (r, s)


# ---------------------------------------------------------------------------
# harmonic sums
# ---------------------------------------------------------------------------


def test_harmonic_sum_known_closed_forms(ctx40):
    with mp.workdps(60):
        z3, z5 = zeta_num(3, ctx40), zeta_num(5, ctx40)
        ln2, pi = mp.log(2), +mp.pi
        want = (372 * z5 - 21 * pi**2 * z3 - 2 * pi**4 * ln2) / 96
        assert abs(harmonic_sum_num("odd_denom", 4, ctx40) - want) < tol(ctx40, 4)
        want = (pi**6 - 294 * z3**2 - 744 * ln2 * z5) / 384
        assert abs(harmonic_sum_num("odd_denom", 5, ctx40) - want) < tol(ctx40, 4)
        want = mpf(37) / 4 * z5 - mpf(2) / 3 * pi**2 * z3
        assert abs(harmonic_sum_num("half_index", 2, ctx40) - want) < tol(ctx40, 4)


def test_harmonic_sum_brute_force(ctx40):
    for kind, s in (("odd_denom", 4), ("half_index", 2)):
        value, bound = brute_force_oracle("harmonic", (kind, s), 10**5)
        with mp.workdps(60):
            assert abs(harmonic_sum_num(kind, s, ctx40) - value) < bound, (kind, s)


def _harmonic_by_terms(kind, s, D):
    """The harmonic sums term by term, every zeta and double zeta evaluated on
    its own: the formulas before they became reductions descriptors."""
    with mp.workdps(D + 10):
        if kind == "half_index":
            v, b = numerics._zeta_internal(2 * s + 1, D)
            total, bound = mpf(5) / 2 * v, mpf(5) / 2 * b
            v, b = numerics._dzeta_internal(2 * s, 1, D)
            total += 2 * v
            bound += 2 * b
            for j in range(2, 2 * s + 1):
                v, b = numerics._dzeta_internal(j, 2 * s + 1 - j, D)
                total += v if j % 2 == 0 else -v
                bound += b
            return total / 2, bound / 2
        w = s + 1
        total = bound = mp.zero
        for j in range(2, w):
            v, b = numerics._dzeta_internal(j, w - j, D)
            total += mpf(2) ** (1 - j) * v
            bound += mpf(2) ** (1 - j) * b
        v1, b1 = numerics._dzeta_internal(w - 1, 1, D)
        vz, bz = numerics._zeta_internal(w - 1, D)
        coef = mpf(2) ** (1 - w) - 1
        total -= coef * (v1 - 2 * mp.log(2) * vz)
        bound += abs(coef) * (b1 + 2 * mp.log(2) * bz)
        v, b = numerics._zeta_internal(w, D)
        coef = mpf(2) ** (2 - w) - 1
        return total - coef * v, bound + abs(coef) * b


@pytest.mark.parametrize("kind, svals", [("half_index", range(1, 11)), ("odd_denom", range(2, 20))])
def test_harmonic_values_match_the_term_formulas(ctx40, kind, svals):
    D = ctx40.work_digits
    with mp.workdps(D + 10):
        for s in svals:
            got, bound = numerics._harmonic_internal(kind, s, D)
            want, _ = _harmonic_by_terms(kind, s, D)
            assert abs(got - want) <= 2 * tol(ctx40), (kind, s)
            assert bound <= tol(ctx40), (kind, s)


def _combine_ref(terms, D):
    """The former mpf combine of Witten and harmonic values, kept as the
    reference: sum c v over the terms (c, (v, b)), each term adding |c| b and
    |c v| 10^-(D+6) for the roundings of c, the product and the sum."""
    with mp.workdps(D + 10):
        rel = mpf(10) ** -(D + 6)
        total = bound = mp.zero
        for c, (v, b) in terms:
            cv = mpf(c.numerator) / c.denominator * v
            total += cv
            bound += abs(c) * b + abs(cv) * rel
        return total, bound


def _combined_by_mpf(kind, args, D):
    """(value, bound) of W(r,s,t), hsum_odd(s) or hsum_half(s) from the mpf
    kernel values and _combine_ref, as the numerics computed them before
    summing in integers."""
    zeta = lambda a: numerics._zeta_internal(a, D)  # noqa: E731
    terms = []
    if kind == "W":
        for (term, a, b), coef in numerics.witten_terms(*args).items():
            if term == "zz":
                (va, ba), (vb, bb) = zeta(a), zeta(b)
                with mp.workdps(D + 10):
                    terms.append((coef, (va * vb, abs(va) * bb + abs(vb) * ba + ba * bb)))
            elif b == 0:
                terms += [(coef, zeta(a - 1)), (-coef, zeta(a))]
            else:
                terms.append((coef, numerics._dzeta_internal(a, b, D)))
    elif kind == "odd_denom":
        (s,) = args
        terms = [(2, numerics._char_em("2a", "1", s, 1, D)), (-2, numerics._char_em("2a", "2a", s, 1, D))]
    else:
        (s,) = args
        terms = [(4**s, numerics._dzeta_internal(2 * s, 1, D)), (-(4**s), numerics._char_em("2a", "1", 2 * s, 1, D)),
                 (Fraction(1, 2), zeta(2 * s + 1))]
    return _combine_ref(terms, D)


def test_exact_witten_and_harmonic_sums_within_their_bounds():
    # the integer sums at P = 40 against the same sums at P = 90, with no
    # allowance, and their bounds against the former mpf combine's
    D, deep = EvalContext(40).work_digits, EvalContext(90).work_digits
    cases = [("W", (r, s, t)) for r in range(7) for s in range(7) for t in range(7)
             if numerics.witten_convergent(r, s, t)]
    cases += [("odd_denom", (s,)) for s in range(2, 9)] + [("half_index", (s,)) for s in range(1, 7)]
    for kind, args in cases:
        if kind == "W":
            (v, b), (ref, _) = numerics._witten_internal(*args, D), numerics._witten_internal(*args, deep)
        else:
            (v, b), (ref, _) = numerics._harmonic_internal(kind, *args, D), numerics._harmonic_internal(kind, *args, deep)
        _, mpf_bound = _combined_by_mpf(kind, args, D)
        with mp.workdps(deep + 20):
            assert abs(v - ref) <= b, (kind, args)
        assert b <= mpf_bound, (kind, args)
    assert len(cases) == 318


# ---------------------------------------------------------------------------
# generators, determinism, telescoping lemmas
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("prec", [40, 100, 300])
def test_li4h_within_its_bound_of_polylog(prec):
    D = EvalContext(prec).work_digits
    v, b = numerics._li4_half_internal(D)
    with mp.workdps(D + 30):
        assert abs(v - mp.polylog(4, mpf(1) / 2)) <= b, prec


def test_generators(ctx40):
    with mp.workdps(60):
        # Li4(1/2) against a directly truncated series with geometric tail bound
        acc = mp.zero
        for n in range(1, 200):
            acc += mpf(2) ** -n / mpf(n) ** 4
        geom_bound = mpf(2) ** -199
        assert abs(generator_num("li4h", ctx40) - acc) < geom_bound + tol(ctx40)
        assert abs(generator_num("pi", ctx40) - mp.sqrt(6 * zeta_num(2, ctx40))) < tol(ctx40, 2)
        assert abs(generator_num("log2", ctx40) - L_num("2b", 1, ctx40)) < tol(ctx40, 2)


def test_determinism(ctx40):
    import mzv.numerics as numerics

    a = char_dzeta_num("2b", "2a", 3, 2, ctx40)
    b = char_dzeta_num("2b", "2a", 3, 2, ctx40)
    assert a == b
    numerics.clear_caches()
    c = char_dzeta_num("2b", "2a", 3, 2, ctx40)
    assert a == c  # bit-identical after recomputation


def test_fixed_point_tail_rows_bracket_the_kernel():
    # every row entry is class_tail's pair, the one-exponent case of the row
    # kernel, and sampled entries bracket a Hurwitz-zeta reference with no
    # allowance.  Each row runs past the exponents _char_em asks for (about 72
    # at D = 20, 111 at D = 50 and 368 at D = 310).  At D = 20 the start passes
    # N from u = 132 on, so the start m0 changes every few exponents there and
    # u = 150 and 250 also take direct terms.
    rows = {  # D -> (row end, exponents checked against the reference)
        20: (251, (2, 3, 5, 17, 40, 72, 131, 132, 150, 250)),
        50: (112, (2, 3, 7, 30, 64, 111)),
        110: (160, (2, 9, 50, 159)),
        310: (369, (2, 17, 90, 220, 368)),
    }
    for D, (hi, us) in rows.items():
        N, W = numerics._outer_cutoff(D), numerics._fixed_bits(D)
        for r in (1, 2, 3, 4):
            G, B = numerics._tail_row(r, 2, hi, D)
            for u in range(2, hi):
                assert numerics.class_tail(r, u, N, D) == (G[u], B[u]), (D, r, u)
            n0 = N + 1 + (r - 1 - N) % 4
            for u in us:
                m0 = max(N, numerics._kernel_start(u, D)) + 1
                with mp.workdps(D + 40 + math.ceil(u * math.log10(m0))):
                    ref = mpf(4) ** -u * mp.zeta(u, mpf(n0) / 4) * mpf(N) ** u * mpf(2) ** W
                    assert abs(G[u] - ref) <= B[u], (D, r, u)


def test_tail_row_entries_do_not_depend_on_fill_order():
    # a row first filled at single exponents, as _L_fixed asks for them, and
    # then over its range, against the same row filled in one call
    for D, singles, hi in ((50, (3, 7), 112), (310, (2, 5, 200), 369)):
        for r in (1, 2, 3, 4):
            numerics._fixed_cache.pop(("tail", r, D), None)
            for s in singles:
                numerics._tail_row(r, s, s + 1, D)
            G, B = numerics._tail_row(r, 2, hi, D)
            in_parts = (G[2:hi], B[2:hi])
            numerics._fixed_cache.pop(("tail", r, D), None)
            G, B = numerics._tail_row(r, 2, hi, D)
            assert (G[2:hi], B[2:hi]) == in_parts, (D, r)


def test_tail_row_restart_in_the_middle_of_a_row(monkeypatch):
    # with N = 10 and a start of 600 for u <= 90 (1200 above), the exponents
    # from u = 58 (59 in class 3) to 90 turn from the start they share and
    # restart farther out: below them are exponents with a start of their own,
    # above them ones that read the shared list after those restarts.  Every
    # entry brackets the reference with no allowance
    D, N = 310, 10
    W = numerics._fixed_bits(D)
    monkeypatch.setattr(numerics, "_outer_cutoff", lambda D: N)
    monkeypatch.setattr(numerics, "_kernel_start", lambda u, D: 600 if u <= 90 else 1200)
    real_bracket = numerics._em_bracket
    starts = []
    monkeypatch.setattr(numerics, "_em_bracket", lambda *a: starts.append(a[:2]) or real_bracket(*a))
    numerics.clear_caches()
    try:
        for r, first in ((1, 58), (3, 59)):
            starts.clear()
            G, B = numerics._tail_row(r, 2, 121, D)
            tries = Counter(u for u, _ in starts)
            assert {u for u, k in tries.items() if k > 1} == set(range(first, 91)), r
            n0 = N + 1 + (r - 1 - N) % 4
            for u in {*range(2, 121, 3), first - 1, first, 90, 91}:
                with mp.workdps(D + 40 + math.ceil(u * math.log10(n0))):
                    ref = mpf(4) ** -u * mp.zeta(u, mpf(n0) / 4) * mpf(N) ** u * mpf(2) ** W
                    assert abs(G[u] - ref) <= B[u], (r, u)
    finally:
        numerics.clear_caches()


def _exact(x):
    """An mpf as an exact Fraction."""
    from fractions import Fraction

    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _class_tail_reference(u, logw, n0):
    """The class tail from n0 on at the current precision, a = n0/4:
    sum n^-u = 4^-u zeta(u, a), sum n^-u log n = 4^-u (log 4 zeta(u, a) -
    zeta'(u, a)), and the regularized u = 1 tail is -digamma(a)/4 - log(4)/4."""
    a = mpf(n0) / 4
    if u == 1:
        return -mp.digamma(a) / 4 - mp.log(4) / 4
    if logw:
        return mpf(4) ** -u * (mp.log(4) * mp.zeta(u, a) - mp.zeta(u, a, 1))
    return mpf(4) ** -u * mp.zeta(u, a)


def test_em_bracket_within_its_floor_units():
    # the integer bracket against the exact rational partial sum of the same
    # terms, the three kinds: plain, regularized u = 1 and log-weighted, where
    # log m0 is taken from a D + 60 digit reference.  The chain's floors drift
    # by 15-30 units here, so each is counted; L is passed a unit below its
    # floor, within the 2 units the bracket allows, and at m0 = 10^6 that unit
    # moves the sum by about m0 / 4 units, far above the floors.
    from fractions import Fraction

    V, D = 400, 84
    for u, m0, logw in (
        (2, 321, False), (7, 323, False), (40, 1637, False), (368, 1640, False),
        (1, 321, False), (1, 10**6, False), (2, 321, True), (40, 1637, True), (2, 10**6, True),
    ):
        with mp.workprec(V + 200):
            log_m0 = _exact(mp.log(m0))
        L = numerics._log_fixed(m0, V)
        assert abs(L - log_m0 * 2**V) < 1
        x, units, _, j = numerics._em_bracket(u, m0, m0**u, V, D, L - 1, logw)
        plain = Fraction(m0, 4 * (u - 1)) if u > 1 else -m0 * log_m0 / 4
        plain += Fraction(1, 2)
        hsum = rise = 0
        for i in range(1, j + 1):
            rise = u if i == 1 else rise * (u + 2 * i - 3) * (u + 2 * i - 2)
            beta = bernoulli(2 * i) * 4 ** (2 * i - 1) / math.factorial(2 * i)
            t = beta * rise / Fraction(m0) ** (2 * i - 1)
            plain += t
            hsum += t * sum(Fraction(1, u + k) for k in range(2 * i - 1))
        exact = log_m0 * plain + Fraction(m0, 4 * (u - 1) ** 2) - hsum if logw else plain
        assert abs(x - exact * 2**V) <= units, (u, m0, logw)


def test_em_ratios_match_the_bernoulli_quotients():
    # the step ratios from the tangent numbers against their definition
    # 16 B_2j / (B_(2j-2) (2j)(2j-1)), each in lowest terms
    numerics.clear_caches()
    numerics._em_step(2, 199, 10**9)
    for j in range(2, 200):
        q = 16 * bernoulli(2 * j) / (bernoulli(2 * j - 2) * (2 * j) * (2 * j - 1))
        assert numerics._em_ratios[j] == (q.numerator, q.denominator), j


def test_cold_deep_eval_builds_no_bernoulli_table(monkeypatch):
    import mzv.exact as exact

    numerics.clear_caches()
    table = [Fraction(1)]
    monkeypatch.setattr(exact, "_bern_cache", table)
    dzeta_num(3, 2, EvalContext(300))
    assert exact._bern_cache is table and table == [Fraction(1)]
    assert len(numerics._em_ratios) > 100


def test_fixed_point_tail_restarts(monkeypatch):
    # from a third of the usual start the plain and log-weighted (r, u) = (4, 30)
    # tails and the regularized u = 1 tail of class 2 turn and restart farther
    # out, and still bracket the reference; every start lies above N = 10, so
    # the head n = 12, 16, ... (n = 14, 18, ...) below m0 is summed directly
    D, N = 310, 10
    W = numerics._fixed_bits(D)
    real_start = numerics._kernel_start
    real_bracket = numerics._em_bracket
    for r, u, logw, restarts in ((4, 30, False, 3), (4, 30, True, 3), (2, 1, False, 2)):
        start = real_start(u, D) // 3
        monkeypatch.setattr(numerics, "_kernel_start", lambda u, D: start)
        starts = []
        monkeypatch.setattr(numerics, "_em_bracket", lambda *a: starts.append(a[1]) or real_bracket(*a))
        G, B = numerics._tail_fixed(r, u, N, D, logw)
        assert len(set(starts)) == len(starts) == restarts + 1, (u, logw)
        n0 = N + 1 + (r - 1 - N) % 4
        with mp.workdps(D + 80):
            ref = _class_tail_reference(u, logw, n0)
            assert abs(G - ref * mpf(N) ** u * mpf(2) ** W) <= B, (u, logw)
    # a start that never lets the series fall below target runs out of restarts
    monkeypatch.setattr(numerics, "_kernel_start", lambda u, D: 1)
    for r, u, logw, N in ((3, 40, False, 1), (3, 40, True, 1), (2, 1, False, 0)):
        msg = rf"did not converge for class {r}, exponent {u}, log weight {logw}, N={N}, D=310"
        with pytest.raises(PrecisionError, match=msg):
            numerics._tail_fixed(r, u, N, D, logw)


def _inner_em_coefficients(t, J):
    """{e: c_e}, exact, of the EM expansion of sum_{k>=0} (y+4k)^-t through its
    j = J correction: 1/(4(t-1)) y^(1-t) (t > 1), y^-t / 2 and
    beta_j (t)_(2j-1) y^-(t+2j-1), beta_j = B_2j 4^(2j-1) / (2j)!."""
    from fractions import Fraction

    c = {t - 1: Fraction(1, 4 * (t - 1))} if t > 1 else {}
    c[t] = Fraction(1, 2)
    rise = 1
    for j in range(1, J + 1):
        rise = t if j == 1 else rise * (t + 2 * j - 3) * (t + 2 * j - 2)
        c[t + 2 * j - 1] = bernoulli(2 * j) * 4 ** (2 * j - 1) / math.factorial(2 * j) * rise
    return c


def test_inner_ct_within_its_units_of_exact_coefficients():
    # each integer a_e against c_e N^-e 2^V with the exact c_e, within its
    # stated units; the remainder names the first term left out.  At D = 310,
    # t = 12 stops at a unit of 2^-W before the kernel's target
    from fractions import Fraction

    for D in (50, 310):
        N = numerics._outer_cutoff(D)
        V = numerics._fixed_bits(D) + numerics._INNER_GUARD
        for t in (1, 2, 5, 12):
            terms, (crem, erem) = numerics._inner_ct(t, N, D)
            assert len(terms) > 10
            J = len(terms) - (2 if t > 1 else 1)
            c = _inner_em_coefficients(t, J + 1)
            assert [e for e, _, _ in terms] == sorted(c)[:-1]
            for e, a, err in terms:
                assert abs(c[e] * Fraction(2**V, N**e) - a) <= err, (D, t, e)
            assert erem == t + 2 * J + 1
            assert abs(c[erem]) * Fraction(2**V, N**erem) * numerics._EM_SAFETY <= crem


@pytest.mark.parametrize("D", [20, 50, 110])
def test_inner_array_within_its_units_of_exact_expansion(D):
    # the same EM truncation, every term (and -log(1 + delta/n)/4 for t = 1)
    # re-expanded at n + delta in exact rationals through 120 exponents past the
    # array: sum_e |c_e N^-e 2^W - A_e| <= rnd + len(A), with no allowance; at
    # D = 20 the binomial ratios start above 1 for the late terms
    from fractions import Fraction

    N, W = numerics._outer_cutoff(D), numerics._fixed_bits(D)
    for t in (1, 2, 5):
        terms, _ = numerics._inner_ct(t, N, D)
        base = _inner_em_coefficients(t, len(terms) - (2 if t > 1 else 1))
        for delta in range(4):
            emin, A, logc, _, rnd = numerics._inner_array(t, delta, D)
            assert logc == (Fraction(-1, 4) if t == 1 else 0)
            emax = emin + len(A) + 120
            c = dict.fromkeys(range(1, emax), Fraction(0))
            if t == 1 and delta:
                for i in range(1, emax):
                    c[i] += Fraction((-1) ** i * delta**i, 4 * i)
            for e, v in base.items():
                for i in range(emax - e if delta else 1):
                    c[e + i] += v * (-delta) ** i * math.comb(e + i - 1, i)
            off = sum(
                abs(v * Fraction(2**W, N**e) - (A[e - emin] if 0 <= e - emin < len(A) else 0))
                for e, v in c.items()
            )
            assert off <= rnd + len(A), (D, t, delta)


def test_shift_chain_counts_its_units():
    # each chain from an exact start X, b = floor(X) within 1 unit (0 for an
    # integer X), against the exact series X prod (e+m) delta / ((m+1) N) taken
    # 300 terms past its stop: ratios that start at 9 (e = 60, N = 20), an exact
    # start that stops at its first term, so its units are only the rest, a
    # negative start, and the log chain
    from fractions import Fraction

    cases = [
        (60, 0, Fraction(7 << 80, 3), 3, 20),
        (1, 0, Fraction(3), 1, 100),
        (7, 0, Fraction(-(5 << 90), 7), 2, 40),
        (0, 1, Fraction(3 << 100, 4 * 50), 3, 50),
    ]
    for e, i, X, delta, N in cases:
        comp: dict = {}
        b = math.floor(X)
        units = numerics._shift_chain(comp, e, i, b, int(b != X), delta, N, 100)
        stop = max(comp) - e
        off = 0
        for k in range(i, stop + 300):
            off += abs((-1) ** k * X - comp.get(e + k, 0))
            X = X * (e + k) * delta / ((k + 1) * N)
        assert off <= units, (e, delta, N)


def test_inner_array_length_at_deep_precision():
    # chains stop at an absolute unit: at D = 310 the t = 2, delta = 3 array
    # (about 365 entries while its chains stopped at 10^-(D+6) of each term)
    assert len(numerics._inner_array(2, 3, 310)[1]) <= 240


@pytest.mark.parametrize("prec", [40, 100, 300])
def test_class_tails_within_bound_of_hurwitz_reference(prec):
    # class_tail's integer pair at scale Nu 2^W (Nu = N^u, 1 at N = 0), with no
    # allowance, against the reference from n0, the first n > N in class r;
    # each is computed with enough digits that its error at that scale is far
    # below a unit
    D = EvalContext(prec).work_digits
    Nc, W = numerics._outer_cutoff(D), numerics._fixed_bits(D)
    sample = [(1, False, 0), (2, True, 0), (1, False, Nc), (2, False, Nc), (40, True, Nc), (120, False, Nc)]
    for r in (1, 2, 3, 4):
        for u, logw, N in sample:
            X, units = numerics.class_tail(r, u, N, D, logw)
            n0 = N + 1 + (r - 1 - N) % 4
            with mp.workdps(D + 40 + math.ceil(u * math.log10(n0))):
                ref = _class_tail_reference(u, logw, n0)
                assert abs(X - ref * mpf(max(N, 1)) ** u * mpf(2) ** W) <= units, (r, u, logw, N, prec)


def test_precision_errors_name_their_term():
    # the shift ratio (2+k) 10^6 / (k+1) never falls below 1
    with pytest.raises(PrecisionError, match=r"u=2, delta=1000000, N=1"):
        numerics._shift_chain({}, 2, 0, 1 << 64, 0, 10**6, 1, 64)
    # from m0 = 10^6 + 1 the EM terms fall for far more than 499 steps, and
    # still lie above the target of D = 5000 digits after them
    for logw in (False, True):
        msg = rf"loop exhausted for class 1, exponent 2, log weight {logw}, N=1000000, D=5000"
        with pytest.raises(PrecisionError, match=msg):
            numerics._tail_fixed(1, 2, 10**6, 5000, logw)


def test_clear_caches_empties_every_cache(ctx40):
    from mzv.symexpr import ConstExpr, zeta_sym

    D = ctx40.work_digits
    expr = zeta_sym(3) * zeta_sym(5) + ConstExpr.generator("li4h") * ConstExpr.generator("log2", 2)

    def cold_values():
        return (
            numerics._char_em("2b", "m4", 1, 2, D),
            numerics._char_em("1", "2a", 3, 1, D),
            numerics._L_internal("m4", 3, D),
            numerics._expr_internal(expr, D),
        )

    numerics.clear_caches()
    first = cold_values()
    caches = [v for k, v in vars(numerics).items() if k.endswith("_cache") and isinstance(v, dict)]
    assert len(caches) >= 4 and all(caches)
    assert any(key[0] == "tail" for key in numerics._fixed_cache)
    assert any(key[0] == "pairs" for key in numerics._fixed_cache)
    numerics.clear_caches()
    assert not any(caches)
    assert not any(key[0] == "pairs" for key in numerics._fixed_cache)
    # identical (value, bound) bits, computed again from empty caches
    assert [(v._mpf_, b._mpf_) for v, b in cold_values()] == [(v._mpf_, b._mpf_) for v, b in first]


def _cache_sizes():
    return {k: len(v) for k, v in vars(numerics).items() if k.endswith("_cache") and isinstance(v, dict)}


_D = 20
_N = numerics._outer_cutoff(_D)
# (layer, arguments, its cache, the key it stores under)
_MEMO_LAYERS = [
    ("class_tail", (1, 3, _N, _D), "_kernel_cache", (1, 3, _N, _D, False)),
    ("class_tail", (2, 3, _N, _D, True), "_kernel_cache", (2, 3, _N, _D, True)),
    ("_L_fixed", ("m4", 3, _D), "_fixed_cache", ("L", "m4", 3, _D)),
    ("_L_internal", ("2b", 1, _D), "_value_cache", ("L", "2b", 1, _D)),
    ("_head_units", (_D,), "_fixed_cache", ("head", _D)),
    ("_pow_row", (2, _D), "_fixed_cache", ("pow", 2, _D)),
    ("_inner_ct", (2, _N, _D), "_inner_ct_cache", (2, _N, _D)),
    ("_inner_array", (2, 1, _D), "_array_cache", (2, 1, _D)),
    ("_folded_inner", ("2a", 2, 1, _D), "_fixed_cache", ("fold", "2a", 2, 1, _D)),
    ("_inner_const", ("1", 1, _D), "_fixed_cache", ("C", "1", _D)),
    ("_class_pairs", ("1", 2, 1, _D), "_fixed_cache", ("pairs", "1", 2, 1, _D)),
    ("_char_em", ("2b", "m4", 1, 2, _D), "_value_cache", ("cs", "2b", "m4", 1, 2, _D)),
    ("_witten_internal", (1, 1, 2, _D), "_value_cache", ("W", 1, 1, 2, _D)),
    ("_harmonic_internal", ("half_index", 1, _D), "_value_cache", ("H", "half_index", 1, _D)),
    ("_gen_pow", ("pi", 3, _D), "_gen_pow_cache", ("pi", 3, _D)),
]


@pytest.mark.parametrize("name, args, cache, key", _MEMO_LAYERS, ids=[m[0] for m in _MEMO_LAYERS])
def test_memo_hit_returns_the_stored_object_and_grows_no_cache(name, args, cache, key):
    # the benchmark tracer counts a miss as "the cache grew during the call"
    numerics.clear_caches()
    first = getattr(numerics, name)(*args)
    assert getattr(numerics, cache)[key] is first
    sizes = _cache_sizes()
    assert getattr(numerics, name)(*args) is first
    assert _cache_sizes() == sizes


_REFUSED = [
    ("_L_fixed", ("1", 1, _D)),
    ("_char_em", ("2b", "1", 1, 1, _D)),
    ("_harmonic_internal", ("odd_denom", 1, _D)),
    ("class_tail", (1, 1, _N, _D, True)),
]


@pytest.mark.parametrize("name, args", _REFUSED, ids=[c[0] for c in _REFUSED])
def test_memo_stores_nothing_for_a_refused_call(name, args):
    numerics.clear_caches()
    with pytest.raises(DomainError):
        getattr(numerics, name)(*args)
    assert not any(_cache_sizes().values())


def test_telescoping_lemma():
    # partial sums of sum_{m != n} 1/(m^2-n^2) approach 3/(4n^2) at rate O(1/M)
    M = 10**5
    m = np.arange(1, M + 1, dtype=np.float64)
    for n in (1, 2, 5):
        mask = m != n
        partial = float(np.sum(1.0 / (m[mask] ** 2 - n**2)))
        assert abs(partial - 3.0 / (4 * n * n)) < 10.0 / M, n


def test_alternating_telescoping_lemma():
    # sum_{m != n} (-1)^m/(m^2-n^2) = (2+(-1)^n)/(4n^2)
    M = 10**6
    m = np.arange(1, M + 1, dtype=np.float64)
    signs = np.where(m % 2 == 0, 1.0, -1.0)
    for n in (1, 2, 5):
        mask = m != n
        partial = float(np.sum(signs[mask] / (m[mask] ** 2 - n**2)))
        want = (2.0 + (-1.0) ** n) / (4 * n * n)
        assert abs(partial - want) < 10.0 / M, n


def test_oracle_randomized_agreement(ctx30):
    import random

    rng = random.Random(20260809)
    with mp.workdps(50):
        for _ in range(6):
            a, b = rng.randint(2, 5), rng.randint(2, 4)
            value, bound = brute_force_oracle("dzeta", (a, b), 10**4)
            assert abs(dzeta_num(a, b, ctx30) - value) < bound + tol(ctx30)
        for _ in range(6):
            p, q = rng.choice(CHAR_IDS), rng.choice(CHAR_IDS)
            s, t = rng.randint(2, 4), rng.randint(2, 4)
            value, bound = brute_force_oracle("char_dzeta", (p, q, s, t), 10**4)
            assert abs(char_dzeta_num(p, q, s, t, ctx30) - value) < bound + tol(ctx30)


def test_eval_context_validation():
    with pytest.raises(DomainError):
        EvalContext(5)
