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
from mzv.exact import bernoulli, tangent_number
import mzv
from mzv import numerics, reductions
from mzv.numerics import (
    CHAR_IDS,
    CHI,
    EvalContext,
    L_num,
    brute_force_oracle,
    char_dzeta_num,
    char_product,
    chi,
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


_PUBLIC_DOMAIN_ERRORS = [
    (lambda ctx: zeta_num(1, ctx), "zeta_num(1) needs s >= 2"),
    (lambda ctx: dzeta_num(1, 2, ctx), "dzeta_num(1, 2) needs a >= 2, b >= 1"),
    (lambda ctx: reductions.dzeta_reduce(3, 0), "dzeta_reduce(3, 0) needs a >= 2, b >= 1"),
    (lambda ctx: reductions.zeta_s1_reduce(2), "zeta_s1_reduce(2) needs s >= 3"),
    (
        lambda ctx: periodic_tail_num("1", 1, 5, ctx),
        "periodic_tail_num('1', 1, 5) needs s >= 2, or s = 1 for a mean-zero p",
    ),
    (lambda ctx: periodic_tail_num("2b", 2, -1, ctx), "periodic_tail_num('2b', 2, -1) needs N >= 0"),
    # a tuple or str argument of the wrong shape or type, checked before it is
    # unpacked or hashed
    (lambda ctx: brute_force_oracle("dzeta", (3,), 50), "brute_force_oracle('dzeta') needs 2 parameters, got (3,)"),
    (lambda ctx: brute_force_oracle("witten", 3, 50), "brute_force_oracle('witten') needs 3 parameters, got 3"),
    (lambda ctx: harmonic_sum_num(["odd_denom"], 2, ctx), "unknown harmonic sum kind ['odd_denom']"),
    (lambda ctx: reductions.alt_value_lookup(5), "alt_value_lookup needs a (p, q, s, t) key, got 5"),
    (lambda ctx: reductions.alt_value_lookup(("2b", "1", "2", 1)), "alt_value_lookup needs an integer s, got '2'"),
]


@pytest.mark.parametrize(
    "call, text", _PUBLIC_DOMAIN_ERRORS, ids=[t.split("(")[0] for _, t in _PUBLIC_DOMAIN_ERRORS]
)
def test_public_domain_errors_name_their_arguments(ctx40, call, text):
    # as zeta_sym(1) needs s >= 2 does: the call and its arguments, then the domain
    with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
        call(ctx40)


# the six numeric entries with their integer arguments, each from a valid call
_INT_ENTRIES = {
    "zeta_num": (zeta_num, ("s",)),
    "L_num": (lambda s, ctx: L_num("2b", s, ctx), ("s",)),
    "dzeta_num": (dzeta_num, ("a", "b")),
    "char_dzeta_num": (lambda s, t, ctx: char_dzeta_num("m4", "2b", s, t, ctx), ("s", "t")),
    "periodic_tail_num": (lambda s, N, ctx: periodic_tail_num("1", s, N, ctx), ("s", "N")),
    "witten_num": (witten_num, ("r", "s", "t")),
}


@pytest.mark.parametrize("entry", sorted(_INT_ENTRIES))
def test_numeric_entries_take_integer_arguments_only(entry):
    # each argument in turn takes ints (a large negative one in every slot, a
    # large N, whose tail is cheap), floats, strings, None and bools, the
    # others staying at 3: every call returns a value or raises DomainError,
    # which for a non-int (a bool included) names the call and the argument
    ctx = EvalContext(10)
    fn, names = _INT_ENTRIES[entry]
    for i, name in enumerate(names):
        big = [10**40] if name == "N" else []
        for value in [3, 1, 0, -(10**40), *big, 2.5, 3.0, "3", None, True, False]:
            args = [3] * len(names)
            args[i] = value
            try:
                fn(*args, ctx)
            except DomainError as exc:
                if not isinstance(value, int) or isinstance(value, bool):
                    assert str(exc) == f"{entry} needs an integer {name}, got {value!r}"
            else:
                assert isinstance(value, int) and not isinstance(value, bool), (entry, name, value)


# the other public entries with their integer arguments and a valid call
_OTHER_INT_ENTRIES = {
    "chi": (lambda n: chi("1", n), {"n": 3}),
    "bernoulli": (mzv.bernoulli, {"n": 3}),
    "euler_number": (mzv.euler_number, {"n": 3}),
    "tangent_number": (tangent_number, {"n": 3}),
    "harmonic": (mzv.harmonic, {"n": 3}),
    "harmonic_power": (mzv.harmonic_power, {"n": 3, "b": 2}),
    "hyp2f1_special": (mzv.hyp2f1_special, {"n": 3}),
    "binomial": (mzv.binomial, {"n": -3, "k": 1}),
    "inv_binomial_sum": (mzv.inv_binomial_sum, {"n": 3, "m": 1}),
    "zeta_sym": (mzv.zeta_sym, {"s": 3}),
    "beta_sym": (mzv.beta_sym, {"s": 3}),
    "L_sym": (lambda s: mzv.L_sym("1", s), {"s": 3}),
    "EvalContext": (EvalContext, {"prec": 40}),
    "harmonic_sum_num": (lambda s: harmonic_sum_num("odd_denom", s, EvalContext(10)), {"s": 2}),
    "brute_force_oracle": (
        lambda a, b, N: brute_force_oracle("dzeta", (a, b), N), {"a": 3, "b": 2, "N": 50}
    ),
    "dzeta_reduce": (reductions.dzeta_reduce, {"a": 3, "b": 2}),
    "zeta_s1_reduce": (reductions.zeta_s1_reduce, {"s": 3}),
    "witten_reduce": (reductions.witten_reduce, {"r": 1, "s": 1, "t": 2}),
}


@pytest.mark.parametrize("value", [2.5, "3", None, True], ids=repr)
@pytest.mark.parametrize("entry", sorted(_OTHER_INT_ENTRIES))
def test_other_public_entries_take_integer_arguments_only(entry, value):
    # each argument in turn, the others as in the valid call: a bool is refused
    # too, so bernoulli(True) is no longer B_1; zeta_sym's cache keeps the
    # valid 3 apart from 3.0, and zeta_s1_reduce's likewise
    fn, valid = _OTHER_INT_ENTRIES[entry]
    fn(**valid)
    for name in valid:
        text = f"{entry} needs an integer {name}, got {value!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
            fn(**{**valid, name: value})
    with pytest.raises(DomainError):
        fn(**{name: float(v) for name, v in valid.items()})


@pytest.mark.parametrize("bad", [["1"], {"1": 1}, None], ids=repr)
def test_character_ids_that_are_not_str_are_domain_errors(ctx40, bad):
    # a list or dict id is not looked up in CHI, where it would leak a TypeError
    msg = f"^{re.escape(f'unknown character {bad!r}')}$"
    for call in (
        lambda: chi(bad, 2),
        lambda: char_product(bad, "1"),
        lambda: char_product("1", bad),
        lambda: L_num(bad, 3, ctx40),
        lambda: periodic_tail_num(bad, 2, 5, ctx40),
        lambda: char_dzeta_num(bad, "1", 2, 1, ctx40),
        lambda: char_dzeta_num("2b", bad, 2, 1, ctx40),
        lambda: reductions.alt_value_lookup((bad, "1", 2, 1)),
    ):
        with pytest.raises(DomainError, match=msg):
            call()


def test_L_values(ctx40):
    with mp.workdps(60):
        assert abs(L_num("2a", 4, ctx40) - (1 - mpf(2) ** -4) * zeta_num(4, ctx40)) < tol(ctx40, 2)
        assert abs(L_num("m4", 1, ctx40) - mp.pi / 4) < tol(ctx40)
        assert abs(L_num("2b", 1, ctx40) - mp.log(2)) < tol(ctx40)
        assert abs(L_num("2b", 2, ctx40) - mp.pi**2 / 12) < tol(ctx40)
    with pytest.raises(DomainError):
        L_num("2a", 1, ctx40)


def test_chi_unknown_character_is_a_domain_error():
    assert chi("m4", 3) == -1
    with pytest.raises(DomainError, match="unknown character 'x'"):
        chi("x", 3)


def test_char_product_unknown_character_is_a_domain_error():
    assert char_product("2b", "m4") == "m4"
    with pytest.raises(DomainError, match="unknown character 'x'"):
        char_product("x", "1")
    with pytest.raises(DomainError, match="unknown character 'y'"):
        char_product("1", "y")


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


def test_char_dzeta_unknown_character_is_a_domain_error(ctx40):
    # named as L_num, chi and char_product name it, before the convergence test
    with pytest.raises(DomainError, match="^unknown character 'x'$"):
        char_dzeta_num("x", "1", 2, 1, ctx40)
    with pytest.raises(DomainError, match="^unknown character 'y'$"):
        char_dzeta_num("2b", "y", 1, 2, ctx40)


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


@pytest.mark.parametrize("prec", [40, 100, 300])
def test_char_dzeta_s1_t1_corners_with_a_divergent_inner_prefix(prec):
    # s = t = 1 with an inner character of nonzero mean: summed over m outside,
    # the tail over n of the mean-zero p converges, so these corners evaluate
    # like any other sum.  [2b,1](1,1) = -log(2)^2/2 is the alternating
    # zeta(1bar, 1); the other three closed forms are numerical identifications
    # (checked to 1e-300 here), not proofs
    ctx = EvalContext(prec)
    with mp.workdps(prec + 20):
        ln2, pi, catalan = mp.log(2), +mp.pi, +mp.catalan
        corners = {
            ("2b", "1"): -ln2**2 / 2,
            ("2b", "2a"): -pi**2 / 24,
            ("m4", "1"): -pi * ln2 / 8,
            ("m4", "2a"): pi * ln2 / 8 - catalan / 2,
        }
        for (p, q), want in corners.items():
            assert abs(char_dzeta_num(p, q, 1, 1, ctx) - want) < tol(ctx), (p, q, prec)


def _char_em_per_character(p, q, s, t, D):
    """[p,q](s,t) summed over m outside for this q alone: a plain loop over
    the head m <= N and the tails of q's classes, the per-character combine
    that _class_pairs shares between inner characters, kept as a reference."""
    from operator import mul

    N, W = numerics._outer_cutoff(D), numerics._fixed_bits(D)
    Nt = N**t
    X, U = numerics._L_fixed(p, s, D)
    outer = numerics._pow_row(s, D)
    head = prefix = units = 0
    for m in range(1, N + 1):
        prefix += CHI[p][(m - 1) % 4] * outer[m]
        head += CHI[q][(m - 1) % 4] * ((X - prefix) // m**t)
    acc = (head << W) * Nt
    for r in (1, 2, 3, 4):
        cq = CHI[q][r - 1]
        if not cq:
            continue
        head_units = U * (2 if t > 1 else N.bit_length()) + 2 * len(range(r, N + 1, 4))
        E, F, (rem, erem), rnd = numerics._inner_array(p, s, r, D)
        G, B = numerics._tail_row(r, t + E[0], t + E[-1] + 1, D)
        Gt, Bt = [G[t + e] for e in E], [B[t + e] for e in E]
        acc += cq * sum(map(mul, F, Gt))
        units += (head_units << W) * Nt
        units += sum(map(mul, map(abs, F), Bt)) + sum(Bt) + sum(Gt) + rnd * (Gt[0] + Bt[0])
        units += -(-rem // (t + erem - 1))
    return numerics._from_fixed(acc // Nt, -(-units // Nt) + 1, 2 * W, D)


def test_shared_class_pairs_bit_identical_to_per_character_loop():
    # every [p,q](s,t), s <= 4, t <= 3, at three depths, and s, t <= 2 at
    # D = 310, the four s = t = 1 corners with an inner character of nonzero
    # mean included, requested in a shuffled order from empty caches so that
    # pairs one q fills are read by another
    import random

    requests = [
        (p, q, s, t, D)
        for p in CHAR_IDS
        for q in CHAR_IDS
        for s in range(1, 5)
        for t in range(1, 4)
        for D in (20, 50, 110, 310)
        if numerics._char_convergent(p, q, s, t) and (D < 310 or max(s, t) <= 2)
    ]
    random.Random(20261018).shuffle(requests)
    numerics.clear_caches()
    shared = [numerics._char_em(*req) for req in requests]
    # one pair tuple per distinct (p, s, t, D), whichever q asked first
    assert {key for key in numerics._fixed_cache if key[0] == "pairs"} == {
        ("pairs", p, s, t, D) for p, q, s, t, D in requests
    }
    for req, (v, b) in zip(requests, shared):
        ref_v, ref_b = _char_em_per_character(*req)
        assert (v._mpf_, b._mpf_) == (ref_v._mpf_, ref_b._mpf_), req
    # a divergent outer sum is refused before any pair is built
    with pytest.raises(DomainError):
        numerics._char_em("1", "2b", 1, 2, 50)
    assert ("pairs", "1", 1, 2, 50) not in numerics._fixed_cache


@pytest.mark.parametrize("D, top, t_top", [(20, 8, 8), (50, 8, 20), (110, 8, 8), (310, 4, 4)])
def test_char_bounds_honest_at_every_small_exponent(D, top, t_top):
    # every [p,q](s,t), s <= top, t <= t_top, against the same sum at D + 40
    # digits with no allowance, and every bound at most 10^-(D+3); t = 20
    # reads the rows up to u = 20 + E[-1]
    for p in CHAR_IDS:
        for q in CHAR_IDS:
            for s in range(1, top + 1):
                for t in range(1, t_top + 1):
                    if not numerics._char_convergent(p, q, s, t):
                        continue
                    value, bound = numerics._char_em(p, q, s, t, D)
                    ref, _ = numerics._char_em(p, q, s, t, D + 40)
                    with mp.workdps(D + 60):
                        assert abs(value - ref) <= bound <= mpf(10) ** -(D + 3), (p, q, s, t, D)


def test_class_heads_within_their_units_of_the_exact_head(monkeypatch):
    # the head sum_{m <= N} m^-t R_p(s; m) of each class r of m, in units of
    # 2^-W, against the exact rational head with L_p(s) from a D + 40 digit
    # evaluation: with _L_fixed's own pair, and with pairs (X, U) whose X is
    # off by K = 0 and +-2^20 units of L_p(s) 2^W, so that the head's count
    # U sum m^-t is what covers the shift
    D = 20
    N, W = numerics._outer_cutoff(D), numerics._fixed_bits(D)
    K = 1 << 20
    for p in CHAR_IDS:
        for s in range(1, 5):
            if not numerics._L_convergent(p, s):
                continue
            X, U = numerics._L_fixed(p, s, D + 40)
            Wd = numerics._fixed_bits(D + 40)
            assert U < 1 << (Wd - W - 8)
            L = Fraction(X, 2**Wd)  # within 2^-8 units of 2^-W
            rest = [L]
            for n in range(1, N + 1):
                rest.append(rest[-1] - Fraction(chi(p, n), n**s))
            Lx = round(L * 2**W)
            pairs = [numerics._L_fixed(p, s, D)] + [(Lx + k, abs(k) + 1) for k in (0, K, -K)]
            for t in range(1, 5):
                exact = [sum(rest[m] / m**t for m in range(r, N + 1, 4)) * 2**W for r in (1, 2, 3, 4)]
                for pair in pairs:
                    monkeypatch.setattr(numerics, "_L_fixed", lambda p, s, D, pair=pair: pair)
                    heads = numerics._class_heads(p, s, t, D)
                    monkeypatch.undo()
                    for r, (H, units), want in zip((1, 2, 3, 4), heads, exact):
                        assert abs(H - want) <= units, (p, s, t, r, pair[1])


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


def _witten_terms_by_recursion(r, s, t, memo):
    """W(r,s,t) through W(r,s,t) = W(r-1,s,t+1) + W(r,s-1,t+1) down to its
    boundary terms, r first: the reference for witten_terms' closed form."""
    if (r, s, t) not in memo:
        if t == 0:
            memo[r, s, t] = {("zz", r, s): 1}
        elif r == 0 or s == 0:
            memo[r, s, t] = {("dz", t, r + s): 1}
        else:
            out = dict(_witten_terms_by_recursion(r - 1, s, t + 1, memo))
            for k, c in _witten_terms_by_recursion(r, s - 1, t + 1, memo).items():
                out[k] = out.get(k, 0) + c
            memo[r, s, t] = out
    return memo[r, s, t]


def test_witten_terms_closed_form_matches_the_recursion():
    # coefficients and key order, so the symbolic walk's first leftover stays
    memo = {}
    triples = [(r, s, t) for r in range(25) for s in range(25) for t in range(12)
               if numerics.witten_convergent(r, s, t)]
    assert len(triples) == 7354
    for r, s, t in triples:
        want = _witten_terms_by_recursion(r, s, t, memo)
        got = numerics.witten_terms(r, s, t)
        assert got == want and list(got.items()) == list(want.items()), (r, s, t)


def test_witten_terms_at_large_r_need_no_recursion():
    # r above the interpreter's recursion limit: the closed form needs no recursion
    terms = numerics.witten_terms(2000, 3, 3)
    assert len(terms) == 2000
    assert terms["dz", 2003, 3] == 1 + math.comb(1999, 2)  # j = 3 and i = 3 merged
    assert terms["dz", 6, 2000] == 1


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
        assert generator_num(("z", 5), ctx40) == zeta_num(5, ctx40)


@pytest.mark.parametrize(
    "g", [("z", 2), ("z", 0), ("z", 1), ("z", -3), ("z", 4), ("z", 3.0), ("y", 3), "e"], ids=repr
)
def test_generator_num_refuses_what_is_not_a_generator(ctx40, g):
    # the zeta generators are those of symexpr.zeta_gen, odd k >= 3
    with pytest.raises(DomainError, match=f"^unknown constant generator {re.escape(repr(g))}$"):
        generator_num(g, ctx40)


def test_determinism(ctx40):
    import mzv.numerics as numerics

    a = char_dzeta_num("2b", "2a", 3, 2, ctx40)
    b = char_dzeta_num("2b", "2a", 3, 2, ctx40)
    assert a == b
    numerics.clear_caches()
    c = char_dzeta_num("2b", "2a", 3, 2, ctx40)
    assert a == c  # bit-identical after recomputation


def _cap(e):
    """c*_e = 20 (2/3)^e (e-1)!, the bound on every inner coefficient of exponent e."""
    return 20 * Fraction(2, 3) ** e * math.factorial(e - 1)


def _reach(D):
    """The largest e <= 2N + 2 with c*_f N^-f 2^(W+1) >= 1 for every f <= e:
    the highest exponent of a nonzero inner coefficient."""
    N, W = numerics._outer_cutoff(D), numerics._fixed_bits(D)
    e = 1
    while e <= 2 * N + 2 and _cap(e) * 2 ** (W + 1) >= N**e:
        e += 1
    return e - 1


def test_fixed_point_tail_rows_bracket_the_kernel():
    # every row entry's units stay within its allowance
    # A_u = 2^-g N^u / c*_e at e = max(4, min(u-1, reach)), plus the two units
    # of the rows' integer scale 2^W; from the first u where A_u covers
    # Ghat_u = (4u + N) 2^W / (4(u-1)) the entry is 0 within ceil(Ghat_u).
    # Sampled entries bracket a Hurwitz-zeta reference with no allowance, as
    # class_tail's full-scale pair does at u = 1.  Each row runs past the
    # exponents _char_em asks for (about 72 at D = 20, 111 at D = 50 and 368
    # at D = 310); at D = 20 the start passes N from u = 132 on, where the
    # entries are already 0.
    rows = {  # D -> (row end, exponents checked against the reference)
        20: (251, (1, 2, 3, 5, 17, 40, 43, 44, 72, 131, 132, 150, 250)),
        50: (112, (1, 2, 3, 7, 30, 62, 63, 64, 111)),
        110: (160, (1, 2, 9, 50, 101, 102, 159)),
        310: (369, (1, 2, 17, 90, 220, 240, 241, 368)),
    }
    for D, (hi, us) in rows.items():
        N, W = numerics._outer_cutoff(D), numerics._fixed_bits(D)
        reach = _reach(D)
        A = {u: Fraction(N**u, 2**numerics._ROW_GUARD) / _cap(max(4, min(u - 1, reach))) for u in range(2, hi)}
        top = len(numerics._row_scales(D)) + 2
        assert A[top] * 4 * (top - 1) >= (4 * top + N) * 2**W > A[top - 1] * 4 * (top - 2), D
        for r in (1, 2, 3, 4):
            G, B = numerics._tail_row(r, 1, hi, D)
            assert (G[1], B[1]) == numerics.class_tail(r, 1, N, D), (D, r)
            for u in range(2, hi):
                assert B[u] <= A[u] + 2, (D, r, u)
                assert (u >= top) == (G[u] == 0), (D, r, u)
            n0 = N + 1 + (r - 1 - N) % 4
            for u in us:
                m0 = max(N, numerics._kernel_start(u, D)) + 1
                with mp.workdps(D + 40 + math.ceil(u * math.log10(m0))):
                    ref = _class_tail_reference(u, n0) * mpf(N) ** u * mpf(2) ** W
                    assert abs(G[u] - ref) <= B[u], (D, r, u)


def test_coefficient_cap_bounds_the_inner_coefficients():
    # c*_e is at least every exact inner coefficient, each character and
    # class, s <= 12, through k = 40 Bernoulli terms; the arrays' nonzero
    # entries lie at e <= reach, and past reach c*_e N^-e 2^(W+1) stays below
    # 1 through 2N + 3, checked at both ends (log-convex in e)
    for p in CHAR_IDS:
        for s in range(1, 13):
            if not numerics._L_convergent(p, s):
                continue
            for r in (1, 2, 3, 4):
                for e, c in _inner_coefficients(p, s, r, 40).items():
                    assert abs(c) <= _cap(e), (p, s, r, e)
    for D in (20, 50, 110, 310):
        N, W = numerics._outer_cutoff(D), numerics._fixed_bits(D)
        reach = _reach(D)
        for e in (reach + 1, 2 * N + 3):
            assert _cap(e) * 2 ** (W + 1) < N**e, (D, e)
        for p, s in _tail_cases():
            for r in (1, 2, 3, 4):
                E, F = numerics._inner_array(p, s, r, D)[:2]
                assert max(e for e, f in zip(E, F) if f) <= reach, (p, s, r, D)


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
    # with N = 10 and a start of 585 for u <= 90 (1200 above), the exponents
    # from u = 47 (42 in class 3) to 90 turn from the start they share and
    # restart farther out: below them are exponents that stepped the shared
    # list up, above them ones with a start of their own.  Every entry
    # brackets the reference with no allowance
    D, N = 310, 10
    W = numerics._fixed_bits(D)
    monkeypatch.setattr(numerics, "_outer_cutoff", lambda D: N)
    monkeypatch.setattr(numerics, "_kernel_start", lambda u, D: 585 if u <= 90 else 1200)
    real_bracket = numerics._em_bracket
    starts = []
    monkeypatch.setattr(numerics, "_em_bracket", lambda *a: starts.append(a[:2]) or real_bracket(*a))
    numerics.clear_caches()
    try:
        for r, first in ((1, 47), (3, 42)):
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


def _class_tail_reference(u, n0):
    """The class tail from n0 on at the current precision, a = n0/4:
    sum n^-u = 4^-u zeta(u, a), and the regularized u = 1 tail is
    -digamma(a)/4 - log(4)/4."""
    a = mpf(n0) / 4
    if u == 1:
        return -mp.digamma(a) / 4 - mp.log(4) / 4
    return mpf(4) ** -u * mp.zeta(u, a)


def _em_term(u, j, m0):
    """t_j(u) = beta_j (u)_(2j-1) / m0^(2j-1), beta_j = B_2j 4^(2j-1) / (2j)!, exact."""
    beta = bernoulli(2 * j) * 4 ** (2 * j - 1) / math.factorial(2 * j)
    return beta * Fraction(math.prod(range(u, u + 2 * j - 1)), m0 ** (2 * j - 1))


def test_em_bracket_within_its_floor_units():
    # the integer bracket against the exact rational partial sum of the same
    # terms, both kinds: plain and regularized u = 1, where log m0 is taken
    # from a V + 200 bit reference.  The chain's floors drift
    # by 20-40 units here, so each is counted; L is passed a unit below its
    # floor, within the 2 units the bracket allows, and at m0 = 10^6 that unit
    # moves the sum by about m0 / 4 units, far above the floors.
    V = 400
    for u, m0 in ((2, 321), (7, 323), (40, 1637), (368, 1640), (1, 321), (1, 10**6)):
        with mp.workprec(V + 200):
            log_m0 = _exact(mp.log(m0))
        L = numerics._log_fixed(m0, V)
        assert abs(L - log_m0 * 2**V) < 1
        terms = numerics._EMTerms()
        x, units, _ = numerics._em_bracket(u, m0, V, L - 1, terms)
        plain = Fraction(m0, 4 * (u - 1)) if u > 1 else -m0 * log_m0 / 4
        plain += Fraction(1, 2) + sum(_em_term(u, j, m0) for j in range(1, len(terms.t) + 1))
        assert abs(x - plain * 2**V) <= units, (u, m0)


def test_em_terms_step_up_within_their_units():
    # the list _em_bracket leaves at u = 2, then stepped up one exponent at a
    # time at scales falling by 0, 1, 5 or 12 bits: every term stays within
    # the list's e units of the exact t_j(u) 2^V.  At a constant scale a step
    # multiplies a term's error by up to (u+2J-1)/u, which e must follow
    m0, V = 1641, 1200
    terms = numerics._EMTerms()
    numerics._em_bracket(2, m0, V, None, terms)
    J = len(terms.t)
    for u, dV in zip(range(2, 31), (0, 0, 0, 1, 5, 12, 12) * 5):
        V -= dV
        t = terms.at(u, m0, V) if u > 2 else terms.t
        assert len(t) == J > 30, u
        for j, x in enumerate(t, 1):
            assert abs(x - _em_term(u, j, m0) * 2**V) <= terms.e, (u, j)


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
    # from a third of the usual start the (r, u) = (4, 30) tail and the
    # regularized u = 1 tail of class 2 turn and restart farther
    # out, and still bracket the reference; every start lies above N = 10, so
    # the head n = 12, 16, ... (n = 14, 18, ...) below m0 is summed directly
    D, N = 310, 10
    W = numerics._fixed_bits(D)
    real_start = numerics._kernel_start
    real_bracket = numerics._em_bracket
    for r, u, restarts in ((4, 30, 3), (2, 1, 3)):
        start = real_start(u, D) // 3
        monkeypatch.setattr(numerics, "_kernel_start", lambda u, D: start)
        starts = []
        monkeypatch.setattr(numerics, "_em_bracket", lambda *a: starts.append(a[1]) or real_bracket(*a))
        G, B = numerics._tail_fixed(r, u, N, D)
        assert len(set(starts)) == len(starts) == restarts + 1, u
        n0 = N + 1 + (r - 1 - N) % 4
        with mp.workdps(D + 80):
            ref = _class_tail_reference(u, n0)
            assert abs(G - ref * mpf(N) ** u * mpf(2) ** W) <= B, u
    # a start that never lets the series fall below target runs out of restarts
    monkeypatch.setattr(numerics, "_kernel_start", lambda u, D: 1)
    for r, u, N in ((3, 40, 1), (2, 1, 0)):
        msg = rf"did not converge for class {r}, exponent {u}, N={N}, D=310"
        with pytest.raises(PrecisionError, match=msg):
            numerics._tail_fixed(r, u, N, D)


def _inner_coefficients(p, s, r, k):
    """{e: c_e}, exact, of the strict tail sum_{n>m} chi_p(n) n^-s at
    m == r (mod 4) through the Bernoulli-polynomial term i = k:
    sum w / (4(s-1)) at e = s-1 and (-1)^i g_i (s)_(i-1) at e = s+i-1, less
    the term n = m, w_0 at e = s, with w_d = chi_p(r+d) and
    g_i = sum_d w_d B_i(d/4) 4^(i-1) / i!; B_i(x) at x = 0, 1/4, 1/2, 3/4
    from the Bernoulli and Euler numbers."""
    from mzv.exact import euler_number

    w = [CHI[p][(r + d - 1) % 4] for d in range(4)]
    c = {s - 1: Fraction(sum(w), 4 * (s - 1))} if sum(w) else {}
    rise = 1  # (s)_(i-1)
    for i in range(1, k + 1):
        b = bernoulli(i)
        quarter = -i * euler_number(i - 1) / Fraction(4**i) - (1 - Fraction(2) ** (1 - i)) * b / 2**i
        at = (b, quarter, (Fraction(2) ** (1 - i) - 1) * b, (-1) ** i * quarter)
        g = sum(wd * x for wd, x in zip(w, at)) * Fraction(4 ** (i - 1), math.factorial(i))
        c[s + i - 1] = (-1) ** i * g * rise
        rise *= s + i - 1
    c[s] -= w[0]
    return c


def _tail_cases():
    """(p, s) for s = 1, 2, 5 and 12: at s = 1 the mean-zero p only."""
    return [(p, s) for s in (1, 2, 5, 12) for p in CHAR_IDS if numerics._L_convergent(p, s)]


@pytest.mark.parametrize("D", [20, 50, 110])
def test_inner_array_within_its_units_of_exact_coefficients(D):
    # every (p, r), against the exact rationals through k = 2J + 1: the
    # exponents are exactly those of the nonzero coefficients, and each entry
    # is within one unit of c_e N^-e 2^W plus its share of rnd
    N, W = numerics._outer_cutoff(D), numerics._fixed_bits(D)
    for p, s in _tail_cases():
        J = len(numerics._inner_chain(s, D, False))
        for r in (1, 2, 3, 4):
            E, F, (rem, erem), rnd = numerics._inner_array(p, s, r, D)
            c = _inner_coefficients(p, s, r, 2 * J + 1)
            assert list(E) == sorted(e for e, v in c.items() if v), (p, s, r, D)
            assert erem == s + 2 * J
            off = [abs(c[e] * Fraction(2**W, N**e) - f) for e, f in zip(E, F)]
            assert sum(max(x - 1, 0) for x in off) <= rnd, (p, s, r, D)


def test_inner_array_truncates_sub_unit_coefficients_to_zero():
    # at s = 400 every coefficient of zeta's strict tail is far below a unit
    # of 2^-W at N^-e: each entry is 0, where a floor made the negative m^-s
    # one -1 (and zeta(400,2) printed below zero)
    for r in (1, 2, 3, 4):
        E, F = numerics._inner_array("1", 400, r, 30)[:2]
        assert 400 in E and not any(F), r


def test_inner_array_zero_pattern():
    # odd Bernoulli-polynomial terms (i >= 3, at e = t + 2j) only for m4 seen
    # from an even class, which has no even ones (e = t + 2j - 1)
    D, t = 50, 3
    J = len(numerics._inner_chain(t, D, False))
    for q in CHAR_IDS:
        for r in (1, 2, 3, 4):
            E = numerics._inner_array(q, t, r, D)[0]
            odd = [e for e in E if e > t and (e - t) % 2 == 0]
            even = [e for e in E if e > t and (e - t) % 2]
            if q == "m4" and r % 2 == 0:
                assert not even and odd == list(range(t + 2, t + 2 * J + 1, 2)), r
            else:
                assert not odd and even == list(range(t + 1, t + 2 * J, 2)), (q, r)


@pytest.mark.parametrize("D", [20, 50, 110])
def test_inner_array_bounds_a_hurwitz_reference(D):
    # the expansion at the first two m > N of class r against the strict tail
    # from n = m + 1 on, from mpmath's Hurwitz zeta (digamma for the
    # regularized s = 1 classes, whose log parts cancel in the mean-zero p)
    # at D + 40 digits: off by at most the remainder
    # rem 2^-2W N^(erem-1) m^-erem and the entries' units
    N, W = numerics._outer_cutoff(D), numerics._fixed_bits(D)
    for p, s in _tail_cases():
        for r in (1, 2, 3, 4):
            E, F, (rem, erem), rnd = numerics._inner_array(p, s, r, D)
            m0 = N + 1 + (r - N - 1) % 4
            for m in (m0, m0 + 4):
                with mp.workdps(D + 40):
                    ref = sum(chi(p, m + d) * _class_tail_reference(s, m + d) for d in (1, 2, 3, 4))
                    got = sum(f * (mpf(N) / m) ** e for e, f in zip(E, F)) / mpf(2) ** W
                    scale = [(mpf(N) / m) ** e / mpf(2) ** W for e in E]
                    allow = rem * mpf(2) ** (-2 * W) * mpf(N) ** (erem - 1) / mpf(m) ** erem
                    allow += sum(scale) + rnd * scale[0]
                    assert abs(got - ref) <= allow, (p, s, r, D, m)


def test_inner_array_length_at_deep_precision():
    # the folded arrays stop with the EM chain: at D = 310 the t = 2 arrays
    # hold at most 109 entries up to e = 214 (the per-class arrays re-expanded
    # at n + delta ran to about e = 230, and their fold to 228 entries)
    for q in CHAR_IDS:
        for r in (1, 2, 3, 4):
            E = numerics._inner_array(q, 2, r, 310)[0]
            assert len(E) <= 109 and E[-1] <= 214, (q, r)


@pytest.mark.parametrize("prec", [40, 100, 300])
def test_class_tails_within_bound_of_hurwitz_reference(prec):
    # class_tail's integer pair at scale Nu 2^W (Nu = N^u, 1 at N = 0), with no
    # allowance, against the reference from n0, the first n > N in class r;
    # each is computed with enough digits that its error at that scale is far
    # below a unit
    D = EvalContext(prec).work_digits
    Nc, W = numerics._outer_cutoff(D), numerics._fixed_bits(D)
    sample = [(1, 0), (2, 0), (1, Nc), (2, Nc), (40, Nc), (120, Nc)]
    for r in (1, 2, 3, 4):
        for u, N in sample:
            X, units = numerics.class_tail(r, u, N, D)
            n0 = N + 1 + (r - 1 - N) % 4
            with mp.workdps(D + 40 + math.ceil(u * math.log10(n0))):
                ref = _class_tail_reference(u, n0)
                assert abs(X - ref * mpf(max(N, 1)) ** u * mpf(2) ** W) <= units, (r, u, N, prec)


def test_precision_errors_name_their_term(monkeypatch):
    # from N = 4 the inner EM step ratio passes 1 at j = 4, far above target
    numerics.clear_caches()
    with monkeypatch.context() as m:
        m.setattr(numerics, "_outer_cutoff", lambda D: 4)
        with pytest.raises(PrecisionError, match=r"inner EM series turned at j=4 before target \(s=2, N=4\)"):
            numerics._inner_chain(2, 50, False)
    numerics.clear_caches()
    # from m0 = 10^6 + 1 the EM terms fall for far more than 499 steps, and
    # still lie above the target of D = 5000 digits after them
    with pytest.raises(PrecisionError, match=r"loop exhausted for class 1, exponent 2, N=1000000, D=5000"):
        numerics._tail_fixed(1, 2, 10**6, 5000)


def test_clear_caches_empties_every_cache(ctx40):
    from mzv.symexpr import ConstExpr, zeta_sym

    D = ctx40.work_digits
    expr = zeta_sym(3) * zeta_sym(5) + ConstExpr.generator("li4h") * ConstExpr.generator("log2", 2)

    def cold_values():
        pairs = (
            numerics._char_em("2b", "m4", 1, 2, D),
            numerics._char_em("1", "2a", 3, 1, D),
            numerics._L_internal("m4", 3, D),
            numerics._expr_internal(expr, D),
        )
        # class_tail's one caller
        return [x._mpf_ for pair in pairs for x in pair] + [periodic_tail_num("m4", 3, 10, ctx40)._mpf_]

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
    assert cold_values() == first


def _cache_sizes():
    return {k: len(v) for k, v in vars(numerics).items() if k.endswith("_cache") and isinstance(v, dict)}


_D = 20
_N = numerics._outer_cutoff(_D)
# (layer, arguments, its cache, the key it stores under)
_MEMO_LAYERS = [
    ("class_tail", (1, 3, _N, _D), "_kernel_cache", (1, 3, _N, _D)),
    ("_L_fixed", ("m4", 3, _D), "_fixed_cache", ("L", "m4", 3, _D)),
    ("_L_internal", ("2b", 1, _D), "_value_cache", ("L", "2b", 1, _D)),
    ("_pow_row", (2, _D), "_fixed_cache", ("pow", 2, _D)),
    ("_inner_chain", (2, _D, True), "_fixed_cache", ("chain", 2, _D, True)),
    ("_row_scales", (_D,), "_fixed_cache", ("scales", _D)),
    ("_inner_array", ("m4", 2, 2, _D), "_array_cache", ("m4", 2, 2, _D)),
    ("_class_pairs", ("1", 2, 1, _D), "_fixed_cache", ("pairs", "1", 2, 1, _D)),
    ("_char_em", ("2b", "m4", 1, 2, _D), "_value_cache", ("cs", "2b", "m4", 1, 2, _D)),
    ("_witten_internal", (1, 1, 2, _D), "_value_cache", ("W", 1, 1, 2, _D)),
    ("_harmonic_internal", ("half_index", 1, _D), "_value_cache", ("H", "half_index", 1, _D)),
    ("_gen_pow", ("pi", 3, _D), "_fixed_cache", ("gpow", "pi", 3, _D)),
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
    ("_L_fixed", ("1", 0, _D)),
    ("_char_em", ("1", "2b", 1, 2, _D)),
    ("_harmonic_internal", ("odd_denom", 1, _D)),
    ("class_tail", (1, 0, _N, _D)),
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
