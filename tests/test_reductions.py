"""Exact reductions: the zeta(n,1) closed form, the weight <= 7 tables, Witten
expansion and the tabulated alternating values, all cross-checked against the
independent multiprecision evaluator."""
import itertools
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from mpmath import mp, mpf

import mzv.numerics as numerics
from mzv.corpus import parse_expr
from mzv.errors import DomainError, NotReducible, ReductionError
from mzv.reductions import (
    WittenReduction,
    _closed_form_table,
    alt_value_lookup,
    dzeta_reduce,
    harmonic_reduction,
    witten_reduce,
    witten_reduction,
    zeta_s1_reduce,
)
from mzv.numerics import expr_num
from mzv.symexpr import ConstExpr, pi_power, zeta_sym
from mzv.verify import reduce_ast


def test_zeta_s1_small():
    assert zeta_s1_reduce(3) == zeta_sym(3)
    assert zeta_s1_reduce(4) == pi_power(4, Fraction(1, 360))
    want = zeta_sym(5) * 2 - zeta_sym(2) * zeta_sym(3)
    assert zeta_s1_reduce(5) == want


def test_dzeta_reduce_weight5():
    z5, z2z3 = zeta_sym(5), zeta_sym(2) * zeta_sym(3)
    assert dzeta_reduce(2, 3) == z5 * Fraction(9, 2) - z2z3 * 2
    assert dzeta_reduce(3, 2) == z2z3 * 3 - z5 * Fraction(11, 2)
    assert dzeta_reduce(4, 1) == z5 * 2 - z2z3


def test_dzeta_reduce_weight4_and_6():
    assert dzeta_reduce(2, 2) == pi_power(4, Fraction(1, 120))
    assert dzeta_reduce(3, 1) == pi_power(4, Fraction(1, 360))
    z3sq = zeta_sym(3) ** 2
    assert dzeta_reduce(4, 2) == z3sq - zeta_sym(6) * Fraction(4, 3)
    assert dzeta_reduce(3, 3) == (z3sq - zeta_sym(6)) * Fraction(1, 2)


def test_dzeta_reduce_not_reducible():
    with pytest.raises(NotReducible):
        dzeta_reduce(5, 3)
    with pytest.raises(NotReducible):
        dzeta_reduce(6, 2)


def test_zeta_s1_matches_table():
    for w in range(3, 8):
        assert dzeta_reduce(w - 1, 1) == zeta_s1_reduce(w), w


def test_reduction_table_against_em():
    """Every weight <= 7 entry within 1e-30 of the independent evaluator at P=40
    (including the b = 1 column, evaluated through the divergent-prefix path)."""
    D = 50
    with mp.workdps(D + 10):
        for w in range(3, 8):
            for a in range(2, w):
                b = w - a
                expr = dzeta_reduce(a, b)
                got, _ = numerics._char_em("1", "1", a, b, D)
                want, _ = numerics._expr_internal(expr, D)
                assert abs(got - want) < mpf(10) ** -30, (a, b)


def test_witten_reduce_closed():
    assert witten_reduce(2, 3, 0) == zeta_sym(2) * zeta_sym(3)
    assert witten_reduce(1, 1, 1) == zeta_sym(3) * 2
    red = witten_reduce(1, 1, 4)  # weight 6 closes
    assert isinstance(red, ConstExpr)
    # W(1,1,4) = 2 zeta(5,1) by the recursion
    assert red == dzeta_reduce(5, 1) * 2


def test_witten_reduce_leftovers():
    red = witten_reduce(2, 2, 4)  # weight 8: zeta(5,3) and friends survive
    assert isinstance(red, WittenReduction)
    assert red.dz_terms
    assert all(b >= 2 and a + b == 8 for (a, b) in red.dz_terms)
    assert all(c == int(c) for c in red.dz_terms.values())


def test_witten_folds_reducible_diagonals():
    # zeta(4,4) closes by reflection, so W(0,4,4) = zeta(4,4) closes too
    assert witten_reduce(0, 4, 4) == (zeta_sym(4) ** 2 - zeta_sym(8)) * Fraction(1, 2)
    for r, s, t in itertools.product(range(7), range(7), range(9)):
        if numerics.witten_convergent(r, s, t):
            assert all(a != b for a, b in witten_reduction(r, s, t).dz_terms), (r, s, t)


def test_witten_symmetry_exact():
    for r, s, t in ((1, 2, 2), (0, 3, 2), (2, 2, 3), (1, 3, 2)):
        a = witten_reduction(r, s, t)
        b = witten_reduction(s, r, t)
        assert a.const_part == b.const_part
        assert a.dz_terms == b.dz_terms


def test_witten_divergent():
    with pytest.raises(DomainError):
        witten_reduce(1, 2, 0)


def _hsum_odd_by_terms(sigma):
    """hsum_odd as written before the descriptor, summed term by term."""
    s = sigma + 1
    total = ConstExpr.zero
    for j in range(2, s):
        total = total + dzeta_reduce(j, s - j) * Fraction(1, 2 ** (j - 1))
    coef = Fraction(1, 2 ** (s - 1)) - 1
    log2zeta = ConstExpr.generator("log2") * zeta_sym(s - 1)
    total = total - (zeta_s1_reduce(s) - log2zeta * 2) * coef
    return total - zeta_sym(s) * (Fraction(1, 2 ** (s - 2)) - 1)


def _hsum_half_by_terms(s):
    """hsum_half as written before the descriptor, summed term by term."""
    total = zeta_sym(2 * s + 1) * Fraction(5, 2) + zeta_s1_reduce(2 * s + 1) * 2
    for j in range(2, 2 * s + 1):
        term = dzeta_reduce(j, 2 * s + 1 - j)
        total = total + (term if j % 2 == 0 else -term)
    return total * Fraction(1, 2)


@pytest.mark.parametrize("kind, call, by_terms, svals, closed", [
    ("odd_denom", "hsum_odd", _hsum_odd_by_terms, range(2, 20), range(2, 7)),
    ("half_index", "hsum_half", _hsum_half_by_terms, range(1, 11), range(1, 4)),
])
def test_harmonic_descriptors_match_the_term_formulas(kind, call, by_terms, svals, closed):
    for s in svals:
        red = harmonic_reduction(kind, s)
        assert red.is_closed() == (s in closed), s
        try:
            want = by_terms(s)
        except NotReducible as exc:
            # the symbolic walk names the first leftover, as the term loop did
            assert not red.is_closed()
            with pytest.raises(NotReducible) as got:
                reduce_ast(parse_expr(f"{call}({s})"), {})
            assert str(got.value) == str(exc), s
        else:
            assert red.const_part == want, s
            assert reduce_ast(parse_expr(f"{call}({s})"), {}) == want


def test_harmonic_reduction_domain():
    with pytest.raises(DomainError, match=r"^hsum_half\(0\) needs s >= 1$"):
        harmonic_reduction("half_index", 0)
    with pytest.raises(DomainError, match=r"^hsum_odd\(1\) needs s >= 2$"):
        harmonic_reduction("odd_denom", 1)
    with pytest.raises(DomainError, match="unknown harmonic sum kind"):
        harmonic_reduction("even", 3)


def test_alt_values(ctx40):
    assert alt_value_lookup(("2b", "1", 2, 1)) == zeta_sym(3) * Fraction(-1, 8)
    assert alt_value_lookup(("2b", "2b", 2, 2)) == pi_power(4, Fraction(-1, 480))
    li4 = alt_value_lookup(("2b", "1", 2, 2))
    with mp.workdps(60):
        got = numerics.char_dzeta_num("2b", "1", 2, 2, ctx40)
        assert abs(expr_num(li4, ctx40) - got) < mpf(10) ** -38
    with pytest.raises(NotReducible):
        alt_value_lookup(("2b", "1", 3, 1))


def test_weight7_column():
    # a weight-7 entry of the odd-weight theorem, spot-checked against numerics
    D = 50
    with mp.workdps(D + 10):
        expr = dzeta_reduce(5, 2)
        got, _ = numerics._char_em("1", "1", 5, 2, D)
        want, _ = numerics._expr_internal(expr, D)
        assert abs(got - want) < mpf(10) ** -35


def _weight_rows(w: int):
    """Double shuffle rows of the weight-w system over the unknowns
    zeta(j, w-j), j = 2..w-1: for each 2 <= a <= b = w - a the stuffle row
    zeta(a) zeta(b) = zeta(a,b) + zeta(b,a) + zeta(w) and the shuffle row
    zeta(a) zeta(b) = sum_j [C(j-1,a-1) + C(j-1,b-1)] zeta(j, w-j), then
    Euler's zeta(w-1, 1).  At odd weight, and at w <= 6, it determines every
    unknown; its solution is the reference the closed forms must equal."""
    js = list(range(2, w))
    rows = []
    for a in range(2, w // 2 + 1):
        b = w - a
        zz = zeta_sym(a) * zeta_sym(b)
        rows.append(([(j == a) + (j == b) for j in js], zz - zeta_sym(w)))
        rows.append(([comb(j - 1, a - 1) + comb(j - 1, b - 1) for j in js], zz))
    rows.append(([int(j == w - 1) for j in js], zeta_s1_reduce(w)))
    return rows, js


@pytest.mark.parametrize("w", range(3, 13))
def test_double_shuffle_rows_hold_numerically(w):
    """Every stuffle, shuffle and Euler row, past the w <= 7 table scope:
    sum_j c_j zeta(j, w-j) from the Euler-Maclaurin evaluator against the
    exact right side."""
    D = 50
    rows, js = _weight_rows(w)
    with mp.workdps(D + 10):
        dz = {j: numerics._char_em("1", "1", j, w - j, D)[0] for j in js}
        for coeffs, rhs in rows:
            got = sum(c * dz[j] for c, j in zip(coeffs, js))
            want, _ = numerics._expr_internal(rhs, D)
            assert abs(got - want) < mpf(10) ** -45, (w, coeffs)


def _sum_formula_rows(w: int):
    """The rows the tables were first solved from: the reflection pairs, the
    plain and 2^j-weighted sum formulas and, by parity, the alternating-sign
    sum with the even/odd-j sums, or the odd-weight alternating closed form.
    Kept as the reference the double shuffle tables must reproduce."""
    js = list(range(2, w))
    idx = {j: i for i, j in enumerate(js)}
    rows = []

    def row(coef_by_j, rhs):
        coeffs = [Fraction(0)] * len(js)
        for j, c in coef_by_j.items():
            coeffs[idx[j]] += c
        rows.append((coeffs, rhs))

    for a in range(2, w // 2 + 1):
        b = w - a
        cmap = {a: Fraction(1)}
        cmap[b] = cmap.get(b, Fraction(0)) + 1
        row(cmap, zeta_sym(a) * zeta_sym(b) - zeta_sym(w))
    row({j: Fraction(1) for j in js}, zeta_sym(w))
    row({j: Fraction(2**j) for j in js}, zeta_sym(w) * (w + 1))
    if w % 2 == 0:
        row({j: Fraction((-1) ** j) for j in js}, zeta_sym(w) * Fraction(1, 2))
        row({j: Fraction(1) for j in js if j % 2 == 0}, zeta_sym(w) * Fraction(3, 4))
        row({j: Fraction(1) for j in js if j % 2 == 1}, zeta_sym(w) * Fraction(1, 4))
    else:
        s = (w - 1) // 2
        rhs = zeta_sym(w) * (4**s - s - 2)
        for k in range(1, s):
            rhs = rhs - zeta_sym(2 * k) * zeta_sym(w - 2 * k) * (2 * (4 ** (s - k) - 1))
        row({j: Fraction((-1) ** j) for j in js}, rhs)
    return rows, js


@pytest.mark.parametrize("w, nrows", [(3, 1), (4, 3), (5, 3), (6, 5), (7, 5)])
def test_double_shuffle_tables_match_the_sum_formulas(w, nrows):
    rows, js = _weight_rows(w)
    assert len(rows) == nrows
    ref_rows, ref_js = _sum_formula_rows(w)
    assert js == ref_js
    assert _solve_exact_reference(rows, len(js)) == _solve_exact_reference(ref_rows, len(js))


def _solve_exact_reference(rows, nunknowns: int):
    """A forward-elimination-then-back-substitution solve over Q with
    ConstExpr right-hand sides: the double shuffle reference that the closed
    forms of the weight tables must equal."""
    rows = [([Fraction(c) for c in coeffs], rhs) for coeffs, rhs in rows]
    solution: list = [None] * nunknowns
    for col in range(nunknowns):
        pivot = None
        # the col pivot rows so far sit at the end and are not searched again
        for i, (coeffs, _) in enumerate(rows[: len(rows) - col]):
            if coeffs[col]:
                pivot = i
                break
        if pivot is None:
            raise ReductionError(f"rank-deficient system: no pivot for column {col}")
        pcoeffs, prhs = rows.pop(pivot)
        inv = 1 / pcoeffs[col]
        pcoeffs = [c * inv for c in pcoeffs]
        prhs = prhs * inv
        newrows = []
        for coeffs, rhs in rows:
            f = coeffs[col]
            if f:
                coeffs = [c - f * pc for c, pc in zip(coeffs, pcoeffs)]
                rhs = rhs - prhs * f
            newrows.append((coeffs, rhs))
        rows = newrows
        rows.append((pcoeffs, prhs))
    pivots = {}
    leftovers = []
    for coeffs, rhs in rows:
        lead = next((i for i, c in enumerate(coeffs) if c), None)
        if lead is None:
            leftovers.append(rhs)
        else:
            pivots[lead] = (coeffs, rhs)
    for col in range(nunknowns - 1, -1, -1):
        coeffs, rhs = pivots[col]
        val = rhs
        for j in range(col + 1, nunknowns):
            if coeffs[j]:
                val = val - solution[j] * coeffs[j]
        solution[col] = val
    for rhs in leftovers:
        if rhs:
            raise ReductionError("overdetermined system is inconsistent")
    return solution


def test_solve_exact_reference_error_paths():
    z3 = zeta_sym(3)
    with pytest.raises(ReductionError, match="rank-deficient"):
        _solve_exact_reference([([1, 0], z3), ([2, 0], z3 * 2)], 2)
    with pytest.raises(ReductionError, match="inconsistent"):
        _solve_exact_reference([([1, 0], z3), ([0, 1], z3), ([1, 1], z3 * 3)], 2)


@pytest.mark.parametrize("w", [6, *range(5, 24, 2)])
def test_closed_forms_match_the_double_shuffle_solve(w):
    """The odd-weight theorem at every odd w <= 23, and the w = 6 shuffle
    minus stuffle, equal the solved double shuffle system entry by entry;
    through weight 7 so does dzeta_reduce."""
    rows, js = _weight_rows(w)
    want = dict(zip(js, _solve_exact_reference(rows, len(js))))
    assert _closed_form_table(w) == want
    if w <= 7:
        assert {a: dzeta_reduce(a, w - a) for a in js} == want


def test_dzeta_reduce_renders_are_pinned():
    """Every zeta(a, b), a >= 2, b >= 1, a + b <= 7, renders the committed text."""
    golden = (Path(__file__).parent / "data" / "dzeta_reduce_w7.txt").read_text()
    got = "".join(
        f"dz({a},{w - a}) = {dzeta_reduce(a, w - a).render()}\n"
        for w in range(3, 8)
        for a in range(w - 1, 1, -1)
    )
    assert got == golden
