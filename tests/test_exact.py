"""Exact integer/rational layer: Bernoulli, Euler, binomials, the inverse
binomial sums, the rational hypergeometric special value and the
fraction-free linear solver."""
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from mzv.errors import DomainError
from mzv.exact import (
    _rref,
    alternating_binom_sum,
    bernoulli,
    binomial,
    euler_number,
    harmonic,
    harmonic_power,
    hyp2f1_special,
    inv_binomial_sum,
    tangent_number,
)


def bernoulli_akiyama_tanigawa(n):
    """Independent oracle: Akiyama-Tanigawa gives B_1 = +1/2; flip for n = 1."""
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    if n >= 1:
        out[1] = -out[1]
    return out


def test_bernoulli_base_cases():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(3) == 0
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_against_akiyama_tanigawa():
    oracle = bernoulli_akiyama_tanigawa(24)
    for n in range(25):
        assert bernoulli(n) == oracle[n]


def test_bernoulli_against_mpmath():
    for n in (10, 20, 30, 50):
        p, q = mpmath.bernfrac(n)
        assert bernoulli(n) == Fraction(int(p), int(q))


def test_bernoulli_defining_convolution():
    # sum_{k=0}^{n} C(n+1,k) B_k = 0 for n >= 1
    for n in range(1, 41):
        acc = sum(math.comb(n + 1, k) * bernoulli(k) for k in range(n + 1))
        assert acc == 0, n


def test_tangent_fill_equals_defining_convolution(monkeypatch):
    # B_0..B_400 from sum_{k=0}^{m} C(m+1, k) B_k = 0, against the tangent-number
    # table filled by requests in increasing and in decreasing order
    import mzv.exact as exact

    ref = [Fraction(1)]
    for m in range(1, 401):
        ref.append(-sum(math.comb(m + 1, k) * ref[k] for k in range(m) if ref[k]) / (m + 1))
    for order in (range(401), range(400, -1, -1)):
        monkeypatch.setattr(exact, "_bern_cache", [Fraction(1)])
        got = {n: bernoulli(n) for n in order}
        assert [got[n] for n in range(401)] == ref


def test_tangent_numbers_against_tan_series(monkeypatch):
    # T_n (2n-1)! is the x^(2n-1) coefficient of tan x; the table is grown
    # one column at a time, so fill it in increasing and decreasing order
    import mzv.exact as exact

    with mpmath.workdps(120):
        coefs = mpmath.taylor(mpmath.tan, 0, 41)
        want = [0] + [int(mpmath.nint(coefs[2 * n - 1] * mpmath.factorial(2 * n - 1))) for n in range(1, 21)]
    assert want[:5] == [0, 1, 2, 16, 272]
    for order in (range(21), range(20, -1, -1)):
        monkeypatch.setattr(exact, "_tangent_cache", [0, 1])
        monkeypatch.setattr(exact, "_tangent_col", [0, 1])
        got = {n: tangent_number(n) for n in order}
        assert [got[n] for n in range(21)] == want
    with pytest.raises(DomainError):
        tangent_number(-1)


def test_euler_numbers():
    assert euler_number(0) == 1
    assert euler_number(1) == 0
    assert euler_number(2) == -1
    assert euler_number(4) == 5
    assert euler_number(7) == 0
    assert euler_number(10) == -50521


def test_euler_against_secant_series():
    with mpmath.workdps(80):
        coefs = mpmath.taylor(mpmath.sec, 0, 17)
        for k in range(0, 9):
            magnitude = int(mpmath.nint(coefs[2 * k] * mpmath.factorial(2 * k)))
            expected = magnitude if k % 2 == 0 else -magnitude
            assert euler_number(2 * k) == expected


def test_binomial():
    assert binomial(4, 2) == 6
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(30, 15) == math.factorial(30) // math.factorial(15) ** 2


def test_harmonic():
    assert harmonic(0) == 0
    assert harmonic(4) == Fraction(25, 12)
    assert harmonic_power(3, 2) == 1 + Fraction(1, 4) + Fraction(1, 9)
    assert harmonic_power(0, 3) == 0


def test_harmonic_power_negative_index_is_a_domain_error():
    with pytest.raises(DomainError, match=r"^harmonic number H_-1\^\(2\): the index must be >= 0$"):
        harmonic_power(-1, 2)
    # harmonic is the b = 1 case and keeps its own text
    with pytest.raises(DomainError, match=r"^harmonic number H_-2: the index must be >= 0$"):
        harmonic(-2)


def test_inv_binomial_sum_values():
    assert inv_binomial_sum(3, 3) == 0
    assert inv_binomial_sum(4, 4) == Fraction(5, 3)
    assert inv_binomial_sum(4, 1) == Fraction(3, 4)


@pytest.mark.parametrize("n", range(1, 31))
def test_inv_binomial_closed_form(n):
    # ((n+1)! + (-1)^m (m+1)! (n-m)!) / ((n+2) n!)
    for m in range(n + 1):
        want = Fraction(
            math.factorial(n + 1) + (-1) ** m * math.factorial(m + 1) * math.factorial(n - m),
            (n + 2) * math.factorial(n),
        )
        assert inv_binomial_sum(n, m) == want


@pytest.mark.parametrize("n, m", [(3, 4), (3, -1), (-1, 0)])
def test_inv_binomial_sum_out_of_range_is_a_domain_error(n, m):
    with pytest.raises(DomainError, match=rf"^inv_binomial_sum\({n}, {m}\) needs 0 <= m <= n$"):
        inv_binomial_sum(n, m)


def test_hyp2f1_special_small():
    assert hyp2f1_special(1) == Fraction(5, 12)
    assert hyp2f1_special(3) == Fraction(209, 560)


@pytest.mark.parametrize("n", [0, -2])
def test_hyp2f1_special_below_one_is_a_domain_error(n):
    with pytest.raises(DomainError, match=rf"^hyp2f1_special\({n}\) needs n >= 1$"):
        hyp2f1_special(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_hyp2f1_special_against_mpmath(n):
    # independent evaluation of 2F1(1, 2n+2; n+2; -1) by analytic continuation
    with mpmath.workdps(40):
        want = mpmath.hyp2f1(1, 2 * n + 2, n + 2, -1)
        got = hyp2f1_special(n)
        assert abs(want - mpmath.mpf(got.numerator) / got.denominator) < mpmath.mpf(10) ** -30


def test_celine_recursion():
    # 4 f(n) - 2 f(n-1) = 3 (-1)^n C(2n, n) with f(n) = sum_k (-1)^k C(n+k, k)
    assert alternating_binom_sum(1) == -1
    for n in range(2, 21):
        lhs = 4 * alternating_binom_sum(n) - 2 * alternating_binom_sum(n - 1)
        assert lhs == 3 * (-1) ** n * math.comb(2 * n, n)


def test_miki_recursion():
    # sum_k [1 - C(2n,2k)] B_2k B_{2n-2k} / ((2k)(2n-2k)) = H_2n/n B_2n
    for n in range(2, 26):
        acc = Fraction(0)
        for k in range(1, n):
            acc += (
                (1 - math.comb(2 * n, 2 * k))
                * bernoulli(2 * k)
                * bernoulli(2 * n - 2 * k)
                / ((2 * k) * (2 * n - 2 * k))
            )
        assert acc == harmonic(2 * n) / n * bernoulli(2 * n), n


def test_twin_recursion():
    # sum_k [n - C(2n,2k)] B_2k B_{2n-2k-2} = (n-1)(2n-1) B_{2n-2}
    for n in range(3, 26):
        acc = Fraction(0)
        for k in range(1, n - 1):
            acc += (n - math.comb(2 * n, 2 * k)) * bernoulli(2 * k) * bernoulli(2 * n - 2 * k - 2)
        assert acc == (n - 1) * (2 * n - 1) * bernoulli(2 * n - 2), n


def test_rational_normal_form():
    v = inv_binomial_sum(6, 3)
    assert v.denominator > 0
    assert math.gcd(v.numerator, v.denominator) == 1


# ---------------------------------------------------------------------------
# the fraction-free solver against Fraction Gauss-Jordan
# ---------------------------------------------------------------------------


def _rref_reference(aug, ncols):
    """Fraction Gauss-Jordan in place over the first ncols columns, the
    elimination `_rref` replaced (the pivot inverse taken as a Fraction, so
    integer input works too): returns the pivot columns, whose rows come
    first with a leading 1."""
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / Fraction(aug[r][c])
        aug[r] = [x * inv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    return pivots


_entry = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
    st.just(0),
)


@st.composite
def _systems(draw):
    """(aug, ncols): up to 6 rational rows over up to 5 eliminated columns
    and up to 3 columns riding along.  Some rows are zero and some are
    rational combinations of earlier rows, so rank deficiency is common."""
    ncols = draw(st.integers(0, 5))
    ntail = draw(st.integers(0, 3))
    aug = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["random", "zero", "combination"] if aug else ["random", "zero"]))
        if kind == "zero":
            row = [0] * (ncols + ntail)
        elif kind == "combination":
            a, b = draw(st.sampled_from(aug)), draw(st.sampled_from(aug))
            la, lb = draw(_entry), draw(_entry)
            row = [x * la + y * lb for x, y in zip(a, b)]
        else:
            row = [draw(_entry) for _ in range(ncols + ntail)]
        aug.append(row)
    return aug, ncols


@given(_systems())
@settings(max_examples=150, deadline=None)
def test_rref_matches_fraction_gauss_jordan(system):
    aug, ncols = system
    got, want = [row[:] for row in aug], [row[:] for row in aug]
    pivots = _rref(got, ncols)
    assert pivots == _rref_reference(want, ncols)
    rank = len(pivots)
    assert got[:rank] == want[:rank]  # the reduced rows, exactly
    for g, w in zip(got[rank:], want[rank:]):
        # the rows past the pivots: zero on the eliminated columns, integer
        # nonzero multiples of the Gauss-Jordan rows after them
        assert not any(g[:ncols]) and all(type(x) is int for x in g)
        k = next((Fraction(x) / y for x, y in zip(g, w) if y), None)
        assert k != 0
        assert g == [y * k for y in w] if k is not None else not any(g)


def test_rref_integer_rows_stay_integers():
    aug = [[2, 4, 1, 0], [3, 7, 0, 1], [5, 11, 0, 0]]
    assert _rref(aug, 2) == [0, 1]
    assert aug[:2] == [[1, 0, Fraction(7, 2), -2], [0, 1, Fraction(-3, 2), 1]]
    # the last pivot, det [[2, 4], [3, 7]] = 2, times the Gauss-Jordan row [0, 0, -1, -1]
    assert aug[2] == [0, 0, -2, -2]
    assert all(type(x) is int for x in aug[2])
