"""Symbolic constant expressions: normal form, ring laws, closed forms."""
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

import mzv
from mzv.errors import DomainError, NotReducible
from mzv.numerics import dzeta_num, char_dzeta_num, expr_num
from mzv.symexpr import (
    PI, LOG2, LI4H, ConstExpr, L_sym, beta_sym, pi_power, zeta_even_coef, zeta_gen, zeta_sym,
)


def test_zeta_sym_even():
    assert zeta_sym(2) == pi_power(2, Fraction(1, 6))
    assert zeta_sym(4) == pi_power(4, Fraction(1, 90))
    assert zeta_sym(6) == pi_power(6, Fraction(1, 945))
    assert zeta_sym(12) == pi_power(12, Fraction(691, 638512875))


def test_zeta_even_coef_is_the_pi_power_coefficient_of_zeta_sym():
    assert zeta_even_coef(1) == Fraction(1, 6)
    for n in range(1, 31):
        assert zeta_even_coef(n) == zeta_sym(2 * n).coefficient(((PI, 2 * n),))
    with mp.workdps(60):
        for n in (1, 7, 30):
            c = zeta_even_coef(n)
            want = mp.zeta(2 * n) / mp.pi ** (2 * n)
            assert abs(mp.mpf(c.numerator) / c.denominator - want) < mp.mpf(10) ** -50 * want


def test_items_keep_the_formation_order_and_give_fractions():
    z2z3, z5 = ((PI, 2), (("z", 3), 1)), ((("z", 5), 1),)
    e = ConstExpr({z5: 3, (): 0, z2z3: Fraction(-1, 2)})
    assert list(e.items()) == [(z5, Fraction(3)), (z2z3, Fraction(-1, 2))]
    assert all(type(c) is Fraction for _, c in e.items())
    e = zeta_sym(2) * zeta_sym(3) + zeta_sym(5) * 7
    assert [m for m, _ in e.items()] == [z2z3, z5]
    assert [m for m, _ in (zeta_sym(5) * 7 + zeta_sym(2) * zeta_sym(3)).items()] == [z5, z2z3]
    assert all(type(c) is Fraction for _, c in e.items())


def test_only_symexpr_reads_the_coefficient_map():
    """Other modules go through ConstExpr's methods, so its storage can change
    inside symexpr alone."""
    readers = [p.name for p in sorted(Path(mzv.__file__).parent.glob("*.py"))
               if ".terms" in p.read_text() and p.name != "symexpr.py"]
    assert readers == []


def test_zeta_sym_odd_is_generator():
    z5 = zeta_sym(5)
    assert z5 == ConstExpr.generator(("z", 5))
    assert z5.render() == "z5"


def test_zeta_sym_domain_error():
    # a typed error (DomainError is a ValueError), so the CLI reports bad input
    for s in (1, 0, -3):
        with pytest.raises(DomainError, match=rf"zeta_sym\({s}\) needs s >= 2"):
            zeta_sym(s)


def test_beta_sym():
    assert beta_sym(1) == pi_power(1, Fraction(1, 4))
    assert beta_sym(3) == pi_power(3, Fraction(1, 32))
    assert beta_sym(5) == pi_power(5, Fraction(5, 1536))
    with pytest.raises(NotReducible):
        beta_sym(2)


def test_L_sym():
    assert L_sym("2b", 3) == zeta_sym(3) * Fraction(3, 4)
    assert L_sym("2a", 2) == pi_power(2, Fraction(1, 8))
    with pytest.raises(NotReducible):
        L_sym("m4", 4)
    with pytest.raises(NotReducible):
        L_sym("2b", 1)


def test_L_sym_unknown_character_is_a_domain_error():
    with pytest.raises(DomainError, match="unknown character 'x'"):
        L_sym("x", 3)


def test_product_of_even_zetas_is_single_monomial():
    e = zeta_sym(4) * zeta_sym(6)
    assert e == pi_power(10, Fraction(1, 90 * 945))
    assert len(e.terms) == 1


def test_render_and_arithmetic():
    e = zeta_sym(2) * zeta_sym(3) * 3 - zeta_sym(5) * Fraction(11, 2)
    assert e.render() == "1/2*pi^2*z3 - 11/2*z5"
    assert (e - e) == ConstExpr.zero
    assert ConstExpr.zero.render() == "0"


def test_divide_exact():
    e = pi_power(6, Fraction(1, 2)) + pi_power(4, 3) * ConstExpr.generator(("z", 3))
    q = e.divide_exact(pi_power(4))
    assert q == pi_power(2, Fraction(1, 2)) + ConstExpr.generator(("z", 3)) * 3
    with pytest.raises(NotReducible):
        e.divide_exact(pi_power(7))
    with pytest.raises(NotReducible):
        e.divide_exact(e)


def test_division_negative_powers_and_abs_are_exact_or_not_reducible():
    """Negative powers and a rational divided by an expression go through
    divide_exact; abs takes rational values only."""
    assert ConstExpr.rational(Fraction(-2, 3)) ** -3 == ConstExpr.rational(Fraction(-27, 8))
    assert ConstExpr.rational(4) ** -2 == ConstExpr.rational(Fraction(1, 16))
    assert Fraction(1, 2) / ConstExpr.rational(4) == ConstExpr.rational(Fraction(1, 8))
    assert 0 / zeta_sym(3) == ConstExpr.zero
    assert abs(ConstExpr.rational(Fraction(-5, 7))) == ConstExpr.rational(Fraction(5, 7))
    assert abs(ConstExpr.zero) == ConstExpr.zero
    with pytest.raises(NotReducible, match="monomial not divisible"):
        zeta_sym(2) ** -1
    with pytest.raises(NotReducible, match="monomial not divisible"):
        2 / zeta_sym(3)
    with pytest.raises(NotReducible, match="division only by single-term expressions"):
        1 / (zeta_sym(3) + 1)
    with pytest.raises(NotReducible, match="expression is not rational"):
        abs(ConstExpr.generator(PI))


@pytest.mark.parametrize("divide", [
    lambda: zeta_sym(3) / ConstExpr.zero,
    lambda: 1 / ConstExpr.zero,
    lambda: ConstExpr.zero ** -1,
    lambda: zeta_sym(3) / 0,
    lambda: Fraction(1, 2) / ConstExpr.zero,
], ids=["expr/zero", "int/zero", "zero**-1", "expr/0", "fraction/zero"])
def test_division_by_zero_is_zero_division_error(divide):
    """Every division by a zero ConstExpr raises what x / 0 raises, not
    NotReducible (which verify_symbolic reports as numeric-only)."""
    with pytest.raises(ZeroDivisionError, match="division of ConstExpr by zero"):
        divide()


@pytest.mark.parametrize("k", [2, 1, 0, -3])
def test_zeta_generator_index_is_a_domain_error(k):
    with pytest.raises(DomainError, match=f"odd with index >= 3, got {k}"):
        zeta_gen(k)


_small = st.integers(min_value=-4, max_value=4)
_gens = st.sampled_from([PI, LOG2, LI4H, ("z", 3), ("z", 5)])


@st.composite
def const_exprs(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    terms = []
    for _ in range(n):
        g = draw(_gens)
        e = draw(st.integers(min_value=1, max_value=2))
        c = Fraction(draw(_small), draw(st.integers(min_value=1, max_value=3)))
        terms.append(((((g, e),)), c))
    out = ConstExpr.zero
    for mono, c in terms:
        out = out + ConstExpr({mono: c})
    return out


@given(const_exprs(), const_exprs(), const_exprs())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ConstExpr.zero == a
    assert a * ConstExpr.rational(1) == a
    assert a - a == ConstExpr.zero


def test_expr_num_matches_numerics(ctx40):
    e = pi_power(4, Fraction(1, 120))
    with mp.workdps(60):
        assert abs(expr_num(e, ctx40) - dzeta_num(2, 2, ctx40)) < mp.mpf(10) ** -39
    assert expr_num(ConstExpr.zero, ctx40) == 0


def test_expr_num_of_a_non_expression_is_a_domain_error(ctx40):
    with pytest.raises(DomainError, match="expr_num needs a ConstExpr, got int"):
        expr_num(3, ctx40)


def test_expr_num_alternating_value(ctx40):
    # pi^2 log2 / 4 - zeta(3) equals the inner-alternating (2,1) value
    e = ConstExpr({((PI, 2), (LOG2, 1)): Fraction(1, 4)}) - zeta_sym(3)
    with mp.workdps(60):
        got = char_dzeta_num("1", "2b", 2, 1, ctx40)
        assert abs(expr_num(e, ctx40) - got) < mp.mpf(10) ** -39


def test_numeric_screen_of_normal_form(ctx40):
    # distinct normal forms disagree numerically, equal ones agree
    e1 = zeta_sym(2) ** 2
    e2 = zeta_sym(4) * Fraction(5, 2)
    assert e1 == e2
    with mp.workdps(60):
        assert abs(expr_num(e1, ctx40) - expr_num(e2, ctx40)) < mp.mpf(10) ** -39
    e3 = e2 + ConstExpr.rational(Fraction(1, 10**6))
    assert e1 != e3
    with mp.workdps(60):
        assert abs(expr_num(e1, ctx40) - expr_num(e3, ctx40)) > mp.mpf(10) ** -7


def test_memoized_constants_are_not_mutated():
    """zeta_sym and zeta_s1_reduce hand out shared instances; arithmetic on
    them must build new expressions."""
    from mzv.reductions import zeta_s1_reduce

    z3, z4 = zeta_sym(3), zeta_sym(4)
    z3_terms, z4_terms = dict(z3.terms), dict(z4.terms)
    assert zeta_sym(3) is z3
    doubled = zeta_sym(3) + zeta_sym(3)
    scaled = zeta_sym(4) * 2
    assert doubled == ConstExpr.generator(("z", 3)) * 2
    assert scaled == pi_power(4, Fraction(1, 45))
    assert zeta_sym(3).terms == z3_terms and zeta_sym(4).terms == z4_terms
    assert zeta_sym(4) == pi_power(4, Fraction(1, 90))
    s5 = zeta_s1_reduce(5)
    s5_terms = dict(s5.terms)
    _ = s5 - zeta_sym(5) * 2
    assert zeta_s1_reduce(5) is s5 and s5.terms == s5_terms
