"""Exact closed-form reductions: zeta(n,1) at every weight, the diagonals
zeta(a,a), all double zeta values of weight <= 7, and the small tabulated
alternating values.

Witten double sums (through their recursion, numerics.witten_terms) and the
two harmonic-number sums reduce to one descriptor, a WittenReduction: an exact
ConstExpr part plus the double zetas that dzeta_reduce does not close, with
rational coefficients.  The symbolic walk reads it; numerics evaluates every
sum without it, so a numeric verify checks these closed forms.

The weight-w table is the unique solution of an exact linear system over
ConstExpr built from double shuffle alone: the stuffle and shuffle products
zeta(a) zeta(b), a + b = w, and Euler's zeta(w-1, 1).  None of the weighted
sum formulas the corpus states is assumed.  A redundant row (one at each even
weight) is kept and checked for exact consistency; any rank deficiency is a
hard error, never silently patched.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from mpmath import mp, mpf

from . import numerics
from .errors import DomainError, NotReducible, ReductionError
from .exact import _rref
from .symexpr import LI4H, LOG2, PI, ConstExpr, zeta_sym

_VERIFY_PREC = 40
_VERIFY_TOL_EXP = 35  # residual <= 10^-(P-5) at P = 40


@functools.cache
def zeta_s1_reduce(s: int) -> ConstExpr:
    """Closed form of zeta(s-1, 1) for s >= 3, valid at every weight:

        zeta(s-1, 1) = (s-1)/2 zeta(s) - 1/2 sum_{j=2}^{s-2} zeta(j) zeta(s-j).
    """
    if s < 3:
        raise DomainError("zeta_s1_reduce needs s >= 3")
    out = zeta_sym(s) * Fraction(s - 1, 2)
    for j in range(2, s - 1):
        out = out - zeta_sym(j) * zeta_sym(s - j) * Fraction(1, 2)
    return out


def _solve_exact(rows, nunknowns: int):
    """Exact solve over Q with ConstExpr right-hand sides b.  The shared
    Gauss-Jordan routine eliminates the rational rows [A | I] to [R | E];
    the rows of E then combine b.  The system must determine every unknown,
    and every leftover row of E must send b to 0 exactly."""
    aug = [list(coeffs) + [int(k == i) for k in range(len(rows))] for i, (coeffs, _) in enumerate(rows)]
    pivots = _rref(aug, nunknowns)
    if len(pivots) != nunknowns:
        col = next(c for c in range(nunknowns) if c not in pivots)
        raise ReductionError(f"rank-deficient system: no pivot for column {col}")
    rhs = [b for _, b in rows]
    sol = [sum((b * t for t, b in zip(row[nunknowns:], rhs) if t), ConstExpr.zero) for row in aug]
    if any(sol[nunknowns:]):
        raise ReductionError("overdetermined system is inconsistent")
    return sol[:nunknowns]


def _weight_rows(w: int):
    """Double shuffle rows of the weight-w system over the unknowns
    zeta(j, w-j), j = 2..w-1: for each 2 <= a <= b = w - a the stuffle row
    zeta(a) zeta(b) = zeta(a,b) + zeta(b,a) + zeta(w) and the shuffle row
    zeta(a) zeta(b) = sum_j [C(j-1,a-1) + C(j-1,b-1)] zeta(j, w-j), then
    Euler's zeta(w-1, 1)."""
    js = list(range(2, w))
    rows = []
    for a in range(2, w // 2 + 1):
        b = w - a
        zz = zeta_sym(a) * zeta_sym(b)
        rows.append(([(j == a) + (j == b) for j in js], zz - zeta_sym(w)))
        rows.append(([comb(j - 1, a - 1) + comb(j - 1, b - 1) for j in js], zz))
    rows.append(([int(j == w - 1) for j in js], zeta_s1_reduce(w)))
    return rows, js


@dataclass
class WittenReduction:
    """A rational combination of zeta values, log 2 zeta values and double
    zetas: the exact const_part plus leftover double zetas, (a, b) -> rational
    coefficient.  add_dz folds every zeta(a, b) that dzeta_reduce closes into
    const_part, so a leftover is one it does not close (weight > 7, b >= 2,
    a != b), kept in the order first added.  W(r,s,t), hsum_odd(s) and
    hsum_half(s) each reduce to one; the symbolic walk reads it."""

    const_part: ConstExpr = field(default_factory=lambda: ConstExpr.zero)
    dz_terms: dict = field(default_factory=dict)

    def add_dz(self, a: int, b: int, coef: Fraction):
        try:
            closed = dzeta_reduce(a, b)
        except NotReducible:
            cur = self.dz_terms.get((a, b), Fraction(0)) + coef
            if cur:
                self.dz_terms[(a, b)] = cur
            else:
                self.dz_terms.pop((a, b), None)
            return
        self.const_part = self.const_part + closed * coef

    def is_closed(self) -> bool:
        return not self.dz_terms


class ReductionTable:
    """Memoized reductions; double-zeta and alternating entries are verified
    numerically at insertion (P = 40, residual <= 10^-35) against the
    independent Euler-Maclaurin evaluator.

    Single-threaded, like the numerics it verifies against: mpmath's working
    precision is process-global, so no lock here could make that check safe
    across threads."""

    def __init__(self):
        self._dz_tables: dict = {}
        self._alt: dict = {}
        self._witten: dict = {}

    # -- double zeta -------------------------------------------------------
    def dz_table(self, w: int) -> dict:
        if w in self._dz_tables:
            return self._dz_tables[w]
        rows, js = _weight_rows(w)
        sol = _solve_exact(rows, len(js))
        table = {j: sol[i] for i, j in enumerate(js)}
        for j, expr in table.items():
            _verify_against_em(expr, ("1", "1", j, w - j))
        self._dz_tables[w] = table
        return table

    # -- alternating small values -------------------------------------------
    def alt_value(self, key) -> ConstExpr:
        if key in self._alt:
            return self._alt[key]
        expr = _ALT_VALUES.get(key)
        if expr is None:
            raise NotReducible(f"no tabulated closed form for {key}")
        _verify_against_em(expr, key)
        self._alt[key] = expr
        return expr

    # -- witten --------------------------------------------------------------
    def witten(self, r: int, s: int, t: int) -> WittenReduction:
        key = (r, s, t)
        if key in self._witten:
            return self._witten[key]
        red = WittenReduction()
        for (kind, a, b), coef in numerics.witten_terms(r, s, t).items():
            c = Fraction(coef)
            if kind == "zz":
                red.const_part = red.const_part + zeta_sym(a) * zeta_sym(b) * c
            elif b == 0:
                red.const_part = red.const_part + (zeta_sym(a - 1) - zeta_sym(a)) * c
            else:
                red.add_dz(a, b, c)
        self._witten[key] = red
        return red


def _verify_against_em(expr: ConstExpr, char_key):
    D = _VERIFY_PREC + 10
    p, q, s, t = char_key
    got, gb = numerics._char_em(p, q, s, t, D)
    want, wb = numerics._expr_internal(expr, D)
    with mp.workdps(D):
        resid = abs(got - want)
        if resid > mpf(10) ** (-_VERIFY_TOL_EXP):
            raise ReductionError(
                f"table entry for {char_key} fails numeric verification: residual {mp.nstr(resid, 3)}"
            )


_LOG2 = ConstExpr.generator(LOG2)
_PI = ConstExpr.generator(PI)

# the tabulated alternating double zeta closed forms, checked against the EM
# evaluator at first lookup (ReductionTable.alt_value)
_ALT_VALUES = {
    ("2b", "1", 2, 1): zeta_sym(3) * Fraction(-1, 8),
    ("1", "2b", 2, 1): _PI**2 * _LOG2 * Fraction(1, 4) - zeta_sym(3),
    ("2b", "2b", 2, 1): _PI**2 * _LOG2 * Fraction(1, 4) - zeta_sym(3) * Fraction(13, 8),
    ("2b", "1", 2, 2): (
        _LOG2**4 * Fraction(1, 6)
        - _LOG2**2 * _PI**2 * Fraction(1, 6)
        + _LOG2 * zeta_sym(3) * Fraction(7, 2)
        - _PI**4 * Fraction(13, 288)
        + ConstExpr.generator(LI4H) * 4
    ),
    ("2b", "2b", 2, 2): zeta_sym(4) * Fraction(-3, 16),
}

_TABLE = ReductionTable()


def dzeta_reduce(a: int, b: int) -> ConstExpr:
    """Exact closed form of zeta(a, b) for a >= 2, b >= 1, a+b <= 7.

    Weight 8 and beyond raises NotReducible (zeta(5,3) is the canonical
    conjecturally-irreducible case), except b = 1 which closes at any weight.
    """
    if a < 2 or b < 1:
        raise DomainError("dzeta_reduce needs a >= 2, b >= 1")
    if b == 1:
        return zeta_s1_reduce(a + 1)
    if a == b:
        # the diagonal closes at every weight by reflection alone
        return (zeta_sym(a) * zeta_sym(a) - zeta_sym(2 * a)) * Fraction(1, 2)
    if a + b > 7:
        raise NotReducible(f"zeta({a},{b}) has weight {a+b} > 7")
    return _TABLE.dz_table(a + b)[a]


def alt_value_lookup(key) -> ConstExpr:
    """The tabulated alternating double zeta closed forms, keyed by
    (p, q, s, t) character tuples; everything else raises NotReducible."""
    return _TABLE.alt_value(tuple(key))


def witten_reduce(r: int, s: int, t: int):
    """Expand W(r,s,t) through W(r,s,t) = W(r-1,s,t+1) + W(r,s-1,t+1) down to
    the boundary values.  Returns a ConstExpr when every double zeta closes
    (always at total weight <= 7), otherwise the WittenReduction with its
    leftovers."""
    red = _TABLE.witten(r, s, t)
    if red.is_closed():
        return red.const_part
    return red


def witten_reduction(r: int, s: int, t: int) -> WittenReduction:
    """Always-structured form of witten_reduce (used by the symbolic walk)."""
    return _TABLE.witten(r, s, t)


@functools.cache
def harmonic_reduction(kind: str, s: int) -> WittenReduction:
    """The descriptor of a harmonic-number sum.

    'half_index', s >= 1 (hsum_half):
        sum_{n>=1} H_2n / n^2s = 5/4 zeta(2s+1) + zeta(2s,1)
                                 + 1/2 sum_{j=2}^{2s} (-1)^j zeta(j, 2s+1-j);
    'odd_denom', s >= 2 (hsum_odd), from the weight-1/2 lemma at w = s+1:
        sum_{n>=0} H_n / (2n+1)^s = sum_{j=2}^{w-1} 2^(1-j) zeta(j, w-j)
            - (2^(1-w) - 1)(zeta(w-1,1) - 2 log2 zeta(w-1)) - (2^(2-w) - 1) zeta(w).
    Leftovers are added in j order.  The descriptor is memoized and shared,
    so callers do not change it.
    """
    numerics.harmonic_domain(kind, s)
    red = WittenReduction()
    if kind == "half_index":
        w = 2 * s + 1
        red.const_part = zeta_sym(w) * Fraction(5, 4) + zeta_s1_reduce(w)
        for j in range(2, w):
            red.add_dz(j, w - j, Fraction(1 if j % 2 == 0 else -1, 2))
    else:
        w = s + 1
        log2zeta = ConstExpr.generator(LOG2) * zeta_sym(w - 1)
        red.const_part = ((zeta_s1_reduce(w) - log2zeta * 2) * (1 - Fraction(1, 2 ** (w - 1)))
                          - zeta_sym(w) * (Fraction(1, 2 ** (w - 2)) - 1))
        for j in range(2, w):
            red.add_dz(j, w - j, Fraction(1, 2 ** (j - 1)))
    return red
