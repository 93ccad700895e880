"""Exact symbolic constants: rational linear combinations of monomials in
pi, log 2, odd zeta values and Li_4(1/2).

The generators are treated as algebraically independent over Q, so a
ConstExpr is zero iff its coefficient map is empty; equality is map equality.
Even zeta values and odd beta values are eagerly rewritten into pi-powers and
never appear as generators.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import DomainError, NotReducible, require_ints
from .exact import bernoulli, euler_number

# A generator is 'pi', 'log2', 'li4h' or ('z', k) with odd k >= 3.
PI = "pi"
LOG2 = "log2"
LI4H = "li4h"


def zeta_gen(k: int):
    if k < 3 or k % 2 == 0:
        raise DomainError(f"zeta generators are odd with index >= 3, got {k}")
    return ("z", k)


def _gen_key(g):
    if g == PI:
        return (0, 0)
    if g == LOG2:
        return (1, 0)
    if g == LI4H:
        return (2, 0)
    return (3, g[1])


def _gen_name(g) -> str:
    return g if isinstance(g, str) else f"z{g[1]}"


def _mono_key(mono):
    return tuple((_gen_key(g), e) for g, e in mono)


class ConstExpr:
    """Finite map monomial -> rational, in normal form (zero coefficients removed).

    Division and negative integer powers are exact division (`divide_exact`)
    and abs takes rational values only; otherwise they raise NotReducible,
    and ZeroDivisionError for a zero divisor.

    Immutable by convention: every operation returns a new expression and no
    code changes ``terms`` after construction, so one instance may be shared
    (``ConstExpr.zero``, the memoized ``zeta_sym`` and ``zeta_s1_reduce``)."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        """From a map monomial -> rational; zero coefficients are dropped."""
        self.terms = {mono: Fraction(c) for mono, c in terms.items() if c}

    # -- constructors -----------------------------------------------------
    @staticmethod
    def rational(c) -> "ConstExpr":
        return ConstExpr({(): Fraction(c)})

    @staticmethod
    def generator(g, exp: int = 1) -> "ConstExpr":
        return ConstExpr({((g, exp),): Fraction(1)})

    zero = None  # set after class definition

    # -- ring operations ---------------------------------------------------
    def __add__(self, other) -> "ConstExpr":
        other = _coerce(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            new = out.get(mono, Fraction(0)) + c
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self) -> "ConstExpr":
        return _raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other) -> "ConstExpr":
        other = _coerce(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                new = out.get(mono, Fraction(0)) + c1 * c2
                if new:
                    out[mono] = new
                else:
                    out.pop(mono, None)
        return _raw(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other:
            return _raw({m: c / other for m, c in self.terms.items()})
        return self.divide_exact(_coerce(other))

    def __rtruediv__(self, other):
        return _coerce(other).divide_exact(self)

    def __pow__(self, k: int) -> "ConstExpr":
        if k < 0:
            return ConstExpr.rational(1).divide_exact(self**-k)
        out = ConstExpr.rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divide_exact(self, other: "ConstExpr") -> "ConstExpr":
        """Exact division, defined only when the divisor is a single term and
        every numerator monomial is divisible by it; ZeroDivisionError for a
        zero divisor."""
        if not other.terms:
            raise ZeroDivisionError("division of ConstExpr by zero")
        if len(other.terms) != 1:
            raise NotReducible("division only by single-term expressions")
        (dmono, dcoef), = other.terms.items()
        dmap = dict(dmono)
        out = {}
        for mono, c in self.terms.items():
            mmap = dict(mono)
            for g, e in dmap.items():
                if mmap.get(g, 0) < e:
                    raise NotReducible("monomial not divisible")
                left = mmap[g] - e
                if left:
                    mmap[g] = left
                else:
                    del mmap[g]
            out[_normalize_mono(mmap)] = c / dcoef
        return _raw(out)

    # -- queries -----------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ConstExpr.rational(other)
        return isinstance(other, ConstExpr) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __abs__(self) -> "ConstExpr":
        return ConstExpr.rational(abs(self.rational_value()))

    def is_rational(self) -> bool:
        return all(m == () for m in self.terms)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise NotReducible("expression is not rational")
        return self.terms.get((), Fraction(0))

    def coefficient(self, mono) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def items(self):
        """The (monomial, Fraction coefficient) pairs in the order the terms
        were formed, which fixes the order a numeric sum adds them in."""
        return self.terms.items()

    def monomials(self):
        return sorted(self.terms, key=_mono_key)

    # -- rendering ----------------------------------------------------------
    def render(self, num=str) -> str:
        """Canonical text form, e.g. '1/2*pi^2*z3 - 11/2*z5'; num writes each
        coefficient's magnitude."""
        if not self.terms:
            return "0"
        parts = []
        for mono in self.monomials():
            c = self.terms[mono]
            body = "*".join(
                _gen_name(g) + (f"^{e}" if e > 1 else "") for g, e in mono
            )
            mag = abs(c)
            if body:
                coef = "" if mag == 1 else f"{num(mag)}*"
                text = coef + body
            else:
                text = num(mag)
            if not parts:
                parts.append(("-" if c < 0 else "") + text)
            else:
                parts.append(("- " if c < 0 else "+ ") + text)
        return " ".join(parts)

    def __repr__(self):
        return f"ConstExpr({self.render()})"


def _raw(terms: dict) -> ConstExpr:
    e = ConstExpr.__new__(ConstExpr)
    e.terms = terms
    return e


def _coerce(x) -> ConstExpr:
    if isinstance(x, ConstExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return ConstExpr.rational(x)
    raise TypeError(f"cannot coerce {type(x)!r} to ConstExpr")


def _normalize_mono(mmap: dict):
    return tuple(sorted(mmap.items(), key=lambda it: _gen_key(it[0])))


def _mono_mul(m1, m2):
    mmap = dict(m1)
    for g, e in m2:
        mmap[g] = mmap.get(g, 0) + e
    return _normalize_mono(mmap)


ConstExpr.zero = _raw({})


def pi_power(k: int, coef=1) -> ConstExpr:
    return ConstExpr({((PI, k),): Fraction(coef)}) if k else ConstExpr.rational(coef)


@functools.cache
def zeta_even_coef(n: int) -> Fraction:
    """zeta(2n) / pi^(2n), from 2*(2n)! zeta(2n) = (-1)^(n+1) (2 pi)^(2n) B_2n."""
    return (-1) ** (n + 1) * 4**n * bernoulli(2 * n) / (2 * math.factorial(2 * n))


@functools.lru_cache(maxsize=None, typed=True)  # typed: 2.0 and True miss, and are refused
def zeta_sym(s: int) -> ConstExpr:
    """zeta(s) as a ConstExpr: zeta_even_coef(s/2)*pi^s for even s, the z_s
    generator for odd s."""
    require_ints("zeta_sym", s=s)
    if s < 2:
        raise DomainError(f"zeta_sym({s}) needs s >= 2")
    if s % 2 == 0:
        return pi_power(s, zeta_even_coef(s // 2))
    return ConstExpr.generator(zeta_gen(s))


def beta_sym(s: int) -> ConstExpr:
    """beta(s) for odd s as rational*pi^s, via 2*(2n)! beta(2n+1) = (-1)^n (pi/2)^(2n+1) E_2n."""
    require_ints("beta_sym", s=s)
    if s < 1 or s % 2 == 0:
        raise NotReducible("beta has a closed form only at odd arguments here")
    n = (s - 1) // 2
    coef = Fraction((-1) ** n * euler_number(2 * n), 2 ** (2 * n + 2))
    for i in range(2, 2 * n + 1):
        coef /= i
    return pi_power(s, coef)


def L_sym(p: str, s: int) -> ConstExpr:
    """Closed form of L_p(s) where available: zeta for p=1, scaled zeta for 2a/2b,
    beta at odd s for m4."""
    require_ints("L_sym", s=s)
    if p == "1":
        if s < 2:
            raise NotReducible("zeta-type series at s < 2")
        return zeta_sym(s)
    if p == "2a":
        if s < 2:
            raise NotReducible("lambda(s) requires s >= 2")
        return zeta_sym(s) * (1 - Fraction(1, 2**s))
    if p == "2b":
        if s < 2:
            raise NotReducible("eta closed form restricted to s >= 2 (eta(1) stays log2-free here)")
        return zeta_sym(s) * (1 - Fraction(1, 2 ** (s - 1)))
    if p == "m4":
        return beta_sym(s)
    raise DomainError(f"unknown character {p!r}")
