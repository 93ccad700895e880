"""Exact integer/rational arithmetic and the classical number sequences.

Rational results are ``fractions.Fraction``: always in lowest terms with a
positive denominator, arithmetic closed and exact.  The search's linear solver
``_rref`` eliminates rational rows on ints and makes Fractions only of its
reduced rows.  The Bernoulli numbers use the convention B_1 = -1/2 (so
2*(2n)! * zeta(2n) = (-1)^(n+1) * (2*pi)^(2n) * B_2n), the Euler numbers the
secant convention (E_0 = 1, E_2 = -1, E_4 = 5).

Exact is single-threaded: the Bernoulli table and the zigzag table of the
tangent and Euler numbers grow without locks.  Parallel callers should use
processes.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import accumulate

from .errors import DomainError, require_ints

Rational = Fraction

_bern_cache: list[Fraction] = [Fraction(1)]

# the zigzag numbers A_0, A_1, A_2, ... = 1, 1, 1, 2, 5, 16, 61, ... and the
# last row of their Seidel triangle (_zigzag_to); the two are reset together
_zigzag: list[int] = [1]
_seidel_row: list[int] = [1]


def binomial(n: int, k: int) -> int:
    """C(n, k), with the out-of-range convention C(n, k) = 0 for k < 0 or k > n."""
    require_ints("binomial", n=n, k=k)
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2).

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the tangent numbers T_k; a
    request past the table refills it to at least twice its length.
    """
    require_ints("bernoulli", n=n)
    if n < 0:
        raise DomainError(f"Bernoulli number B_{n}: the index must be >= 0")
    global _bern_cache
    if n >= len(_bern_cache):
        _bern_cache = _bernoulli_table(max(n, 2 * len(_bern_cache)) // 2)
    return _bern_cache[n]


def _zigzag_to(m: int) -> list[int]:
    """The zigzag table through A_m, the number of alternating permutations
    of m letters.  A_m is the last entry of row m of Seidel's boustrophedon
    triangle, whose row m is 0 followed by the running sums of row m-1 read
    backwards (Millar, Sloane and Young, "A new operation on sequences: the
    Boustrophedon transform", JCTA 1996).  _seidel_row holds the last row
    built, so each new A_m costs m additions."""
    row = _seidel_row
    while len(_zigzag) <= m:
        row[:] = accumulate(reversed(row), initial=0)
        _zigzag.append(row[-1])
    return _zigzag


def tangent_number(n: int) -> int:
    """Tangent number T_n, tan x = sum_{n>=1} T_n x^(2n-1) / (2n-1)! (T_0 = 0):
    the odd zigzag number A_(2n-1)."""
    require_ints("tangent_number", n=n)
    if n < 0:
        raise DomainError(f"tangent number T_{n}: the index must be >= 0")
    return _zigzag_to(2 * n - 1)[2 * n - 1] if n else 0


def _bernoulli_table(K: int) -> list[Fraction]:
    """[B_0, ..., B_(2K+1)] from the tangent numbers T_1..T_K."""
    T = [tangent_number(k) for k in range(K + 1)]
    table = [Fraction(1), Fraction(-1, 2)]
    for k in range(1, K + 1):
        b = Fraction(2 * k * T[k], 4**k * (4**k - 1))
        table += [b if k % 2 else -b, Fraction(0)]
    return table


def euler_number(n: int) -> int:
    """Exact Euler number E_n; odd indices vanish.  E_2k = (-1)^k A_2k, the
    even zigzag number (sec x = sum_k A_2k x^(2k) / (2k)!)."""
    require_ints("euler_number", n=n)
    if n < 0:
        raise DomainError(f"Euler number E_{n}: the index must be >= 0")
    if n % 2 == 1:
        return 0
    a = _zigzag_to(n)[n]
    return -a if n % 4 else a


def harmonic(n: int) -> Fraction:
    """H_n = sum_{k<=n} 1/k as an exact rational (H_0 = 0)."""
    require_ints("harmonic", n=n)
    return harmonic_power(n, 1)


def harmonic_power(n: int, b: int) -> Fraction:
    """Generalized harmonic number H_n^(b) = sum_{k<=n} k^-b (H_0^(b) = 0), any integer b."""
    require_ints("harmonic_power", n=n, b=b)
    if n < 0:
        order = "" if b == 1 else f"^({b})"
        raise DomainError(f"harmonic number H_{n}{order}: the index must be >= 0")
    acc = Fraction(0)
    for k in range(1, n + 1):
        acc += Fraction(1, k**b) if b >= 0 else k**-b
    return acc


def inv_binomial_sum(n: int, m: int) -> Fraction:
    """sum_{k=0}^{m} (-1)^k / C(n, k), exactly.

    For m = n the sum is 0 for odd n and 2(n+1)/(n+2) for even n.
    """
    require_ints("inv_binomial_sum", n=n, m=m)
    if not 0 <= m <= n:
        raise DomainError(f"inv_binomial_sum({n}, {m}) needs 0 <= m <= n")
    acc = Fraction(0)
    for k in range(m + 1):
        term = Fraction(1, math.comb(n, k))
        acc += -term if k % 2 else term
    return acc


def alternating_binom_sum(n: int) -> int:
    """sum_{k=0}^{n} (-1)^k C(n+k, k); the finite-sum side of the 2F1 value below."""
    acc = 0
    for k in range(n + 1):
        t = math.comb(n + k, k)
        acc += -t if k % 2 else t
    return acc


def hyp2f1_special(n: int) -> Fraction:
    """2F1(1, 2n+2; n+2; -1) as an exact rational.

    Defined through the finite-sum characterization
    (-1)^(n+1) C(2n+1, n) F = 2^(-n-1) - sum_{k=0}^{n} (-1)^k C(n+k, k),
    never by summing the series at -1 (which is only Abel-convergent).
    """
    require_ints("hyp2f1_special", n=n)
    if n < 1:
        raise DomainError(f"hyp2f1_special({n}) needs n >= 1")
    rhs = Fraction(1, 2 ** (n + 1)) - alternating_binom_sum(n)
    sign = 1 if (n + 1) % 2 == 0 else -1
    return sign * rhs / math.comb(2 * n + 1, n)


def printable(x) -> bool:
    """Whether str() prints the rational x: Python refuses integers of more
    than sys.get_int_max_str_digits() digits (0 or absent: no limit)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return not limit or max(abs(x.numerator), x.denominator) < 10**limit


def _rref(aug, ncols):
    """Gauss-Jordan elimination in place of rational rows over their first
    ncols columns; the columns after them ride along.  Returns the pivot
    columns.  Their rows come first, each with a leading 1 and zeros above
    and below it: the rows Fraction Gauss-Jordan gives.  The rows after them
    are zero on the first ncols columns and integer nonzero multiples of the
    Gauss-Jordan rows elsewhere.  A caller with other right-hand sides
    eliminates [A | I] and applies the rows of the transform to them.

    Fraction-free (Bareiss, "Sylvester's identity and multistep
    integer-preserving Gaussian elimination", Math. Comp. 1968): each row is
    scaled to integers, then each pivot p replaces every other row by
    (p * row - row[c] * pivot_row) / p_prev for the pivot p_prev before it, a
    division Sylvester's identity makes exact; every pivot row then leads
    with the last pivot, and is divided by it once at the end.  The one exact
    solver: the search fits and null spaces eliminate through it."""
    for i, row in enumerate(aug):
        den = math.lcm(*(x.denominator for x in row))
        aug[i] = [x.numerator * (den // x.denominator) for x in row]
    pivots = []
    last = 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        prow = aug[r]
        p = prow[c]
        for i, row in enumerate(aug):
            if i != r:
                a = row[c]
                aug[i] = [(p * x - a * y) // last for x, y in zip(row, prow)]
        pivots.append(c)
        last = p
    for r in range(len(pivots)):
        aug[r] = [Fraction(x, last) for x in aug[r]]
    return pivots
