"""Guaranteed-error multiprecision evaluation of zeta-type series.

Everything here reduces to one audited Euler-Maclaurin tail kernel applied per
residue class mod 4: single Dirichlet series (zeta, lambda, eta, beta and the
4-periodic twists), nested double sums with or without character twists, and
the constants pi, log 2 and Li_4(1/2).  Every internal routine returns a pair
(value, bound) where bound is a rigorous upper bound on the absolute
truncation/method error at the working precision; public operations check the
accumulated bound against the context tolerance and raise PrecisionError
instead of returning a value that might violate the contract.

Evaluation scheme for double sums: [p,q](s,t) is summed over its smaller
index m outside, as sum_m chi_q(m) m^-t R_p(s; m) with the strict tail
R_p(s; m) = sum_(n>m) chi_p(n) n^-s, which converges wherever L_p(s) does,
at s = 1 for a mean-zero p too.  The sum over m is truncated at N ~ O(P),
and for m > N the tail R_p is expanded by Euler-Maclaurin in powers of 1/m
with 4-periodic coefficients, which turns the rest into a linear combination
of per-class power tails of shifted exponent, each at least 2.

The single series L_p(s) and that combination, with the direct head m <= N,
are summed in exact fixed-point integers at scale 2^W, W = _fixed_bits(D),
about 60 bits below the working precision.  L_p(s) is its head
sum chi_p(n) floor(2^W/n^s) plus the class tails from the class rows G_s
below, at every s: at the mean-zero s = 1 the rows hold the regularized
tails, whose log parts cancel in the signed sum.  In a double sum the head
of class r of m is a sum of floor((X - P[m]) / m^t) at 2^-W, where X is
L_p(s) 2^W and P[m] = sum_(n<=m) chi_p(n) floor(2^W/n^s), so that X - P[m]
is R_p(s; m) 2^W, with one division by the integer m^t per term
(_class_heads).  For m > N, R_p is expanded folded: its coefficients, with
chi_p's signs in them, are one vector of F_e, c_e N^-e 2^W truncated toward
zero, over the exponents whose c_e is not an exact zero (_inner_array).  The
tail is one integer dot product with the class's row G_u ~ T(r,u) N^u 2^W
at u = t + e.  Every unit dropped by a floor goes into the reported bound:
with B_u >= |T(r,u) N^u 2^W - G_u|, an entry contributes at most
|F_e| B_u + B_u + G_u units of 2^-2W N^-t; the expansion's remainder is
integer units too.

The per-class terms do not depend on the inner character q: _class_pairs sums
them into one pair per class and (p, s, t, D), which all q share and only sign.

Every class tail comes from one Euler-Maclaurin kernel in exact integers
(_tail_fixed): from a start m0 > N in class r, far enough out that the terms
fall below the stop before they turn upward, the direct terms N < n < m0 are
floors and the rest is m0^-u times the bracket m0/(4(u-1)) + 1/2 + sum_j t_j
at scale 2^V, t_j(u) = beta_j (u)_(2j-1) / m0^(2j-1), beta_j = B_2j
4^(2j-1) / (2j)!, cut after its first term below _EM_STOP units; the
regularized u = 1 tail has -m0 log(m0)/4 for m0/(4(u-1)).  class_tail, a
row's u = 1 entry too, is summed at V = W + _ROW_GUARD.  A row (_tail_row)
is built upward from u = 2, entry u at a scale 2^V_u that falls with u to
what its readers resolve (_row_scales), since the F_e its units meet has shed
about (u-1) log2 N bits.  While the start stays, the row's terms are one list
stepped up by one multiplication and one floor division by small integers a
term (_EMTerms); past what any reader resolves an entry is 0 within a closed
form bound, and no kernel runs.  The bound counts _EM_SAFETY times the last
term with its units, every floor and the rescaling to 2^W; a series that
turns before its stop restarts 1.6 times farther out, at most five times,
with a list of its own.

The tail expansions come straight from Euler-Maclaurin with Bernoulli
polynomials: at m in class r, chi_p's tail is a sum over the shifts
d = 0..3 with weights chi_p(r+d), whose i-th term is
sum_d chi_p(r+d) B_i(d/4) times a power of 1/m.  At the four quarter points
B_i is a rational multiple of B_i or, for odd i, of the Euler number
E_(i-1), so the folded coefficient of each even i is the spacing-4 EM
coefficient of the class tails times a dyadic rational of the weights, and
that of each odd i >= 3 an Euler-number chain that only m4 seen from an even
class has; every other odd one is an exact zero.  Both are integer floor
chains at scale 2^(W+32) by exact step ratios (_inner_chain), shared by the
16 (p, r) arrays of one (s, D); their summed units, shifted to 2^-W, are the
arrays' rnd.

The one rounding of an L, [p,q](s,t), periodic tail or Li_4(1/2) value is its
final conversion to the working precision, counted in its bound
(_from_fixed).  W and the harmonic sums are added up before that rounding:
their terms' integers, _char_fixed's [p,q](s,t) at 2^-2W and _L_fixed's
zeta(a) at 2^-W (a zeta product is the product of two, a lone zeta is shifted
by W), are summed exactly with their integer coefficients, units and all, and
the total is rounded once.  ConstExpr values are formed in mpf from
generator values; each of their terms adds 10^-(D+6) of its magnitude to the
bound for the roundings.  No value here reads a closed form of reductions,
which builds on this module: zeta(a, 1) is [1,1](a,1), and W and the harmonic
sums are sums of the kernel's own values (witten_terms, _harmonic_internal).

Numerics is single-threaded: mpmath's working precision (mp.workdps) is
process-global, so concurrent callers would change each other's precision.
Parallel callers should use processes.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, cycle, repeat
from operator import floordiv, mul

from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, from_man_exp, round_ceiling, round_nearest

from .errors import DomainError, PrecisionError, require_ints
# bernoulli is not called here, but perfbench/tracer.py wraps numerics.bernoulli
from .exact import bernoulli, euler_number, tangent_number  # noqa: F401
from .symexpr import ConstExpr

MPReal = mp.mpf

CHAR_IDS = ("1", "2a", "2b", "m4")

# chi_p(n) for n = 1, 2, 3, 4 (mod 4); index (n-1) % 4
CHI = {
    "1": (1, 1, 1, 1),
    "2a": (1, 0, 1, 0),
    "2b": (1, -1, 1, -1),
    "m4": (1, 0, -1, 0),
}


def _known(*chars):
    """DomainError naming the first of chars that is not a character id (a str
    of CHI: a list or dict is not looked up, so it can not leak a TypeError)."""
    for p in chars:
        if not isinstance(p, str) or p not in CHI:
            raise DomainError(f"unknown character {p!r}")


def chi(p: str, n: int) -> int:
    _known(p)
    require_ints("chi", n=n)
    return CHI[p][(n - 1) % 4]


def char_product(p: str, q: str) -> str:
    """The pointwise product character chi_p * chi_q, itself one of the four."""
    _known(p, q)
    prod = tuple(a * b for a, b in zip(CHI[p], CHI[q]))
    return next(name for name, vals in CHI.items() if vals == prod)


def is_mean_zero(p: str) -> bool:
    return sum(CHI[p]) == 0


def _L_convergent(p: str, s: int) -> bool:
    """Whether L_p(s) converges: s >= 2, or s = 1 for a mean-zero p (conditionally)."""
    return s >= 2 or (s == 1 and is_mean_zero(p))


@dataclass(frozen=True)
class EvalContext:
    """Target precision contract: results are within 10^-prec absolutely.

    Internally everything runs at prec + 10 decimal digits.
    """

    prec: int = 40

    def __post_init__(self):
        require_ints("EvalContext", prec=self.prec)
        if self.prec < 10:
            raise DomainError("precision must be at least 10 digits")

    @property
    def work_digits(self) -> int:
        return self.prec + 10

    def tolerance(self):
        return _tolerance(self.prec, self.work_digits)


@functools.cache
def _tolerance(prec: int, digits: int):
    """10^-prec at `digits` working digits (an mpf is immutable, so one is shared)."""
    with mp.workdps(digits):
        return mpf(10) ** (-prec)


def _check(pair, ctx: EvalContext, what: str):
    """The value of a (value, bound) pair; PrecisionError naming `what` when
    the bound exceeds 10^-prec."""
    value, bound = pair
    if bound > ctx.tolerance():
        raise PrecisionError(
            f"{what}: accumulated error bound {mp.nstr(bound, 3)} exceeds 10^-{ctx.prec}"
        )
    return value


# --------------------------------------------------------------------------
# caches
# --------------------------------------------------------------------------

# One memo rule (_memo): a layer stores its result under its argument tuple,
# led by the layer's tag where layers share a dict.  _value_cache holds the
# rounded (value, bound) pairs ("L", "cs", "W", "H"), _fixed_cache the integer
# layers ("L", "ipow", "pow", "chain", "pairs", "scales", and _tail_row's
# growing ("tail", r, D) rows) and the generator powers ("gpow"); the other
# two are class_tail's kernel and _inner_array.  Callers must not change a
# returned list.
_value_cache: dict = {}
_fixed_cache: dict = {}
_kernel_cache: dict = {}
_array_cache: dict = {}


def _memo(cache: dict, tag=None):
    """Store fn(*args) in `cache` under (tag, *args), or under args without a
    tag.  A call that raises stores nothing, so the cache grows exactly on a
    miss."""

    def decorate(fn):
        @functools.wraps(fn)
        def memo(*args):
            key = args if tag is None else (tag, *args)
            hit = cache.get(key)
            if hit is None:
                hit = cache[key] = fn(*args)
            return hit

        return memo

    return decorate


# --------------------------------------------------------------------------
# the audited kernel: per-class power/log tails
# --------------------------------------------------------------------------

# EM safety factor: the remainder after the B_{2j} correction is bounded by the
# first omitted term for completely monotone integrands; 4 is a safe margin.
_EM_SAFETY = 4
# a row entry's units, read through an inner coefficient, stay below
# 2^-_ROW_GUARD units of 2^-W; an EM sum stops at a term below _EM_STOP units
_ROW_GUARD, _EM_STOP = 32, 16

# beta_j / beta_(j-1) as (num, den) at index j >= 2: the step ratios of _em_step,
# appended as the chains first reach each j
_em_ratios: list = [None, None]
# E_2j / (E_(2j-2) (2j)(2j-1)) likewise, the ratios of _inner_array's odd terms
_euler_ratios: list = [None, None]


def _outer_cutoff(D: int) -> int:
    return 4 * (int((2.2 * 2.303 * D + 64) / 4) + 1)


def _kernel_start(u: int, D: int) -> int:
    return int(0.75 * 2.303 * D + 0.9 * u) + 16


def class_tail(r: int, u: int, N: int, D: int):
    """(X, units) with |T Nu 2^W - X| <= units for the class tail
    T = sum_{n > N, n == r (mod 4)} n^-u, at the scale of the tail rows:
    Nu = N^u (1 at N = 0) and W = _fixed_bits(D).  For u == 1 the
    *regularized* tail, the limit of the partial sum minus (1/4) log X, only
    meaningful where the log X parts cancel over the four classes.  It is the
    row kernel's one-exponent case at the full scale 2^(W + _ROW_GUARD), for
    periodic_tail_num at any N; the rows at N(D) taper their entries.
    """
    if u < 1:
        raise DomainError("class_tail needs u >= 1")
    return _class_tail(r, u, N, D)


def _from_fixed(x: int, units: int, bits: int, D: int):
    """(value, bound) at D + 10 digits of x 2^-bits, known within `units` units
    of 2^-bits.  The value is rounded to nearest, within 2^-prec |x| units, and
    the bound, which counts that rounding too, is rounded up."""
    prec = dps_to_prec(D + 10)
    units += (abs(x) >> (prec - 1)) + 1
    return (
        mp.make_mpf(from_man_exp(x, -bits, prec, round_nearest)),
        mp.make_mpf(from_man_exp(units, -bits, prec, round_ceiling)),
    )


# --------------------------------------------------------------------------
# single series
# --------------------------------------------------------------------------


@_memo(_fixed_cache, "L")
def _L_fixed(p: str, s: int, D: int):
    """(X, units) with |L_p(s) 2^W - X| <= units, W = _fixed_bits(D).

    The head n <= N is sum chi_p(n) floor(2^W/n^s) from _pow_row, N floor units.
    The tail, at scale N^s 2^W, is sum_r chi_p(r) G_r[s] from the integer rows,
    within sum_r B_r[s] units; at the mean-zero s = 1 the rows hold the
    regularized tails, whose log parts cancel in that sum."""
    if not _L_convergent(p, s):
        raise DomainError(f"L_{p}({s}) diverges")
    N = _outer_cutoff(D)
    Ns = N**s
    row = _pow_row(s, D)
    X = units = 0
    for r, c in zip((1, 2, 3, 4), CHI[p]):
        if c:
            G, B = _tail_row(r, s, s + 1, D)
            X += c * (sum(row[r::4]) * Ns + G[s])
            units += B[s]
    return X // Ns, -(-(units + N * Ns) // Ns) + 1


@_memo(_value_cache, "L")
def _L_internal(p: str, s: int, D: int):
    return _from_fixed(*_L_fixed(p, s, D), _fixed_bits(D), D)


def _zeta_internal(s: int, D: int):
    return _L_internal("1", s, D)


def zeta_num(s: int, ctx: EvalContext):
    """zeta(s) for integer s >= 2, within 10^-prec."""
    require_ints("zeta_num", s=s)
    if s < 2:
        raise DomainError(f"zeta_num({s}) needs s >= 2")
    return _check(_zeta_internal(s, ctx.work_digits), ctx, f"zeta({s})")


def L_num(p: str, s: int, ctx: EvalContext):
    """L_p(s) = sum chi_p(n)/n^s; s >= 2, or s >= 1 for the mean-zero 2b, m4."""
    _known(p)
    require_ints("L_num", s=s)
    if not _L_convergent(p, s):
        raise DomainError(f"L_{p}({s}) diverges")
    return _check(_L_internal(p, s, ctx.work_digits), ctx, f"L_{p}({s})")


def periodic_tail_num(p: str, s: int, N: int, ctx: EvalContext):
    """sum_{n > N} chi_p(n)/n^s within 10^-(prec+2), per residue class mod 4."""
    _known(p)
    require_ints("periodic_tail_num", s=s, N=N)
    if not _L_convergent(p, s):
        raise DomainError(f"periodic_tail_num({p!r}, {s}, {N}) needs s >= 2, or s = 1 for a mean-zero p")
    if N < 0:
        raise DomainError(f"periodic_tail_num({p!r}, {s}, {N}) needs N >= 0")
    D = ctx.work_digits
    X = units = 0  # sum_r chi_p(r) T_r at class_tail's scale, within units
    for r, c in zip((1, 2, 3, 4), CHI[p]):
        if c:
            x, b = class_tail(r, s, N, D)
            X += c * x
            units += b
    Ns = max(N, 1) ** s
    with mp.workdps(D + 10):
        v, b = _from_fixed(X // Ns, -(-units // Ns) + 1, _fixed_bits(D), D)
        if b > mpf(10) ** (-(ctx.prec + 2)):
            raise PrecisionError("periodic tail bound exceeds 10^-(P+2)")
        return v


# --------------------------------------------------------------------------
# strict tail expansions for double sums
# --------------------------------------------------------------------------

# guard bits of the inner expansions, summed at scale 2^(W + _INNER_GUARD)
_INNER_GUARD = 32


def _fixed_bits(D: int) -> int:
    """W: the fixed-point scale 2^W of the double-sum combine, ~60 bits below 10^-(D+10)."""
    return int(3.33 * (D + 10)) + 60


@_memo(_fixed_cache, "ipow")
def _int_pow_row(u: int, D: int):
    """[n^u for n = 0..N(D)]: the divisors of _pow_row and of _class_heads."""
    return [n**u for n in range(_outer_cutoff(D) + 1)]


@_memo(_fixed_cache, "pow")
def _pow_row(u: int, D: int):
    """[floor(2^W / n^u) for n = 0..N(D)], with 0 at n = 0."""
    one = 1 << _fixed_bits(D)
    return [0] + [one // x for x in _int_pow_row(u, D)[1:]]


def _log_fixed(n: int, bits: int) -> int:
    """floor(log(n) 2^bits), within 2 units of log(n) 2^bits: mpmath's log at
    bits + 32 bits of precision is off by far less than a unit."""
    with mp.workprec(bits + 32):
        return int(mp.floor(mp.ldexp(mp.log(n), bits)))


def _em_step(u: int, j: int, y: int, odd: bool = False):
    """(num, den) of the EM step ratio q_j = num / den = (beta_j / beta_(j-1))
    (u+2j-3)(u+2j-2) / y^2, j >= 2, with which t_j = t_(j-1) q_j at exponent u
    from y; None where |q_j| > 1: the terms turn upward.  beta_j / beta_(j-1) =
    16 B_2j / (B_(2j-2) (2j)(2j-1)) is read from _em_ratios, grown on demand
    from the tangent numbers (B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))):
    -2 T_k (4^(k-1) - 1) / ((k-1) T_(k-1) (4^k - 1)(2k - 1)).  odd: the
    ratio of _inner_array's odd terms, E_2j (u+2j-2)(u+2j-1) / (E_(2j-2)
    (2j)(2j-1) y^2), from _euler_ratios."""
    table = _euler_ratios if odd else _em_ratios
    while len(table) <= j:
        k = len(table)
        if odd:
            q = Fraction(euler_number(2 * k), euler_number(2 * k - 2) * (2 * k) * (2 * k - 1))
        else:
            q = Fraction(
                -2 * tangent_number(k) * (4 ** (k - 1) - 1),
                (k - 1) * tangent_number(k - 1) * (4**k - 1) * (2 * k - 1),
            )
        table.append((q.numerator, q.denominator))
    rn, rd = table[j]
    num, den = rn * (u + 2 * j - 3 + odd) * (u + 2 * j - 2 + odd), rd * y * y
    return None if abs(num) > den else (num, den)


class _EMTerms:
    """The plain EM terms t[j-1] = t_j(u) of one start m0 at scale 2^V, each
    within e units.  at() steps them up from k = u-1 to u and from 2^V to
    2^V', V' <= V: t_j(u) = floor(t_j(k) (k+2j-1) / (k 2^(V-V'))), which
    takes e to ceil(e (k+2J-1) / (k 2^(V-V'))) + 1 for J terms; or, at a new
    m0, any other u or a rising scale, starts anew from t_1(u) =
    floor(u 2^V / (3 m0)) (beta_1 = 1/3), within one unit.  _em_bracket cuts
    the list at its stop or extends it by _em_step, one unit more a term."""

    __slots__ = ("m0", "u", "V", "e", "t")

    def __init__(self):
        self.m0 = None

    def at(self, u: int, m0: int, V: int) -> list:
        if m0 != self.m0 or u != self.u + 1 or V > self.V:
            self.t, self.e = [(u << V) // (3 * m0)], 1
        else:
            k, div, J = u - 1, u - 1 << self.V - V, len(self.t)
            self.t = list(map(floordiv, map(mul, self.t, range(k + 1, k + 2 * J, 2)), repeat(div)))
            self.e = -(-self.e * (k + 2 * J - 1) // div) + 1
        self.m0, self.u, self.V = m0, u, V
        return self.t


def _em_bracket(u: int, m0: int, V: int, L: int | None = None, terms: _EMTerms | None = None):
    """The Euler-Maclaurin bracket of a class tail from m0 at scale 2^V,
    m0/(4(u-1)) + 1/2 + sum_j t_j, or -m0 log(m0)/4 + 1/2 + sum_j t_j at the
    regularized u = 1, with L = floor(log(m0) 2^V) within 2 units.  The terms
    are those of `terms`, a row's _EMTerms (a new one if None); they fall
    until they turn, and the sum stops at the first below _EM_STOP units.
    Returns (x, floors, rem): x within `floors` units of the partial sum
    times 2^V, and rem = _EM_SAFETY (|last term| + e), which bounds the rest;
    or None if the terms turn upward first.  A sum that does not stop in 499
    terms raises PrecisionError, which _tail_fixed names."""
    if u == 1:  # L's 2 units move m0 L / 4 by m0 / 2, and the floor adds one
        lead, floors = -(m0 * L) // 4, m0 // 2 + 2
    else:
        lead, floors = (m0 << V) // (4 * (u - 1)), 1
    terms = terms or _EMTerms()
    t = terms.at(u, m0, V)
    while len(t) > 1 and abs(t[-2]) < _EM_STOP:  # the terms fall: cut after the first below the stop
        t.pop()
    while abs(t[-1]) >= _EM_STOP:
        if len(t) == 499:
            raise PrecisionError("EM correction loop exhausted")
        step = _em_step(u, len(t) + 1, m0)
        if step is None:
            return None
        t.append(t[-1] * step[0] // step[1])
        terms.e += 1
    return lead + (1 << V - 1) + sum(t), floors + len(t) * terms.e, _EM_SAFETY * (abs(t[-1]) + terms.e)


def _tail_fixed(r: int, u: int, N: int, D: int, V: int | None = None, terms: _EMTerms | None = None):
    """(G, B) with |T Nu 2^W - G| <= B for class_tail's tail T, Nu = N^u (1 at
    N = 0), W = _fixed_bits(D), summed at scale 2^V (W + _ROW_GUARD if None):
    the direct terms N < n < m0 are floors and the rest is m0^-u times
    _em_bracket.  B counts every floor unit, the bracket's units and
    remainder and the rescaling to 2^W.  `terms` is the _EMTerms of a row;
    a restart farther out sums a list of its own."""
    W = _fixed_bits(D)
    V = W + _ROW_GUARD if V is None else V
    Nu = max(N, 1) ** u
    start_min = _kernel_start(u, D)
    try:
        for _ in range(5):
            m0 = max(N, start_min) + 1
            m0 += (r - m0) % 4
            em = _em_bracket(u, m0, V, _log_fixed(m0, V) if u == 1 else None, terms)
            if em is None:  # the series turned: restart farther out
                start_min, terms = int(start_min * 1.6) + 8, None
                continue
            x, floors, rem = em
            m0u = m0**u
            head = range(N + 1 + (r - N - 1) % 4, m0, 4)  # empty when m0 is the first n > N of class r
            s = sum((Nu << V) // n**u for n in head) + x * Nu // m0u
            err = len(head) + 1 - (-(floors + rem) * Nu // m0u)  # units of 2^-V
            if V < W:
                return s << W - V, err << W - V
            return s >> V - W, ((err - 1) >> V - W) + 2
        raise PrecisionError("EM tail did not converge")
    except PrecisionError as exc:
        raise PrecisionError(f"{exc} for class {r}, exponent {u}, N={N}, D={D}") from None


# class_tail's memoized kernel, keyed (r, u, N, D)
_class_tail = _memo(_kernel_cache)(_tail_fixed)


@_memo(_fixed_cache, "scales")
def _row_scales(D: int) -> list:
    """[V_u for u = 2, 3, ...]: the scales of the row entries, through the
    last u whose allowance A_u is below Ghat_u = (4u + N) 2^W / (4(u-1)), a
    bound on T N^u 2^W from the first n1 <= N + 4 of the class.  Every inner
    coefficient of exponent e is at most c*_e = 20 (2/3)^e (e-1)!, and F_e = 0
    where c*_e N^-e 2^(W+1) < 1: past reach, since that is log-convex in e and
    above 2N + 2 the EM step ratio, at least (e-2)(e-1) / (4 N^2), has turned
    (a first term there has s > 2N).  So A_u = 2^-g N^u / c*_e at
    e = max(4, min(u-1, reach)), g = _ROW_GUARD (c*_4 is above c*_1..c*_3),
    keeps F_e B_u / N^t near 2^-g units of 2^-W for B_u <= A_u.  It grows
    with u; V_u = W + 16 - log2 A_u leaves 2^15 for an entry's units."""
    N, W = _outer_cutoff(D), _fixed_bits(D)
    e, fact, pw = 1, 1, 3 * N  # fact = (e-1)!, pw = (3N)^e; reach = e - 1 at the end
    while e <= 2 * N + 2 and 20 * fact << W + 1 + e >= pw:  # c*_e 2^(W+1) >= N^e
        fact, e, pw = fact * e, e + 1, pw * 3 * N
    scales, Nu, cn, cd = [], N, 640, 27  # N^(u-1) and c*_e = cn / cd, from c*_4 = 640/27
    for u in count(2):
        Nu *= N
        if 4 < u - 1 < e:  # c*_e = c*_(e-1) 2 (e-1) / 3
            cn, cd = cn * 2 * (u - 2), cd * 3
        if Nu * cd * 4 * (u - 1) >= (cn << _ROW_GUARD) * (4 * u + N) << W:
            return scales
        scales.append(max(1, W + 16 + (cn << _ROW_GUARD).bit_length() - (Nu * cd).bit_length()))


def _tail_row(r: int, lo: int, hi: int, D: int):
    """Lists (G, B) indexed by exponent u, filled at least for lo <= u < hi:
    G[u] within B[u] units of T N^u 2^W for class_tail(r, u, N, D)'s tail T,
    N = _outer_cutoff(D).  u = 1 is class_tail's case; from u = 2 the entries
    are built in order at the scales of _row_scales, stepping one _EMTerms
    up, so each depends on (r, u, D) alone.  Past those scales G[u] = 0 with
    B[u] = ceil(Ghat_u), and no kernel runs."""
    N, W = _outer_cutoff(D), _fixed_bits(D)
    G, B, terms = _fixed_cache.setdefault(("tail", r, D), ([None, None], [None, None], _EMTerms()))
    scales = _row_scales(D)
    G += [None] * (hi - len(G))
    B += [None] * (hi - len(B))
    if lo < 2 and G[1] is None:
        G[1], B[1] = _tail_fixed(r, 1, N, D)
    top = len(scales) + 2
    end = min(hi, top)
    if end > 2 and G[end - 1] is None:  # the entries from the first missing one to end
        for u in range(G.index(None, 2), end):
            G[u], B[u] = _tail_fixed(r, u, N, D, scales[u - 2], terms)
    for u in range(max(lo, top), hi):
        if G[u] is None:
            G[u], B[u] = 0, -(-((4 * u + N) << W) // (4 * (u - 1)))
    return G, B


@_memo(_fixed_cache, "chain")
def _inner_chain(s: int, D: int, odd: bool):
    """The EM chains of _inner_array at scale N^-e 2^V, V = _fixed_bits(D) +
    _INNER_GUARD, N = N(D), each entry j = 1, 2, ... within j units:
    a_j = beta_j (s)_(2j-1) N^-e 2^V at e = s+2j-1, beta_j = B_2j 4^(2j-1) / (2j)!,
    from a_1 = floor(s 2^V / (3 N^(s+1))) (beta_1 = 1/3) by one floor division
    per step by _em_step's exact ratio, of magnitude at most 1, through the
    first J with _EM_SAFETY |a_J| < lim: the target 10^-(D+6) N^-s,
    or a unit of 2^-W, which the floors can not resolve (the case for large s).
    odd: b_j = E_2j (s)_2j N^-e 2^V / (2 (2j)!) at e = s+2j for the same j,
    from b_1 = floor(-s (s+1) 2^V / (4 N^(s+2))) (E_2 = -1) by
    _em_step(odd=True)."""
    N, V = _outer_cutoff(D), _fixed_bits(D) + _INNER_GUARD
    Ns = N**s
    lim = max((1 << V) // (10 ** (D + 6) * Ns), 1 << _INNER_GUARD)
    if odd:
        chain = [-(s * (s + 1) << V) // (4 * Ns * N * N)]
        J = len(_inner_chain(s, D, False))
    else:
        chain = [(s << V) // (3 * Ns * N)]
        J = 499
    while len(chain) < J and (odd or _EM_SAFETY * abs(chain[-1]) >= lim):
        step = _em_step(s, len(chain) + 1, N, odd)
        if step is None:
            raise PrecisionError(f"inner EM series turned at j={len(chain) + 1} before target (s={s}, N={N})")
        chain.append(chain[-1] * step[0] // step[1])
    if not odd and _EM_SAFETY * abs(chain[-1]) >= lim:
        raise PrecisionError(f"inner EM loop exhausted (s={s}, N={N})")
    return chain


@_memo(_array_cache)
def _inner_array(p: str, s: int, r: int, D: int):
    """The folded expansion of chi_p's strict tail R_p(s; m) = sum_{n>m}
    chi_p(n) n^-s at m == r (mod 4), the inner factor of [p,q](s,t)'s class r.

    With the weights w_d = chi_p(r+d), d = 0..3, the tail from n = m on is
    sum_{n>=m} chi_p(n) n^-s = sum_d w_d sum_{k>=0} (m+d+4k)^-s, which
    Euler-Maclaurin with Bernoulli polynomials (DLMF 24.17.1, 2.10) expands as
      (sum w) m^(1-s) / (4(s-1)) + sum_{i=1}^{k} (-1)^i g_i (s)_(i-1) m^-(s+i-1) + R_k,
    g_i = sum_d w_d B_i(d/4) 4^(i-1) / i!, and from B_i(1/2) = (2^(1-i) - 1) B_i
    and B_i(1/4) = -i E_(i-1) / 4^i - (1 - 2^(1-i)) B_i / 2^i:
      g_1 = -w_0/2 - (w_1 - w_3)/4;
      g_2j = beta_j m_2j, m_i = (w_0 - w_2) + w_2 2^(1-i) - (w_1 + w_3)(2^-i - 2^(1-2i));
      g_(2j+1) = -(w_1 - w_3) E_2j / (4 (2j)!), an exact zero unless p = m4
        and r is even.
    The strict tail leaves out n = m, w_0 m^-s, so its m^-s coefficient is
    -g_1 - w_0 = (w_1 - w_3 - 2 w_0)/4.  At s = 1 p is mean-zero: sum w = 0,
    and there is no m^(1-s) term.  The term of e = s+2j-1 is a_j m_2j and that
    of e = s+2j is (w_1 - w_3)/2 b_j at scale N^-e 2^V, with _inner_chain's
    a_j and b_j.  a_j m_2j is one floor of a_j M_j / 2^(4j-1), M_j = m_2j
    2^(4j-1) an integer, within j |M_j| / 2^(4j-1) + 1 units; the first two
    terms are floors.

    The sum runs through k = 2J+1, J = len(a): |R_k| is at most sum |w| 2 zeta(k)
    (2 pi)^-k 4^(k-1) (s)_(k-1) m^(1-s-k) (periodic Bernoulli functions are at
    most 2 zeta(k) k! / (2 pi)^k), which is sum |w| |a_J| 2^-V (N/m)^erem
    (zeta(k) / zeta(k-1)) 2 (s+2J-1) / (pi N), erem = s+2J, and 2/pi < 2/3.

    Returns (E, F, (rem, erem), rnd): E lists the exponents e of the nonzero
    coefficients c_e in increasing order, F[i] = x / 2^G truncated toward
    zero for the integer x of e = E[i], G = _INNER_GUARD, so that
    |c_e N^-e 2^W - F[i]| <= 1 + u_e / 2^G for x's units u_e, whose sum over
    e is at most rnd 2^G; |R| <= rem 2^-2W N^(erem-1) m^-erem for m > N.
    """
    N, W = _outer_cutoff(D), _fixed_bits(D)
    V = W + _INNER_GUARD
    w0, w1, w2, w3 = w = (CHI[p] * 2)[r - 1 : r + 3]
    Ns = N**s
    terms = []  # (e, x, units of x)
    if sum(w):
        terms.append((s - 1, (sum(w) * N << V) // (4 * (s - 1) * Ns), 1))
    if w1 - w3 - 2 * w0:
        terms.append((s, ((w1 - w3 - 2 * w0) << V) // (4 * Ns), 1))
    chain = _inner_chain(s, D, False)
    odd = _inner_chain(s, D, True) if w1 != w3 else None
    for j, a in enumerate(chain, 1):
        M = (w0 - w2 << 4 * j - 1) + (w2 << 2 * j) - (w1 + w3) * ((1 << 2 * j - 1) - 1)
        if M:
            terms.append((s + 2 * j - 1, a * M >> 4 * j - 1, (j * abs(M) >> 4 * j - 1) + 2))
        if odd:
            terms.append((s + 2 * j, (w1 - w3) // 2 * odd[j - 1], j))
    E, X, units = zip(*terms)
    rem = -(-sum(map(abs, w)) * (abs(a) + j) * 2 * (s + 2 * j - 1) // 3)
    F = [x >> _INNER_GUARD if x >= 0 else -(-x >> _INNER_GUARD) for x in X]  # toward zero
    return E, F, (rem << W - _INNER_GUARD, s + 2 * j), -(-sum(units) >> _INNER_GUARD)


# --------------------------------------------------------------------------
# character double sums
# --------------------------------------------------------------------------


def _char_convergent(p, q, s, t):
    """Whether [p,q](s,t) converges: t >= 1 and, as the outer sum, L_p(s)."""
    return p in CHAR_IDS and q in CHAR_IDS and t >= 1 and _L_convergent(p, s)


def _class_heads(p: str, s: int, t: int, D: int):
    """[(H_r, units_r) for r = 1..4]: the head m <= N of [p,q](s,t)'s class r
    of m at scale 2^-W, H_r = sum_{m == r (mod 4)} floor((X - P[m]) / m^t)
    with (X, U) = _L_fixed(p, s, D) and the prefix
    P[m] = sum_{n<=m} chi_p(n) floor(2^W/n^s), so that X - P[m] is the strict
    tail R_p(s; m) 2^W within U + m units.  Divided by m^t and floored, a term
    is within U / m^t + 2 units; sum m^-t is below 2 for t >= 2 and below
    log2(N) + 1 at t = 1, so units_r = U (2, or N's bit length) + 2 a term."""
    N = _outer_cutoff(D)
    X, U = _L_fixed(p, s, D)
    rest = [X - P for P in accumulate(map(mul, cycle(CHI[p][3:] + CHI[p][:3]), _pow_row(s, D)))]
    mt = _int_pow_row(t, D)
    spread = U * (2 if t > 1 else N.bit_length())
    return [(sum(map(floordiv, rest[r::4], mt[r::4])), spread + 2 * len(mt[r::4])) for r in (1, 2, 3, 4)]


@_memo(_fixed_cache, "pairs")
def _class_pairs(p: str, s: int, t: int, D: int):
    """(acc_r, units_r) for r = 1..4 at scale 2^-2W N^-t: the sum over
    m == r (mod 4) of m^-t R_p(s; m), R_p(s; m) = sum_{n>m} chi_p(n) n^-s,
    which _char_fixed signs with chi_q(r).  The head m <= N is _class_heads's,
    the tail m > N the dot product sum_e F_e G_r[t+e] of _inner_array(p, s, r)
    with the class row; every exponent t+e is at least 2."""
    N, W = _outer_cutoff(D), _fixed_bits(D)
    Nt = N**t
    pairs = []
    for r, (head, head_units) in zip((1, 2, 3, 4), _class_heads(p, s, t, D)):
        E, F, (rem, erem), rnd = _inner_array(p, s, r, D)
        G, B = _tail_row(r, t + E[0], t + E[-1] + 1, D)
        Gt, Bt = [G[t + e] for e in E], [B[t + e] for e in E]
        acc = (head << W) * Nt + sum(map(mul, F, Gt))
        # the floors of F, one unit each, and x's units: rnd 2^-W at each m > N
        # against the first entry, the largest T(r,u) N^u of the row
        units = (head_units << W) * Nt + sum(map(mul, map(abs, F), Bt)) + sum(Gt) + sum(Bt) + rnd * (Gt[0] + Bt[0])
        # sum_{m > N} rem m^(-t-erem) <= rem N^(1-t-erem) / (t+erem-1)
        units += -(-rem // (t + erem - 1))
        pairs.append((acc, units))
    return tuple(pairs)


def _char_fixed(p: str, q: str, s: int, t: int, D: int):
    """(x, units) with |[p,q](s,t) 2^(2W) - x| <= units, W = _fixed_bits(D): the
    combine of the cached _class_pairs with chi_q's signs, itself not cached."""
    if not _char_convergent(p, q, s, t):
        raise DomainError(f"[{p},{q}]({s},{t}) is outside the convergence region")
    Nt = _outer_cutoff(D) ** t
    acc = units = 0
    for cq, (a, u) in zip(CHI[q], _class_pairs(p, s, t, D)):
        if cq:
            acc += cq * a
            units += u
    return acc // Nt, -(-units // Nt) + 1


@_memo(_value_cache, "cs")
def _char_em(p: str, q: str, s: int, t: int, D: int):
    """(value, bound) of [p,q](s,t) by the accelerated double-sum scheme."""
    return _from_fixed(*_char_fixed(p, q, s, t, D), 2 * _fixed_bits(D), D)


def char_dzeta_num(p: str, q: str, s: int, t: int, ctx: EvalContext):
    """[p,q](s,t) = sum_{n>m>=1} chi_p(n) chi_q(m) / (n^s m^t), within 10^-prec.

    [1,1] is the plain double zeta value; a 2b slot is the alternating bar.
    t >= 1, and s >= 2, or s = 1 for the mean-zero outer characters 2b and m4
    with any inner character: summed over m outside, the tail over n
    converges wherever L_p(s) does.
    """
    _known(p, q)
    require_ints("char_dzeta_num", s=s, t=t)
    return _check(_char_em(p, q, s, t, ctx.work_digits), ctx, f"[{p},{q}]({s},{t})")


def _dzeta_internal(a: int, b: int, D: int):
    return _char_em("1", "1", a, b, D)


def dzeta_num(a: int, b: int, ctx: EvalContext):
    """zeta(a, b) = sum_{n>m>=1} n^-a m^-b for a >= 2, b >= 1, within 10^-prec."""
    require_ints("dzeta_num", a=a, b=b)
    if a < 2 or b < 1:
        raise DomainError(f"dzeta_num({a}, {b}) needs a >= 2, b >= 1")
    return _check(_dzeta_internal(a, b, ctx.work_digits), ctx, f"zeta({a},{b})")


# --------------------------------------------------------------------------
# Witten double sums and harmonic-number sums
# --------------------------------------------------------------------------


def witten_convergent(r: int, s: int, t: int) -> bool:
    return min(r, s, t) >= 0 and r + t >= 2 and s + t >= 2 and r + s + t >= 3


@functools.cache
def witten_terms(r: int, s: int, t: int) -> dict:
    """W(r,s,t) as {boundary term: integer coefficient}: the term ("zz", a, b)
    is W(a,b,0) = zeta(a) zeta(b), ("dz", a, 0) is W(0,0,a) = zeta(a-1) - zeta(a)
    and ("dz", a, b) is zeta(a, b).  For r, s, t >= 1 it is the partial-fraction
    closed form (Huard, Williams and Zhang, "On Tornheim's double series",
    Acta Arith. 1996), with w = r + s + t,

        W(r,s,t) = sum_{j=1..s} C(r+s-j-1, r-1) zeta(w-j, j)
                 + sum_{i=1..r} C(r+s-i-1, s-1) zeta(w-i, i),

    which counts the paths of W(r,s,t) = W(r-1,s,t+1) + W(r,s-1,t+1) down to
    W(0,j,w-j) and W(i,0,w-i).  The terms come in the order that recursion,
    r first, meets them: j = s down to 1, then i = 1 up to r, a repeated key
    added to its first.  Memoized and shared, so callers do not change it."""
    if not witten_convergent(r, s, t):
        raise DomainError(f"W({r},{s},{t}) diverges")
    if t == 0:  # r, s >= 2 by convergence
        return {("zz", r, s): 1}
    if r == 0 or s == 0:
        return {("dz", t, r + s): 1}
    w = r + s + t
    out = {("dz", w - j, j): math.comb(r + s - j - 1, r - 1) for j in range(s, 0, -1)}
    for i in range(1, r + 1):
        key = ("dz", w - i, i)
        out[key] = out.get(key, 0) + math.comb(r + s - i - 1, s - 1)
    return out


@_memo(_value_cache, "W")
def _witten_internal(r: int, s: int, t: int, D: int):
    """(value, bound) of W(r,s,t): its witten_terms summed exactly at scale
    2^(2W) from the kernel's integers, with one rounding (_from_fixed)."""
    W = _fixed_bits(D)
    x = units = 0
    for (kind, a, b), coef in witten_terms(r, s, t).items():
        if kind == "zz":
            # (xa + ea)(xb + eb) - xa xb, with |ea| <= ua and |eb| <= ub
            (xa, ua), (xb, ub) = _L_fixed("1", a, D), _L_fixed("1", b, D)
            v, u = xa * xb, abs(xa) * ub + abs(xb) * ua + ua * ub
        elif b == 0:
            (x1, u1), (x2, u2) = _L_fixed("1", a - 1, D), _L_fixed("1", a, D)
            v, u = x1 - x2 << W, u1 + u2 << W
        else:
            v, u = _char_fixed("1", "1", a, b, D)
        x += coef * v
        units += abs(coef) * u
    return _from_fixed(x, units, 2 * W, D)


def witten_num(r: int, s: int, t: int, ctx: EvalContext):
    """W(r,s,t) = sum_{n,m>=1} n^-r m^-s (n+m)^-t, evaluated through its exact
    closed form in zeta / double-zeta boundary values (witten_terms)."""
    require_ints("witten_num", r=r, s=s, t=t)
    return _check(_witten_internal(r, s, t, ctx.work_digits), ctx, f"W({r},{s},{t})")


def harmonic_domain(kind: str, s: int):
    """Raise DomainError unless s is in the domain of the harmonic sum `kind`."""
    if kind == "odd_denom":
        if s < 2:
            raise DomainError(f"hsum_odd({s}) needs s >= 2")
    elif kind == "half_index":
        if s < 1:
            raise DomainError(f"hsum_half({s}) needs s >= 1")
    else:
        raise DomainError(f"unknown harmonic sum kind {kind!r}")


@_memo(_value_cache, "H")
def _harmonic_internal(kind: str, s: int, D: int):
    """(value, bound) of a harmonic-number sum from character double sums.
    odd_denom: at n = 2m+1, [2a,1](s,1) has the inner sum H_2m and [2a,2a](s,1)
    its odd part H_2m - H_m/2, so the sum is 2([2a,1](s,1) - [2a,2a](s,1)).
    half_index: sum H_N/N^k is zeta(k,1) + zeta(k+1) over all N and
    [2a,1](k,1) + (1 - 2^-(k+1)) zeta(k+1) over odd N, so at k = 2s the sum
    is 4^s (zeta(2s,1) - [2a,1](2s,1)) + zeta(2s+1)/2."""
    harmonic_domain(kind, s)
    W = _fixed_bits(D)
    if kind == "odd_denom":
        (x1, u1), (x2, u2) = _char_fixed("2a", "1", s, 1, D), _char_fixed("2a", "2a", s, 1, D)
        x, units = 2 * (x1 - x2), 2 * (u1 + u2)
    else:
        k = 2 * s
        (x1, u1), (x2, u2) = _char_fixed("1", "1", k, 1, D), _char_fixed("2a", "1", k, 1, D)
        # zeta(2s+1)/2 from 2^-W to 2^-2W is a shift by W - 1, exact with its units
        z, zu = _L_fixed("1", k + 1, D)
        x = (x1 - x2 << k) + (z << W - 1)
        units = (u1 + u2 << k) + (zu << W - 1)
    return _from_fixed(x, units, 2 * W, D)


def harmonic_sum_num(kind: str, s: int, ctx: EvalContext):
    """Harmonic-number sums: 'odd_denom' is sum_{n>=0} H_n/(2n+1)^s (s >= 2),
    'half_index' is sum_{n>=1} H_{2n}/n^{2s} (s >= 1), both evaluated as
    character double sums (_harmonic_internal).  Domain errors name the
    corpus DSL calls hsum_odd(s) and hsum_half(s)."""
    require_ints("harmonic_sum_num", s=s)
    harmonic_domain(kind, s)  # before the memo key hashes kind
    return _check(_harmonic_internal(kind, s, ctx.work_digits), ctx, f"harmonic_sum({kind},{s})")


# --------------------------------------------------------------------------
# constant generators and ConstExpr evaluation
# --------------------------------------------------------------------------


def _li4_half_internal(D: int):
    """(value, bound) of Li_4(1/2) = sum 2^-n n^-4 as the fixed-point sum of
    floor(2^(W-n) / n^4) for n <= N: N floor units, the tail
    sum_{n>N} 2^-n n^-4 <= 2^-N (N+1)^-4 and the conversion of _from_fixed."""
    N, W = int(3.33 * (D + 8)) + 8, _fixed_bits(D)
    X = sum((1 << (W - n)) // n**4 for n in range(1, N + 1))
    return _from_fixed(X, N - (-(1 << (W - N)) // (N + 1) ** 4), W, D)


def _generator_internal(g, D: int):
    with mp.workdps(D + 10):
        ulp = _tolerance(D + 6, D + 10)
        if g == "pi":
            return +mp.pi, ulp
        if g == "log2":
            return mp.log(2), ulp
        if g == "li4h":
            return _li4_half_internal(D)
        if isinstance(g, tuple) and len(g) == 2 and g[0] == "z":
            k = g[1]
            if isinstance(k, int) and k >= 3 and k % 2:  # symexpr.zeta_gen's odd k >= 3
                return _zeta_internal(k, D)
    raise DomainError(f"unknown constant generator {g!r}")


def generator_num(g, ctx: EvalContext):
    """Numeric value of a constant generator: 'pi', 'log2', 'li4h' or ('z', k)
    for odd k >= 3."""
    return _check(_generator_internal(g, ctx.work_digits), ctx, f"generator {g!r}")


@_memo(_fixed_cache, "gpow")
def _gen_pow(g, e: int, D: int):
    """(g^e, e |g|^(e-1) b) at D + 10 digits for the generator g with bound b:
    a factor of _expr_internal and its error's first-order coefficient."""
    gv, gb = _generator_internal(g, D)
    with mp.workdps(D + 10):
        return gv**e, e * abs(gv) ** (e - 1) * gb


def rational_mpf(x):
    """The rational x (int or Fraction) at the working precision: its
    numerator over its denominator."""
    return mpf(x.numerator) / x.denominator


def _expr_internal(expr, D: int):
    with mp.workdps(D + 10):
        total = mp.zero
        bound = mp.zero
        rel = _tolerance(D + 6, D + 10)
        for mono, coef in expr.items():
            val = rational_mpf(coef)
            err = mp.zero  # absolute error of the accumulated product
            for g, e in mono:
                pv, dp = _gen_pow(g, e, D)
                # |d(val*g^e)| <= |g^e| * err + |val| * e * |g|^(e-1) * gb
                err = abs(pv) * err + abs(val) * dp
                val = val * pv
            total += val
            bound += err + abs(val) * rel
        return total, bound


def expr_num(expr, ctx: EvalContext):
    """Numeric value of a ConstExpr within 10^-prec * (1 + number of monomials)."""
    if not isinstance(expr, ConstExpr):
        raise DomainError(f"expr_num needs a ConstExpr, got {type(expr).__name__}")
    v, b = _expr_internal(expr, ctx.work_digits)
    with mp.workdps(ctx.work_digits):
        if b > ctx.tolerance() * (1 + len(expr.monomials())):
            raise PrecisionError("ConstExpr evaluation exceeded its error budget")
    return v


# --------------------------------------------------------------------------
# brute-force oracles (float64 + rigorous elementary bounds)
# --------------------------------------------------------------------------

_EPS64 = 1.2e-16
_ZETA2 = 1.6449340668482265  # upper bound for zeta(b), b >= 2


def brute_force_oracle(series: str, params, N: int):
    """Direct truncated summation with a rigorous elementary tail bound.

    Returns (value, bound) with bound a true upper bound on |value - limit|:
    integral-comparison tails (alternating-block bound for mean-zero twisted
    outer sums) plus an explicit float64 round-off allowance folded in.
    """
    require_ints("brute_force_oracle", N=N)
    arity = {"dzeta": 2, "char_dzeta": 4, "witten": 3, "harmonic": 2}
    if not isinstance(series, str) or series not in arity:
        raise DomainError(f"unknown oracle series {series!r}")
    if not isinstance(params, (tuple, list)) or len(params) != arity[series]:
        raise DomainError(f"brute_force_oracle({series!r}) needs {arity[series]} parameters, got {params!r}")
    if series == "dzeta":
        a, b = params
        require_ints("brute_force_oracle", a=a, b=b)
        value, bound = _oracle_char("1", "1", a, b, N)
    elif series == "char_dzeta":
        p, q, s, t = params
        _known(p, q)
        require_ints("brute_force_oracle", s=s, t=t)
        value, bound = _oracle_char(p, q, s, t, N)
    elif series == "witten":
        r, s, t = params
        require_ints("brute_force_oracle", r=r, s=s, t=t)
        value, bound = _oracle_witten(r, s, t, N)
    else:
        kind, s = params
        require_ints("brute_force_oracle", s=s)
        value, bound = _oracle_harmonic(kind, s, N)
    return mpf(value), mpf(bound)


def _oracle_char(p, q, s, t, N):
    import numpy as np

    if s < 2:
        raise DomainError("oracle needs outer exponent >= 2")
    n = np.arange(1, N + 1, dtype=np.float64)
    chi_q = np.tile(np.array(CHI[q], dtype=np.float64), N // 4 + 1)[:N]
    inner = np.cumsum(chi_q * n ** (-float(t)))
    chi_p = np.tile(np.array(CHI[p], dtype=np.float64), N // 4 + 1)[:N]
    terms = chi_p[1:] * inner[:-1] * n[1:] ** (-float(s))
    value = float(np.sum(terms))
    # |A_q(n)| bound for the tail
    if t >= 2:
        amax = _ZETA2
        extra_log = 0.0
    else:
        amax = 1.0 + math.log(N + 1.0)
        extra_log = 1.0  # A grows like log n; handled by the integral with log below
    if is_mean_zero(p):
        # alternating-block bound: group n in blocks of 4; chi_p sums to 0 over a
        # block, so each block is bounded by 3 * max variation of a_n = n^-s A(n):
        # |a_n - a_m| <= 4 s amax n^-(s+1) + 4 n^-(s+t) over a block.
        def blockbound(x):
            return 12.0 * (s * amax * x ** -(s + 1.0) + 4.0 * x ** -(s + float(t)))

        tail = blockbound(N) + 0.25 * (
            s * amax * 12.0 * N**-s / s + 48.0 * N ** (1.0 - s - t) / (s + t - 1.0)
        )
    else:
        if extra_log:
            # sum_{n>N} (1+log n) n^-s <= integral bound
            tail = N ** (1.0 - s) * ((1.0 + math.log(N)) / (s - 1.0) + 1.0 / (s - 1.0) ** 2)
        else:
            tail = amax * N ** (1.0 - s) / (s - 1.0)
    roundoff = 6.0 * N * _EPS64 * (amax * _ZETA2 + abs(value) + 1.0)
    return value, tail + roundoff


def _oracle_witten(r, s, t, N):
    import numpy as np

    if not witten_convergent(r, s, t):
        raise DomainError("divergent Witten triple")
    n = np.arange(0, N + 1, dtype=np.float64)
    with np.errstate(divide="ignore"):
        u = n ** (-float(r))
        v = n ** (-float(s))
    u[0] = 0.0
    v[0] = 0.0
    value = 0.0
    kw = np.arange(0, N + 1, dtype=np.float64)
    kw[0] = 1.0
    kpow = kw ** (-float(t))
    # c_k = sum_{n=1}^{k-1} u[n] v[k-n]: vr[N-k+1:N] is v[k-1], ..., v[1], contiguous
    vr = v[::-1].copy()
    for k in range(2, N + 1):
        ck = float(np.dot(u[1:k], vr[N - k + 1 : N]))
        value += kpow[k] * ck
    # tail over the diagonal n+m = k > N:
    # c_k <= (k/2)^-s S_r(k) + (k/2)^-r S_s(k)
    def tail_part(x_small, x_other):
        # sum_{k>N} k^-t (k/2)^-x_small * S_{x_other}(k)
        e = t + x_small
        c = 2.0**x_small
        if x_other >= 2:
            return c * _ZETA2 * N ** (1.0 - e) / (e - 1.0)
        if x_other == 1:
            return c * N ** (1.0 - e) * ((1.0 + math.log(N)) / (e - 1.0) + 1.0 / (e - 1.0) ** 2)
        return c * N ** (2.0 - e) / (e - 2.0)  # S_0(k) = k

    tail = tail_part(s, r) + tail_part(r, s)
    roundoff = 4.0 * N * _EPS64 * (abs(value) + 1.0)
    return value, tail + roundoff


def _oracle_harmonic(kind, s, N):
    import numpy as np

    n = np.arange(1, N + 1, dtype=np.float64)
    if kind == "odd_denom":
        H = np.cumsum(1.0 / n)
        value = float(np.sum(H / (2.0 * n + 1.0) ** float(s)))
        # tail: H_n <= 1 + log n, sum_{n>N} (1+log n)(2n+1)^-s <= 2^-s * integral
        tail = 2.0**-s * N ** (1.0 - s) * ((1.0 + math.log(N)) / (s - 1.0) + 1.0 / (s - 1.0) ** 2)
    elif kind == "half_index":
        m = np.arange(1, 2 * N + 1, dtype=np.float64)
        H = np.cumsum(1.0 / m)
        value = float(np.sum(H[2 * np.arange(1, N + 1) - 1] / n ** (2.0 * s)))
        e = 2.0 * s
        tail = N ** (1.0 - e) * ((1.0 + math.log(2 * N)) / (e - 1.0) + 1.0 / (e - 1.0) ** 2)
    else:
        raise DomainError(f"unknown harmonic oracle kind {kind!r}")
    roundoff = 6.0 * N * _EPS64 * (abs(value) + 1.0 + math.log(N + 1.0))
    return value, tail + roundoff


def clear_caches():
    """Drop all numeric caches (mainly for tests)."""
    for cache in (_kernel_cache, _array_cache, _fixed_cache, _value_cache):
        cache.clear()
    del _em_ratios[2:], _euler_ratios[2:]
