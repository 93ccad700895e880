"""Guaranteed-error multiprecision evaluation of zeta-type series.

Everything here reduces to one audited Euler-Maclaurin tail kernel applied per
residue class mod 4: single Dirichlet series (zeta, lambda, eta, beta and the
4-periodic twists), nested double sums with or without character twists, and
the constants pi, log 2 and Li_4(1/2).  Every internal routine returns a pair
(value, bound) where bound is a rigorous upper bound on the absolute
truncation/method error at the working precision; public operations check the
accumulated bound against the context tolerance and raise PrecisionError
instead of returning a value that might violate the contract.

Evaluation scheme for double sums: the outer sum is truncated at N ~ O(P)
and the inner prefix limit is expanded by Euler-Maclaurin in powers of 1/n
(with 4-periodic coefficients and, for divergent inner prefixes, log n and
gamma terms), converting the whole tail into a linear combination of
per-class power/log tails of shifted exponent.

The single series L_p(s) and that combination, with the direct head n <= N,
are summed in exact fixed-point integers at scale 2^W, W = _fixed_bits(D),
about 60 bits below the working precision.  L_p(s) is its head
sum chi_p(n) floor(2^W/n^s) plus the class tails, for s >= 2 from the class
rows G_s below (at the mean-zero s = 1, the regularized class tails).  In a
double sum the inner constant (L_q(t), or the class constants of a divergent
inner sum) is read once in that form, and the cross term C T(r,s) is one
product C_fix G_s.  For each outer class the inner classes are folded first:
their expansion coefficients are added, with their character signs, into one
vector of A_e = floor(c_e N^-e 2^W), and the log coefficients cancel exactly
for a mean-zero inner character.  The tail is then one integer dot product
with the class's row G_u ~ T(r,u) N^u 2^W, and the head a sum of
floor(2^W/m^t) floor(2^W/n^s) products.  Every unit dropped by a floor goes
into the reported bound: with B_u >= |T(r,u) N^u 2^W - G_u| and k folded
classes, a term contributes at most |F_e| B_u + k (B_u + G_u) units of
2^-2W N^-s; the inner remainders are integer units too.

The per-class terms do not depend on the outer character p: _class_pairs sums
them into one pair per class and (q, s, t, D), which all p share and only sign.

Every class tail, plain, log-weighted or regularized, comes from one
Euler-Maclaurin kernel run in exact integers (class_tail, _tail_fixed): from a
start m0 > N in class r, far enough out that the terms fall below the target
before they turn upward, the direct terms N < n < m0 are floors and the rest
is m0^-u times a bracket summed at scale 2^V, V = W + 64.  The plain bracket
is m0/(4(u-1)) + 1/2 + sum_j t_j, t_j(u) = beta_j (u)_(2j-1) / m0^(2j-1) with
beta_j = B_2j 4^(2j-1) / (2j)!.  The exponents of one row (_tail_row) are
built from the highest down, and all those with the same start share one list
of t_j (_EMTerms): since t_j(u) = t_j(u+1) u / (u+2j-1), the list steps down
one exponent by one multiplication and one floor division by small integers
per term.  The ratio is below 1, so each descent adds at most one unit to a
term.  Past the list's end, t_j is one floor division of t_(j-1) by the exact
step ratio (beta_j / beta_(j-1), from one list grown on demand, times
(u+2j-3)(u+2j-2)/m0^2), whose magnitude is at most 1 (_em_step), which adds
one unit more; so after d descents t_j is within j + d units.  A new start
begins a new list, and a lone class_tail is the one-exponent case with d = 0.
The log-weighted tail is minus the u-derivative of the plain one: its bracket
is L (the plain bracket) + m0/(4(u-1)^2) - sum_j t_j h_(2j-1), with
L = log m0 and h_k = sum_(i<k) 1/(u+i); it runs a chain of its own by the
step ratios, where the products t_j h_(2j-1) are a second floor chain next to
t_j.  The regularized u = 1 tail replaces the integral term m0/(4(u-1)) by
-m0 L/4 and sums a list of its own.  L enters only there and in the
log-weighted direct terms, as floor(log n 2^V) from mpmath, within 2 units
that the bound counts.  The bound also counts _EM_SAFETY times the last term
with its units, every other floor and the shift from 2^V to 2^W.  A series
that turns before its target restarts from a start 1.6 times farther out, at
most five times, with a list of its own.
class_tail returns its pair at the rows' scale N^u 2^W (2^W at N = 0).

The inner expansions are integer floor chains too, at scale 2^(W+32): the
EM coefficients of _inner_ct come from the same step chain, and each
(n+delta)^-e term, and log(1 + delta/n) for t = 1, is re-expanded in powers of
1/n by _shift_chain, one floor division per term with a counted error unit,
until the geometric rest of the chain is a few units.  The summed units,
shifted to 2^-W, are the arrays' rnd.

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
from itertools import accumulate, compress, count, cycle
from operator import mul

from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, from_man_exp, round_ceiling, round_nearest

from .errors import DomainError, PrecisionError
# bernoulli is not called here, but perfbench/tracer.py wraps numerics.bernoulli
from .exact import bernoulli, tangent_number  # noqa: F401
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
    """DomainError naming the first of chars that is not a character id."""
    for p in chars:
        if p not in CHI:
            raise DomainError(f"unknown character {p!r}")


def chi(p: str, n: int) -> int:
    _known(p)
    return CHI[p][(n - 1) % 4]


def char_product(p: str, q: str) -> str:
    """The pointwise product character chi_p * chi_q, itself one of the four."""
    _known(p, q)
    prod = tuple(a * b for a, b in zip(CHI[p], CHI[q]))
    return next(name for name, vals in CHI.items() if vals == prod)


def is_mean_zero(p: str) -> bool:
    return sum(CHI[p]) == 0


@dataclass(frozen=True)
class EvalContext:
    """Target precision contract: results are within 10^-prec absolutely.

    Internally everything runs at prec + 10 decimal digits.
    """

    prec: int = 40

    def __post_init__(self):
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
# layers ("L", "head", "pow", "ct", "fold", "C", "pairs", and _tail_row's
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

# beta_j / beta_(j-1) as (num, den) at index j >= 2: the step ratios of _em_step,
# appended as the chains first reach each j
_em_ratios: list = [None, None]


def _outer_cutoff(D: int) -> int:
    return 4 * (int((2.2 * 2.303 * D + 64) / 4) + 1)


def _kernel_start(u: int, D: int) -> int:
    return int(0.75 * 2.303 * D + 0.9 * u) + 16


def class_tail(r: int, u: int, N: int, D: int, logw: bool = False):
    """(X, units) with |T Nu 2^W - X| <= units for the class tail
    T = sum_{n > N, n == r (mod 4)} n^-u (times log n if logw), at the scale of
    the tail rows: Nu = N^u (1 at N = 0) and W = _fixed_bits(D).

    For u == 1, logw False, the *regularized* tail: the limit of the partial
    sum minus (1/4) log X.  Only meaningful inside combinations whose
    coefficients over the four classes sum to zero, where the log X parts
    cancel; callers are responsible for that cancellation.  The integer kernel
    _tail_fixed computes it.
    """
    if u < 1 or (u == 1 and logw):
        raise DomainError("class_tail needs u >= 2, or u == 1 without log weight")
    return _class_tail(r, u, N, D, logw)


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


def _class_tails_fixed(p: str, u: int, N: int, D: int):
    """(X, units): the sums over the classes r with chi_p(r) != 0 of
    chi_p(r) X_r and of units_r for the class_tail(r, u, N, D) pairs, so that
    |sum_r chi_p(r) T_r Nu 2^W - X| <= units at class_tail's scale.  At u = 1
    the T_r are the regularized tails (at N = 0 the class constants C_r, which
    sum to gamma over r), so the sum is the tail of L_p(1) when p is mean-zero."""
    X = units = 0
    for r, c in zip((1, 2, 3, 4), CHI[p]):
        if c:
            x, b = class_tail(r, u, N, D)
            X += c * x
            units += b
    return X, units


# --------------------------------------------------------------------------
# single series
# --------------------------------------------------------------------------


@_memo(_fixed_cache, "L")
def _L_fixed(p: str, s: int, D: int):
    """(X, units) with |L_p(s) 2^W - X| <= units, W = _fixed_bits(D).

    The head n <= N is sum chi_p(n) floor(2^W/n^s) from _pow_row, N floor units.
    The tail, at scale N^s 2^W, is sum_r chi_p(r) G_r[s] from the integer rows
    for s >= 2, within sum_r B_r[s] units, and _class_tails_fixed(p, 1, N, D)
    at the mean-zero s = 1."""
    if s == 1 and not is_mean_zero(p):
        raise DomainError(f"L_{p}(1) diverges")
    N = _outer_cutoff(D)
    Ns = N**s
    row = _pow_row(s, D)
    head = sum(c * sum(row[r::4]) for r, c in zip((1, 2, 3, 4), CHI[p]) if c)
    if s == 1:
        X, units = _class_tails_fixed(p, 1, N, D)
    else:
        X = units = 0
        for r, c in zip((1, 2, 3, 4), CHI[p]):
            if c:
                G, B = _tail_row(r, s, s + 1, D)
                X += c * G[s]
                units += B[s]
    return (head * Ns + X) // Ns, -(-(units + N * Ns) // Ns) + 1


@_memo(_value_cache, "L")
def _L_internal(p: str, s: int, D: int):
    return _from_fixed(*_L_fixed(p, s, D), _fixed_bits(D), D)


def _zeta_internal(s: int, D: int):
    return _L_internal("1", s, D)


def zeta_num(s: int, ctx: EvalContext):
    """zeta(s) for integer s >= 2, within 10^-prec."""
    if s < 2:
        raise DomainError("zeta_num needs s >= 2")
    return _check(_zeta_internal(s, ctx.work_digits), ctx, f"zeta({s})")


def L_num(p: str, s: int, ctx: EvalContext):
    """L_p(s) = sum chi_p(n)/n^s; s >= 2, or s >= 1 for the mean-zero 2b, m4."""
    _known(p)
    if s < 2 and not (s == 1 and is_mean_zero(p)):
        raise DomainError(f"L_{p}({s}) diverges")
    return _check(_L_internal(p, s, ctx.work_digits), ctx, f"L_{p}({s})")


def periodic_tail_num(p: str, s: int, N: int, ctx: EvalContext):
    """sum_{n > N} chi_p(n)/n^s within 10^-(prec+2), per residue class mod 4."""
    _known(p)
    if s < 2 and not (s == 1 and is_mean_zero(p)):
        raise DomainError("periodic tail needs s >= 2 (s = 1 only for mean-zero characters)")
    if N < 0:
        raise DomainError("N must be >= 0")
    D = ctx.work_digits
    X, units = _class_tails_fixed(p, s, N, D)
    Ns = max(N, 1) ** s
    with mp.workdps(D + 10):
        v, b = _from_fixed(X // Ns, -(-units // Ns) + 1, _fixed_bits(D), D)
        if b > mpf(10) ** (-(ctx.prec + 2)):
            raise PrecisionError("periodic tail bound exceeds 10^-(P+2)")
        return v


# --------------------------------------------------------------------------
# inner prefix expansions for double sums
# --------------------------------------------------------------------------

# guard bits of the inner expansions, summed at scale 2^(W + _INNER_GUARD)
_INNER_GUARD = 32
# a _shift_chain stops once the terms it leaves out sum to at most this many units
_CHAIN_REST = 4


def _fixed_bits(D: int) -> int:
    """W: the fixed-point scale 2^W of the double-sum combine, ~60 bits below 10^-(D+10)."""
    return int(3.33 * (D + 10)) + 60


@_memo(_fixed_cache, "head")
def _head_units(D: int) -> int:
    """At least N (3 + log N) 2^W + 1, N = N(D), W = W(D): _char_em's head rounding
    in units of 2^-2W (log N from _log_fixed, within 2 units)."""
    N, W = _outer_cutoff(D), _fixed_bits(D)
    return N * ((3 << W) + _log_fixed(N, W) + 2) + 1


@_memo(_fixed_cache, "pow")
def _pow_row(u: int, D: int):
    """[floor(2^W / n^u) for n = 0..N(D)], with 0 at n = 0."""
    one = 1 << _fixed_bits(D)
    return [0] + [one // n**u for n in range(1, _outer_cutoff(D) + 1)]


def _log_fixed(n: int, bits: int) -> int:
    """floor(log(n) 2^bits), within 2 units of log(n) 2^bits: mpmath's log at
    bits + 32 bits of precision is off by far less than a unit."""
    with mp.workprec(bits + 32):
        return int(mp.floor(mp.ldexp(mp.log(n), bits)))


def _em_step(u: int, j: int, y: int):
    """(num, den) of the EM step ratio q_j = num / den = (beta_j / beta_(j-1))
    (u+2j-3)(u+2j-2) / y^2, j >= 2, with which t_j = t_(j-1) q_j at exponent u
    from y; None where |q_j| > 1: the terms turn upward.  beta_j / beta_(j-1) =
    16 B_2j / (B_(2j-2) (2j)(2j-1)) is read from _em_ratios, grown on demand
    from the tangent numbers (B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))):
    -2 T_k (4^(k-1) - 1) / ((k-1) T_(k-1) (4^k - 1)(2k - 1))."""
    while len(_em_ratios) <= j:
        k = len(_em_ratios)
        q = Fraction(
            -2 * tangent_number(k) * (4 ** (k - 1) - 1),
            (k - 1) * tangent_number(k - 1) * (4**k - 1) * (2 * k - 1),
        )
        _em_ratios.append((q.numerator, q.denominator))
    rn, rd = _em_ratios[j]
    num, den = rn * (u + 2 * j - 3) * (u + 2 * j - 2), rd * y * y
    return None if abs(num) > den else (num, den)


class _EMTerms:
    """The plain EM terms t[j-1] = t_j(u) = beta_j (u)_(2j-1) / m0^(2j-1) of
    one start m0 at scale 2^V, each within j + d units after d descents.  at()
    steps them down to exponent u, t_j(k) = floor(t_j(k+1) k / (k+2j-1)) for
    each k, a ratio below 1 that adds at most one unit per step, or starts
    anew from t_1(u) = floor(u 2^V / (3 m0)) (beta_1 = 1/3) at a new m0 or a
    higher u.  _em_bracket extends the list by _em_step and cuts it at its stop.
    """

    __slots__ = ("m0", "u", "d", "t")

    def __init__(self):
        self.m0 = None

    def at(self, u: int, m0: int, V: int) -> list:
        if m0 != self.m0 or u > self.u:
            self.m0, self.u, self.d, self.t = m0, u, 0, [(u << V) // (3 * m0)]
        for k in range(self.u - 1, u - 1, -1):
            self.t = [x * k // (k + 2 * j - 1) for j, x in enumerate(self.t, 1)]
        self.d += self.u - u
        self.u = u
        return self.t


def _em_bracket(
    u: int, m0: int, m0u: int, V: int, D: int, L: int | None = None, logw: bool = False,
    what: str = "", terms: _EMTerms | None = None,
):
    """The Euler-Maclaurin bracket of class_tail's tail from m0 at scale 2^V:
    the tail from m0 on is m0^-u times
      m0/(4(u-1)) + 1/2 + sum_j t_j           (plain, u >= 2),
      -m0 log(m0)/4 + 1/2 + sum_j t_j         (regularized, u = 1),
      log(m0) (plain) + m0/(4(u-1)^2) - sum_j h_j   (logw, u >= 2),
    with t_j = beta_j (u)_(2j-1) / m0^(2j-1) and h_j = t_j (1/u + ... +
    1/(u+2j-2)); the log-weighted bracket is minus the u-derivative of the
    plain one.  L = floor(log(m0) 2^V), within 2 units, for u = 1 or logw;
    m0u = m0^u.  The plain and regularized brackets sum the terms of `terms`,
    the _EMTerms a row shares (a new one if None), where the j-th is within
    j + d units after d descents; the log-weighted one runs its own chain.

    The sum stops once the last term is below 10^-(D+6) / _EM_SAFETY times the
    scale |integral term| + f(m0) m0^u + 10^-(D+30) m0^u.  Returns
    (x, floors, rem, j): x within `floors` units of the partial sum through j
    terms times 2^V, and rem = _EM_SAFETY (|last term| + its units), which
    bounds the rest; or None if the terms turn upward first.  A sum that does
    not stop in 499 terms raises PrecisionError naming `what`.
    """
    c = 4 * (u - 1)
    if u == 1:  # L's 2 units move m0 L / 4 by m0 / 2, and the floor adds one
        lead, floors = -(m0 * L) // 4, m0 // 2 + 2
    else:
        lead, floors = (m0 << V) // c, 1
    x = lead + (1 << (V - 1))
    if logw:
        lead = (L * lead >> V) + (m0 << V) // (c * (u - 1))
    scale = abs(lead) + (L if logw else 1 << V) + (m0u << V) // 10 ** (D + 30)
    lim = scale // (_EM_SAFETY * 10 ** (D + 6))
    if not logw:
        if terms is None:
            terms = _EMTerms()
        t = terms.at(u, m0, V)
        j = next(compress(count(1), map(lim.__gt__, map(abs, t))), 0)  # the first |t_j| < lim
        while not j:
            if len(t) == 499:
                raise PrecisionError(f"EM correction loop exhausted for {what}")
            step = _em_step(u, len(t) + 1, m0)
            if step is None:
                return None
            t.append(t[-1] * step[0] // step[1])
            if abs(t[-1]) < lim:
                j = len(t)
        del t[j:]
        d = terms.d
        return x + sum(t), floors + j * (j + 1) // 2 + j * d, _EM_SAFETY * (abs(t[-1]) + j + d), j
    # h_j = q_j (h_(j-1) + t_(j-1) (1/(u+2j-3) + 1/(u+2j-2))) from h_1 = t_1 / u
    t, h, hsum = (u << V) // (3 * m0), (1 << V) // (3 * m0), 0
    for j in range(1, 500):
        if j > 1:
            step = _em_step(u, j, m0)
            if step is None:
                return None
            num, den = step
            h = (h * num + _em_ratios[j][0] * (2 * u + 4 * j - 5) * t) // den
            t = t * num // den
        x += t
        hsum += h
        term = (L * t >> V) - h
        if abs(term) < lim:
            break
    else:
        raise PrecisionError(f"EM correction loop exhausted for {what}")
    # with log(m0) 2^V within 2 units of L, L x is within 2 |x| + (L + 2) floors
    # units of 2^-2V of its exact product; the shift and m0/(4(u-1)^2) are one
    # floor each, t_i is within i units and h_i within i (i+1) / 2
    floors += j * (j + 1) // 2
    term_units = ((2 * abs(t) + (L + 2) * j) >> V) + 2 + j * (j + 1) // 2
    floors = ((2 * abs(x) + (L + 2) * floors) >> V) + 3 + j * (j + 1) * (j + 2) // 6
    x = (L * x >> V) + (m0 << V) // (c * (u - 1)) - hsum
    return x, floors, _EM_SAFETY * (abs(term) + term_units), j


def _tail_fixed(r: int, u: int, N: int, D: int, logw: bool = False, terms: _EMTerms | None = None):
    """(G, B) with |T Nu 2^W - G| <= B for class_tail's tail T, Nu = N^u (1 at
    N = 0), W = _fixed_bits(D).

    Euler-Maclaurin for f(x) = (4x + m0)^-u (times log(4x + m0) if logw) in
    exact integers at scale 2^V, V = W + 64, from the kernel's start m0: the
    direct terms N < n < m0 are floors (with log n from _log_fixed if logw) and
    the rest is m0^-u times _em_bracket.  B counts every floor unit, the
    bracket's units and remainder and the shift from 2^V to 2^W.  `terms` is
    the _EMTerms a row shares for its plain brackets from the kernel's start; a
    restart farther out sums a list of its own.
    """
    V = _fixed_bits(D) + 64
    Nu = max(N, 1) ** u
    start_min = _kernel_start(u, D)
    what = f"class {r}, exponent {u}, log weight {logw}, N={N}, D={D}"
    for _ in range(5):
        m0 = max(N, start_min) + 1
        m0 += (r - m0) % 4
        m0u = m0**u
        L = _log_fixed(m0, V) if logw or u == 1 else None
        em = _em_bracket(u, m0, m0u, V, D, L, logw, what, terms)
        if em is None:
            start_min = int(start_min * 1.6) + 8  # the series turned: restart farther out
            terms = None
            continue
        x, floors, rem, _ = em
        head = range(N + 1 + (r - N - 1) % 4, m0, 4)
        if logw:
            # Nu <= n^u: each term within 2 units of its log and 1 of its floor
            s, err = sum(Nu * _log_fixed(n, V) // n**u for n in head), 3 * len(head)
        else:
            s, err = sum((Nu << V) // n**u for n in head), len(head)
        s += x * Nu // m0u
        err += 1 - (-(floors + rem) * Nu // m0u)  # units of 2^-V, then of 2^-W after the shift
        return s >> 64, ((err - 1) >> 64) + 2
    raise PrecisionError(f"EM tail did not converge for {what}")


# class_tail's memoized kernel, keyed (r, u, N, D, logw)
_class_tail = _memo(_kernel_cache)(_tail_fixed)


def _tail_row(r: int, lo: int, hi: int, D: int):
    """Lists (G, B) indexed by exponent u, filled at least for lo <= u < hi:
    G[u] = floor(T N^u 2^W) up to B[u] >= |T N^u 2^W - G[u]| units for the class
    tail T of class_tail(r, u, N, D), N = _outer_cutoff(D).  The missing
    entries are filled from the highest u down and share one _EMTerms: at the
    same start m0, t_j(u) = floor(t_j(u+1) u / (u+2j-1)), one multiplication
    and one division by small integers per term, which adds one unit to it;
    the exact step ratio runs only past the list's end.  Start, stop test and
    restarts are class_tail's, which is the one-exponent case.
    """
    G, B = row = _fixed_cache.setdefault(("tail", r, D), ([], []))
    if len(G) < hi:
        G.extend([None] * (hi - len(G)))
        B.extend([None] * (hi - len(B)))
    terms = _EMTerms()
    for u in range(hi - 1, lo - 1, -1):
        if G[u] is None:
            G[u], B[u] = _tail_fixed(r, u, _outer_cutoff(D), D, terms=terms)
    return row


@_memo(_fixed_cache, "ct")
def _inner_ct(t: int, N: int, D: int):
    """EM expansion of sum_{k>=0} (y+4k)^-t in powers y^-e, valid for y >= N, in
    integers at scale 2^V, V = _fixed_bits(D) + _INNER_GUARD.

    Returns (terms, (crem, erem)): terms lists (e, a, err) with
    |c_e N^-e 2^V - a| <= err for the coefficient c_e of y^-e, and the remainder
    is at most crem 2^-V (N/y)^erem.  For t == 1 the leading part is -log(y)/4
    (the regularized class-harmonic tail), which is not listed.
    a_(t-1) = 2^V / (4(t-1) N^(t-1)), a_t = 2^V / (2 N^t) and
    a_(t+1) = t 2^V / (3 N^(t+1)) are floors; each later term is one floor
    division of the one before by the exact step ratio times
    (t+2j-3)(t+2j-2) / N^2, of magnitude at most 1, so the j-th is within j
    units.  The series stops at the kernel's target _EM_SAFETY |c_e| N^-e <
    10^-(D+6) N^-t, or once _EM_SAFETY |a| is below a unit of 2^-W, which the
    floors can not resolve (the case for large t); the remainder is
    _EM_SAFETY (|a| + j) for the first term left out.  The shifts of one
    inner array share it.
    """
    V = _fixed_bits(D) + _INNER_GUARD
    Nt = N**t
    terms = [(t - 1, (N << V) // (4 * (t - 1) * Nt), 1)] if t > 1 else []
    terms.append((t, (1 << V) // (2 * Nt), 1))
    lim = max((1 << V) // (10 ** (D + 6) * Nt), 1 << _INNER_GUARD)
    a = (t << V) // (3 * Nt * N)  # beta_1 = 1/3
    for j in range(1, 500):
        if j > 1:
            step = _em_step(t, j, N)
            if step is None:
                raise PrecisionError(f"inner EM series turned at j={j} before target (t={t}, N={N})")
            a = a * step[0] // step[1]
        if _EM_SAFETY * abs(a) < lim:
            return terms, (_EM_SAFETY * (abs(a) + j), t + 2 * j - 1)
        terms.append((t + 2 * j - 1, a, j))
    raise PrecisionError(f"inner EM loop exhausted (t={t}, N={N})")


def _shift_chain(comp: dict, e: int, i: int, b: int, err: int, delta: int, N: int, V: int) -> int:
    """Add the series of b N^e (n+delta)^-e (i = 0, the binomial series), or of
    -b (N/delta) log(1 + delta/n) (e = 0, i = 1), in powers (N/n)^(e+k) to
    comp[e + k]: its k-th coefficient is (-1)^k b_k, with b_i = b and
    b_(k+1) = floor(b_k (e+k) delta / ((k+1) N)).

    b is within err units; returns the units by which comp may be off: each
    b_k is within err_k units, err_(k+1) = ceil(err_k (e+k) delta / ((k+1) N)) + 1,
    honest also while that ratio is above 1, plus the geometric rest of the terms
    left out.  The chain stops once the ratio is below 1 and that rest is at most
    _CHAIN_REST units; it gives up after V + 2e terms.
    """
    units = 0
    for k in range(i, i + V + 2 * e):
        comp[e + k] = comp.get(e + k, 0) + (-b if k & 1 else b)
        units += err
        num, den = (e + k) * delta, (k + 1) * N
        # every later ratio is at most q: (e+m)/(m+1) falls to 1 for e >= 1, rises to it for e = 0
        qn, qd = (num, den) if e else (delta, N)
        if qn < qd and (abs(b) + err) * qn <= _CHAIN_REST * (qd - qn):
            return units + _CHAIN_REST
        b = b * num // den
        err = -(-err * num // den) + 1
    raise PrecisionError(f"shift re-expansion did not converge (u={e}, delta={delta}, N={N})")


@_memo(_array_cache)
def _inner_array(t: int, delta: int, D: int):
    """Fixed-point coefficients of the class inner tail at shift delta.

    The tail of sum_{m >= n+delta, step 4} m^-t equals
    logcoef*log n + sum_e c_e n^-e + R,  |R| <= crem n^-erem  for n > N(D).
    Returns (emin, A, logcoef, (rem, erem), rnd) with A[e - emin] =
    floor(x_e / 2^G), 0 for an absent exponent, G = _INNER_GUARD and
    W = _fixed_bits(D): x_e sums the _shift_chain re-expansions of _inner_ct's
    terms at n + delta (and of -log(1 + delta/n)/4 for t = 1) at scale
    N^-e 2^(W+G), and sum_e |c_e N^-e 2^(W+G) - x_e| is at most the chains' units,
    so sum_e |c_e N^-e 2^W - A[e - emin]| <= rnd + len(A) with
    rnd = ceil(units / 2^G) + 1.  Every coefficient is an exact rational and
    every step an integer floor.  rem = crem N^(1-erem) 2^2W in integer units,
    from _inner_ct's remainder at y = n + delta > N.
    """
    N, W = _outer_cutoff(D), _fixed_bits(D)
    V = W + _INNER_GUARD
    terms, (crem, erem) = _inner_ct(t, N, D)
    comp: dict = {}
    units = 0
    if t == 1 and delta:
        # log(n+delta) = log n + sum_{i >= 1} (-1)^(i-1) delta^i / (i n^i), times -1/4
        units += _shift_chain(comp, 0, 1, (delta << V) // (4 * N), 1, delta, N, V)
    for e, a, err in terms:
        units += _shift_chain(comp, e, 0, a, err, delta, N, V)
    emin = min(comp)
    A = [0] * (max(comp) - emin + 1)
    for e, x in comp.items():
        A[e - emin] = x >> _INNER_GUARD
    logc = Fraction(-1, 4) if t == 1 else 0
    return emin, A, logc, (crem * N << (W - _INNER_GUARD), erem), (units >> _INNER_GUARD) + 2


@_memo(_fixed_cache, "fold")
def _folded_inner(q: str, t: int, r: int, D: int):
    """The inner arrays of q's classes seen from outer class r, summed with
    their character signs.

    Returns (emin, F, k, log4, rems, rnd): F[e - emin] is the folded
    fixed-point coefficient, within k units (k = number of classes folded) of
    the fold of the arrays' coefficients; log4 is 4 times the folded log
    coefficient (0 for a mean-zero q, else -sum chi_q), rems the per-class
    remainder (rem, erem) pairs and rnd the summed rounding units.
    """
    parts = [(c, _inner_array(t, (rp - r) % 4, D)) for rp, c in zip((1, 2, 3, 4), CHI[q]) if c]
    emin = min(arr[0] for _, arr in parts)
    F = [0] * (max(arr[0] + len(arr[1]) for _, arr in parts) - emin)
    for c, (e0, A, _, _, _) in parts:
        for i, a in enumerate(A, e0 - emin):
            F[i] += c * a
    log4 = sum(c * int(4 * arr[2]) for c, arr in parts)
    rems = [arr[3] for _, arr in parts]
    return emin, F, len(parts), log4, rems, sum(arr[4] for _, arr in parts)


def _inner_const(q: str, t: int, D: int):
    """(X, units) with |C 2^W - X| <= units, W = _fixed_bits(D), for the constant C
    of the inner prefix sum_{m<n} chi_q(m) m^-t: L_q(t), or for a divergent inner
    sum (t = 1, q not mean-zero) sum_r chi_q(r) C_r over the class constants."""
    if t > 1 or is_mean_zero(q):
        return _L_fixed(q, t, D)
    return _class_consts(q, D)


@_memo(_fixed_cache, "C")
def _class_consts(q: str, D: int):
    return _class_tails_fixed(q, 1, 0, D)


# --------------------------------------------------------------------------
# character double sums
# --------------------------------------------------------------------------


def _char_convergent(p, q, s, t):
    if p not in CHAR_IDS or q not in CHAR_IDS:
        return False
    if t < 1:
        return False
    if s >= 2:
        return True
    # s == 1 needs a mean-zero outer character (conditional convergence)
    return s == 1 and is_mean_zero(p)


@_memo(_fixed_cache, "pairs")
def _class_pairs(q: str, s: int, t: int, D: int):
    """(acc_r, units_r) for r = 1..4 at scale 2^-2W N^-s: the head, fold, cross and
    log terms of [p,q](s,t)'s outer class r, which _char_em signs with chi_p(r)."""
    N, W = _outer_cutoff(D), _fixed_bits(D)
    Ns = N**s
    # head n <= N: floor(2^W/n^s) * sum_{m<n} chi_q(m) floor(2^W/m^t), whose
    # floors drop < N (3 + log N) 2^W units in all (_head_units)
    prefix = list(accumulate(map(mul, cycle(CHI[q][3:] + CHI[q][:3]), _pow_row(t, D))))
    outer = _pow_row(s, D)
    C, Cu = _inner_const(q, t, D)
    pairs = []
    for r in (1, 2, 3, 4):
        acc = sum(map(mul, outer[r::4], prefix[r - 1 : N : 4])) * Ns
        emin, F, k, log4, rems, rnd = _folded_inner(q, t, r, D)
        lo = s + emin
        hi = lo + len(F)
        G, B = _tail_row(r, s if s > 1 else lo, hi, D)
        Gs, Bs = G[lo:hi], B[lo:hi]
        acc -= sum(map(mul, F, Gs))
        # the folded floors, and the coefficients' rounding: rnd 2^-W at each n > N
        # against the row's first entry, the largest T(r,u) N^u of the slice
        units = sum(map(mul, map(abs, F), Bs)) + k * (sum(Bs) + sum(Gs)) + rnd * (Gs[0] + Bs[0])
        # sum_{n > N} rem n^(-s-erem) <= rem N^(1-s-erem) / (s+erem-1)
        units += sum(-(-rem // (s + erem - 1)) for rem, erem in rems)
        if s > 1:
            # C T_r: C 2^W within Cu units, T_r N^s 2^W within B[s]
            acc += C * G[s]
            units += abs(C) * B[s] + Cu * (G[s] + B[s])
        if log4:
            # the log-weighted tail at scale 2^W N^s, times log4 / 4
            X, Xu = class_tail(r, s, N, D, logw=True)
            acc -= log4 * X << (W - 2)
            units += abs(log4) * Xu << (W - 2)
        pairs.append((acc, units))
    return tuple(pairs)


def _char_fixed(p: str, q: str, s: int, t: int, D: int):
    """(x, units) with |[p,q](s,t) 2^(2W) - x| <= units, W = _fixed_bits(D): the
    combine of the cached _class_pairs with chi_p's signs, itself not cached."""
    if not _char_convergent(p, q, s, t):
        raise DomainError(f"[{p},{q}]({s},{t}) is outside the convergence region")
    if t == 1 and s == 1 and not is_mean_zero(q):
        # needs a regularized combination of the log-weighted u = 1 class tails
        raise DomainError(f"[{p},{q}](1,1): the divergent-inner s = 1 case is not supported yet")
    N = _outer_cutoff(D)
    Ns = N**s
    acc, units = 0, _head_units(D) * Ns
    for cp, (a, u) in zip(CHI[p], _class_pairs(q, s, t, D)):
        if cp:
            acc += cp * a
            units += u
    if s == 1:
        # C times the regularized tail sum_r chi_p(r) T_r(1) of the mean-zero L_p(1)
        C, Cu = _inner_const(q, t, D)
        R, Ru = _class_tails_fixed(p, 1, N, D)
        acc += C * R
        units += abs(C) * Ru + Cu * (abs(R) + Ru)
    return acc // Ns, -(-units // Ns) + 1


@_memo(_value_cache, "cs")
def _char_em(p: str, q: str, s: int, t: int, D: int):
    """(value, bound) of [p,q](s,t) by the accelerated double-sum scheme."""
    return _from_fixed(*_char_fixed(p, q, s, t, D), 2 * _fixed_bits(D), D)


def char_dzeta_num(p: str, q: str, s: int, t: int, ctx: EvalContext):
    """[p,q](s,t) = sum_{n>m>=1} chi_p(n) chi_q(m) / (n^s m^t), within 10^-prec.

    [1,1] is the plain double zeta value; a 2b slot is the alternating bar.
    s = 1 is accepted for mean-zero outer characters (2b, m4); s = t = 1 also
    needs a mean-zero inner character (the divergent-inner corner raises).
    """
    return _check(_char_em(p, q, s, t, ctx.work_digits), ctx, f"[{p},{q}]({s},{t})")


def _dzeta_internal(a: int, b: int, D: int):
    return _char_em("1", "1", a, b, D)


def dzeta_num(a: int, b: int, ctx: EvalContext):
    """zeta(a, b) = sum_{n>m>=1} n^-a m^-b for a >= 2, b >= 1, within 10^-prec."""
    if a < 2 or b < 1:
        raise DomainError("dzeta_num needs a >= 2, b >= 1")
    return _check(_dzeta_internal(a, b, ctx.work_digits), ctx, f"zeta({a},{b})")


# --------------------------------------------------------------------------
# Witten double sums and harmonic-number sums
# --------------------------------------------------------------------------


def witten_convergent(r: int, s: int, t: int) -> bool:
    return min(r, s, t) >= 0 and r + t >= 2 and s + t >= 2 and r + s + t >= 3


@functools.cache
def witten_terms(r: int, s: int, t: int) -> dict:
    """W(r,s,t) as {boundary term: integer coefficient}, through the
    partial-fraction recursion W(r,s,t) = W(r-1,s,t+1) + W(r,s-1,t+1): the term
    ("zz", a, b) is W(a,b,0) = zeta(a) zeta(b), ("dz", a, 0) is
    W(0,0,a) = zeta(a-1) - zeta(a) and ("dz", a, b) is zeta(a, b).  Memoized and
    shared, so callers do not change it."""
    if not witten_convergent(r, s, t):
        raise DomainError(f"W({r},{s},{t}) diverges")
    if t == 0:  # r, s >= 2 by convergence
        return {("zz", r, s): 1}
    if r == 0 or s == 0:
        return {("dz", t, r + s): 1}
    out = dict(witten_terms(r - 1, s, t + 1))
    for k, c in witten_terms(r, s - 1, t + 1).items():
        out[k] = out.get(k, 0) + c
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
    """W(r,s,t) = sum_{n,m>=1} n^-r m^-s (n+m)^-t, evaluated through the exact
    recursion down to zeta / double-zeta boundary values."""
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
        if isinstance(g, tuple) and g[0] == "z":
            return _zeta_internal(g[1], D)
    raise DomainError(f"unknown constant generator {g!r}")


def generator_num(g, ctx: EvalContext):
    """Numeric value of a constant generator: 'pi', 'log2', 'li4h' or ('z', k)."""
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
    if series == "dzeta":
        a, b = params
        value, bound = _oracle_char("1", "1", a, b, N)
    elif series == "char_dzeta":
        p, q, s, t = params
        value, bound = _oracle_char(p, q, s, t, N)
    elif series == "witten":
        r, s, t = params
        value, bound = _oracle_witten(r, s, t, N)
    elif series == "harmonic":
        kind, s = params
        value, bound = _oracle_harmonic(kind, s, N)
    else:
        raise DomainError(f"unknown oracle series {series!r}")
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
    del _em_ratios[2:]
