"""Experimental rediscovery of weighted double-zeta sum identities.

Ansatz families over sum_j weight(s,j) * zeta(j, s-j) (or the even-argument
variant zeta(2j, 2s-2j)) are solved exactly against the weight <= 7 reduction
tables, assuming the basis constants are algebraically independent over Q, and
surviving candidates are screened numerically at two higher weights.  The
numeric stage can only reject, never accept: acceptance is exact arithmetic
throughout.  Each fact of a family is one table entry: its shape (argument
scale and j range, `_SHAPES`), the f(s) basis (`F_BASIS`), the polynomial
monomials (`_MONOS`) and the anchor weights (`ANCHORS`).

Even-argument symmetric families (weights invariant under j -> s-j) certify
exactly at *every* weight, because the reflection formula turns the sum into
an even-zeta convolution; that is what singles the symmetric shape out.

Deduplication is by exact per-weight span membership: a candidate is emitted
only if, at some weight, its relation vector over (zeta(j, w-j) | zeta(w)) lies
outside the rational span of the already-emitted relations at that weight.
Relations are primitive integer rows, memoized per candidate.  The span test
is a set of integer check rows spanning the null space of the emitted rows at
one weight, memoized on that tuple of rows (`_span_checks`), so it is rebuilt
only when a candidate is emitted; a relation is in the span iff every check
row is orthogonal to it.

The exact algebra is precomputed where it does not depend on the candidate,
and runs on ints, so the per-candidate work is integer dot products.
Anchor tables: per anchor weight w = 4..7 and j-parity, `_anchor_table` holds
the integer vanishing rows (one per non-zeta(w) monomial of the reductions of
zeta(j, w-j)) and the integer target row, over one denominator.  Weights x_j
pass the vanishing conditions iff every row dots to 0 with x, and then
f(w) = target . x / den.  A candidate's weights come as integers over one
denominator (`_scaled_weights`, `_affine_weights`, from running powers of its
bases kept across weights), so its fit is dot products with these rows.
Vanishing bases: the weights x^j pass an anchor's vanishing conditions iff
x is a root of each row's polynomial sum_j row[j] x^j, so the power stages
take the rational roots of one row within height H (`_rational_roots`) and
keep those at which the condition vector V_i = sum_j row_i[j] p^j q^(w-1-j)
of x = p/q (a positive multiple of the rows at x) vanishes at every anchor
(`_vanishing_bases`).  Bases stay integer pairs (p, q) until a candidate is
yielded.
Fit plans: the f(s) fit over F_SPAN eliminates each basis-subset matrix of
integer span values once per tuple of anchor s-values (fraction-free, through
`exact._rref`), keeping the solution rows and the integer left-null rows.
Keyed affine pairing: b^j + c^s d^j can only pass the vanishing conditions
when, at every anchor weight, the condition vectors of b and d are both zero
or both nonzero and parallel; keying each pool value by the primitive integer
directions of its vectors, d runs only over b's key group instead of the
whole pool.  A pairing whose weights vanish on its whole (j, s) class
(d = -b, c = +-1) states 0 = 0 and is dropped before its fit.
Full-span gate: a fit first checks the plan's largest independent subset
(all of F_SPAN at six or more distinct s), whose span holds every subset
fit; a failure there ends the fit without the subset scan.
Symmetric-even f(s): for the weight d^j + d^(s-j), f(s) = P_s(d) with P_s a
polynomial whose coefficients are fixed once per s (`_symmetric_even_poly`);
the fit at s = 2..8 has one check row n, so d runs over the rational roots
of sum_s n_s P_s(d).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from operator import mul

from mpmath import mp, mpf

from . import numerics
from .errors import DomainError, PrecisionError, require_ints
from .exact import _rref
from .reductions import dzeta_reduce
from .symexpr import ConstExpr, zeta_even_coef, zeta_sym

# The f(s) basis: name -> its integer value at s.
F_BASIS = {
    "1": lambda s: 1,
    "s": lambda s: s,
    "s^2": lambda s: s * s,
    "2^s": lambda s: 2**s,
    "4^s": lambda s: 4**s,
    "s*4^s": lambda s: s * 4**s,
}
F_SPAN = tuple(F_BASIS)

# The weights w whose double zeta values reduce exactly: the search's anchors.
ANCHORS = (4, 5, 6, 7)


def f_eval(coeffs: dict, s: int) -> Fraction:
    return sum((c * F_BASIS[k](s) for k, c in coeffs.items()), Fraction(0))


def render_f(coeffs: dict, var: str = "s") -> str:
    if not coeffs:
        return "0"
    parts = []
    for name in F_SPAN:
        c = coeffs.get(name)
        if not c:
            continue
        body = name.replace("s", var) if name != "1" else ""
        mag = abs(c)
        text = (body if mag == 1 else f"{mag}*{body}") if body else str(mag)
        parts.append((("- " if c < 0 else "+ ") + text) if parts else (("-" if c < 0 else "") + text))
    return " ".join(parts)


# ---------------------------------------------------------------------------
# exact anchors
# ---------------------------------------------------------------------------


def _parity_ok(x: int, parity: str) -> bool:
    return parity == "any" or (x % 2 == 0) == (parity == "even")


def reduce_weighted_sum(weight_fn, w: int, parity: str = "any") -> ConstExpr:
    """Exact ConstExpr of sum_j weight_fn(w, j) * zeta(j, w-j) over 2 <= j <= w-1
    restricted to the given j-parity; weights must be rational."""
    if w not in ANCHORS:
        raise DomainError("weighted sums reduce exactly only for weights 4..7")
    total = ConstExpr.zero
    for j in range(2, w):
        if not _parity_ok(j, parity):
            continue
        c = weight_fn(w, j)
        if not isinstance(c, (int, Fraction)):
            raise DomainError(f"weight at (w={w}, j={j}) is not rational: {c!r}")
        if c:
            total = total + dzeta_reduce(j, w - j) * Fraction(c)
    return total


def weighted_sum_f(weight_fn, w: int, j_parity: str = "any"):
    """Rational f with sum_j weight_fn(w,j) zeta(j,w-j) = f zeta(w), or None."""
    expr, zw = reduce_weighted_sum(weight_fn, w, j_parity), zeta_sym(w)
    ((zmono, zcoef),) = zw.items()
    f = expr.coefficient(zmono) / zcoef
    return f if expr - zw * f == ConstExpr.zero else None


def _zeta_even_ratio(j: int, s: int) -> Fraction:
    """zeta(2j) zeta(2s-2j) / zeta(2s) as an exact rational."""
    return zeta_even_coef(j) * zeta_even_coef(s - j) / zeta_even_coef(s)


def even_arg_sum_f(weight_fn, s: int, lo: int, hi_off: int) -> Fraction:
    """Exact f(s) with sum_{j=lo}^{s-hi_off} weight_fn(s,j) zeta(2j, 2s-2j) = f(s) zeta(2s).

    Requires the weight to be symmetric under j -> s-j on a symmetric range
    ((lo, hi_off) is (1,1) or (2,2)); symmetry folds the double zetas into half
    an even-zeta convolution, exact at every weight.
    """
    if (lo, hi_off) not in ((1, 1), (2, 2)):
        raise DomainError(
            f"even-argument sums need (lo, hi_off) = (1, 1) or (2, 2), got {(lo, hi_off)}"
        )
    total = Fraction(0)
    for j in range(lo, s - hi_off + 1):
        c = Fraction(weight_fn(s, j))
        if c != Fraction(weight_fn(s, s - j)):
            raise DomainError("even-argument family needs a j -> s-j symmetric weight")
        if c:
            total += c * (_zeta_even_ratio(j, s) - 1)
    return total / 2


@functools.cache
def _symmetric_even_poly(s: int):
    """P_s(x) = 1/2 sum_{j=1}^{s-1} (zeta(2j) zeta(2s-2j)/zeta(2s) - 1)(x^j + x^(s-j)),
    so that P_s(d) is even_arg_sum_f of the weight d^j + d^(s-j) on (1, 1).
    Returns (ints, den): the coefficient of x^k, k = 1..s-1, is ints[k-1] / den."""
    half = [(_zeta_even_ratio(j, s) - 1) / 2 for j in range(1, s)]
    return _integer_scale([half[k - 1] + half[s - k - 1] for k in range(1, s)])


def _symmetric_even_f(s: int, d: Fraction) -> Fraction:
    """P_s(d) for d = p/q, as sum_k ints[k-1] p^k q^(s-1-k) / (den q^(s-1))."""
    ints, den = _symmetric_even_poly(s)
    p, q = d.numerator, d.denominator
    acc, pk = 0, 1
    for a in ints:
        pk *= p
        acc = acc * q + a * pk
    return Fraction(acc, den * q ** (s - 1))


# ---------------------------------------------------------------------------
# span fitting and exact linear algebra helpers
# ---------------------------------------------------------------------------


def fit_span_minimal(points):
    """Smallest-support exact interpolation of (s, f) points over F_SPAN.

    Tries subsets in order of (size, basis position); a fit must reproduce
    every point exactly and determine every coefficient.  None if nothing fits.
    The subset matrices depend only on the s-values, so they are eliminated
    once per s-tuple (`_fit_plan`) and each fit is integer dot products.
    Full-span gate: the plan's last subset is a largest independent one, so
    its span values at the points span those of all of F_SPAN (it is F_SPAN
    itself once six distinct s determine every coefficient).  Any subset fit
    lies in that span, so when the last subset's check rows fail nothing
    fits, and the scan is skipped.
    """
    points = list(points)
    if not points:
        return None
    ints, den = _integer_scale([f for _, f in points])
    plan = _fit_plan(tuple(s for s, _ in points))

    def fails(checks):
        return any(sum(map(mul, row, ints)) for row in checks)

    if fails(plan[-1][2]):
        return None
    for subset, solve, checks in plan:
        if fails(checks):
            continue
        sol = (Fraction(sum(map(mul, row, ints)), rden * den) for row, rden in solve)
        return {F_SPAN[i]: c for i, c in zip(subset, sol) if c}
    return None


@functools.lru_cache(maxsize=64)
def _fit_plan(svals: tuple):
    """Per F_SPAN subset, in fit order, the elimination of the integer matrix
    [A | I] with A the subset's span values at svals: E A = [I; 0] for an
    invertible E.  The system A x = v is then consistent iff the lower rows of
    E annihilate v, and x is the upper rows of E times v.  Subsets that are
    not determined at svals are dropped.  Entries are (subset, solve,
    checks): solve rows as (integer row, denominator), checks as primitive
    integer rows (the lower rows, integer multiples of E's, as `_rref` leaves
    them)."""
    n = len(svals)
    plan = []
    for size in range(0, min(len(F_SPAN), n) + 1):
        for subset in itertools.combinations(range(len(F_SPAN)), size):
            aug = [
                [F_BASIS[F_SPAN[i]](s) for i in subset] + [int(k == r) for k in range(n)]
                for r, s in enumerate(svals)
            ]
            if len(_rref(aug, size)) != size:
                continue
            solve = tuple(_integer_scale(row[size:]) for row in aug[:size])
            checks = tuple(_primitive_ints(row[size:]) for row in aug[size:])
            plan.append((subset, solve, checks))
    return tuple(plan)


def _solve_consistent(rows, vals, ncols):
    """Exact solve of a (possibly overdetermined) system; None unless it is
    consistent and determines every column.  The one-system reference for
    the precomputed fit plans."""
    aug = [row[:] + [v] for row, v in zip(rows, vals)]
    pivots = _rref(aug, ncols)
    if len(pivots) != ncols or any(row[ncols] for row in aug[ncols:]):
        return None
    return [row[ncols] for row in aug[:ncols]]


def _nullspace(rows, ncols):
    """Nullspace basis of an exact homogeneous system."""
    aug = [row[:] for row in rows]
    pivots = _rref(aug, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -aug[i][fc]
        basis.append(vec)
    return basis


def _integer_scale(vec):
    """(ints, den) with vec == ints / den and den the lcm of the denominators."""
    den = math.lcm(*(x.denominator for x in vec))
    return [x.numerator * (den // x.denominator) for x in vec], den


def _primitive(vec):
    """The integer-primitive multiple of a rational vector with a positive
    lead; a zero vector stays zero."""
    return _primitive_ints(_integer_scale(vec)[0])


def _primitive_ints(ints):
    """The primitive multiple of an integer vector with a positive lead."""
    g = math.gcd(*ints)
    if next((x for x in ints if x), 0) < 0:
        g = -g
    return [x // g for x in ints] if g else ints


def _pair(x) -> tuple:
    """The integer pair (p, q) of a rational x = p/q in lowest terms, q > 0."""
    return x.numerator, x.denominator


_ONE, _ZERO = (1, 1), (0, 1)


def _base_powers(memo: dict, x, n: int):
    """([p^0 .. p^n ...], [q^0 .. q^n ...]) for x = (p, q): running powers
    kept in memo under the pair, extended in place when n grows."""
    num, den = memo.get(x) or memo.setdefault(x, ([1], [1]))
    p, q = x
    while len(num) <= n:
        num.append(num[-1] * p)
        den.append(den[-1] * q)
    return num, den


def _affine_weights(a, b, c, d, s: int, js, powers: dict):
    """(ints, den) with a b^j + c^s d^j == ints[i] / den for the increasing,
    nonempty js, over the common denominator a_q c_q^s b_q^top d_q^top
    (top = js[-1]); a..d are integer pairs, powered through the memo powers."""
    top = js[-1]
    bn, bq = _base_powers(powers, b, top)
    dn, dq = _base_powers(powers, d, top)
    cn, cq = _base_powers(powers, c, s)
    left = a[0] * cq[s] * dq[top]
    right = cn[s] * a[1] * bq[top]
    ints = [left * bn[j] * bq[top - j] + right * dn[j] * dq[top - j] for j in js]
    return ints, a[1] * cq[s] * bq[top] * dq[top]


def _canonical_scale(vec):
    """Scale a rational vector to integer-primitive with positive lead."""
    return [Fraction(x) for x in _primitive(vec)]


# ---------------------------------------------------------------------------
# candidates
# ---------------------------------------------------------------------------

# The shape of each family's sum: at s it runs over zeta(kj, k(s-j)), a sum of
# weight w = ks, for j = lo..s - off in the j-parity class.
_SHAPES = {  # family: (k, lo, off)
    "power": (1, 2, 1),
    "affine": (1, 2, 1),
    "poly": (1, 2, 1),
    "symmetric-even": (2, 1, 1),
    "poly-even": (2, 2, 2),
}

# The poly monomials: name (also its DSL text) -> (degree, value at (s, j),
# families).  "poly" spans the polynomials in j and s, "poly-even" those
# symmetric under j -> s-j.
_MONOS = {
    "1": (0, lambda s, j: 1, ("poly", "poly-even")),
    "j": (1, lambda s, j: j, ("poly",)),
    "s": (1, lambda s, j: s, ("poly", "poly-even")),
    "j^2": (2, lambda s, j: j * j, ("poly",)),
    "j*s": (2, lambda s, j: j * s, ("poly",)),
    "s^2": (2, lambda s, j: s * s, ("poly", "poly-even")),
    "j*(s-j)": (2, lambda s, j: j * (s - j), ("poly-even",)),
}


def _monos(family: str, deg: int) -> list:
    """The monomials of a poly family up to degree deg, in table order."""
    return [m for m, (d, _, fams) in _MONOS.items() if d <= deg and family in fams]


@dataclass
class CandidateIdentity:
    family: str  # power | affine | symmetric-even | poly | poly-even
    params: dict
    j_parity: str = "any"
    s_parity: str = "any"
    f_coeffs: dict = field(default_factory=dict)
    status: str = "exact<=7"
    _relations: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _f_ints: tuple = field(default=None, init=False, repr=False, compare=False)

    @property
    def shape(self) -> tuple:
        """The family's (k, lo, off) from `_SHAPES`."""
        if self.family not in _SHAPES:
            raise DomainError(f"unknown family {self.family!r}")
        return _SHAPES[self.family]

    def weight(self, s: int, j: int) -> Fraction:
        """The weight of zeta(kj, k(s-j)) at s, for 0 <= j <= s."""
        (x,), den = self._scaled_weights(s, [j])
        return Fraction(x, den)

    def js(self, s: int) -> list:
        """The j of the sum at s: lo..s - off in the j-parity class."""
        _, lo, off = self.shape
        return [j for j in range(lo, s - off + 1) if _parity_ok(j, self.j_parity)]

    def applicable(self, w: int) -> bool:
        """Whether the sum has a term at weight w: w = ks with s in the
        s-parity class and lo <= s - off."""
        k, lo, off = self.shape
        s = w // k
        return w % k == 0 and s - off >= lo and _parity_ok(s, self.s_parity)

    def relation(self, w: int):
        """The primitive integer row of (weights over zeta(j, w-j) for
        j = 2..w-1 | -f(w)), memoized per weight: a candidate is complete
        (weights and f) once it is yielded.  Span membership does not depend
        on how each row is scaled."""
        rel = self._relations.get(w)
        if rel is None:
            rel = self._relations[w] = self._relation(w)
        return rel

    def _relation(self, w: int):
        k = self.shape[0]
        s = w // k
        js = self.js(s)
        ints, den = self._scaled_weights(s, js)
        if self._f_ints is None:  # f's coefficients over one denominator
            fints, fden = _integer_scale(list(self.f_coeffs.values()))
            self._f_ints = tuple(zip(self.f_coeffs, fints)), fden
        fterms, fden = self._f_ints
        fnum = sum(c * F_BASIS[name](s) for name, c in fterms)  # f(s) = fnum / fden
        row = [0] * (w - 1)
        for j, x in zip(js, ints):
            row[k * j - 2] = x * fden
        row[-1] = -fnum * den
        return tuple(_primitive_ints(row))

    def _scaled_weights(self, s: int, js):
        """(ints, den) with weight(s, j) == ints[i] / den for the increasing
        js in 0..s: the one statement of each family's weights.  The
        power-type families use running integer powers of the bases."""
        fam, p = self.family, self.params
        if not js:
            return [], 1
        if fam == "symmetric-even":
            num, den = _base_powers(self._powers, _pair(p["d"]), s)
            return [num[j] * den[s - j] + num[s - j] * den[j] for j in js], den[s]
        if fam == "power":
            return _affine_weights(_ONE, _pair(p["a"]), _ZERO, _ZERO, s, js, self._powers)
        if fam == "affine":
            return _affine_weights(*(_pair(p[k]) for k in "abcd"), s, js, self._powers)
        if fam in ("poly", "poly-even"):
            return _integer_scale([sum(c * _MONOS[m][1](s, j) for m, c in p.items()) for j in js])
        raise DomainError(f"unknown family {fam!r}")

    def describe(self) -> str:
        ps = {k: str(v) for k, v in self.params.items()}
        return (
            f"{self.family}[j:{self.j_parity}, s:{self.s_parity}] {ps} "
            f"-> f(s) = {render_f(self.f_coeffs)}  [{self.status}]"
        )


def _is_new(cand: CandidateIdentity, emitted, weights=range(4, 13)) -> bool:
    """True iff, at any applicable weight, the candidate's relation leaves
    the rational span of the emitted relations at that weight; the weights
    are tried in order, and the first one where it leaves decides."""
    for w in weights:
        if not cand.applicable(w):
            continue
        rel = cand.relation(w)
        checks = _span_checks(tuple(e.relation(w) for e in emitted if e.applicable(w)), len(rel))
        if any(sum(map(mul, row, rel)) for row in checks):
            return True
    return False


@functools.lru_cache(maxsize=256)
def _span_checks(rows: tuple, n: int):
    """Primitive integer rows spanning the null space of the integer rows
    (each of length n); identity rows when there are none.  A vector lies in
    the rational span of the rows iff every check row is orthogonal to it.
    Keyed by the emitted relations at one weight, so the checks are rebuilt
    only when that set changes."""
    basis = _nullspace(list(rows), n)
    return tuple(tuple(_primitive(vec)) for vec in basis)


# ---------------------------------------------------------------------------
# rational pool and the power-base solver
# ---------------------------------------------------------------------------


def height_rationals(H: int, include_zero: bool = False):
    """All reduced p/q with 1 <= |p| <= H, 1 <= q <= H (plus 0 on request), sorted."""
    return list(_height_pool(H, include_zero))


@functools.lru_cache(maxsize=8)
def _height_pool(H: int, include_zero: bool):
    out = {Fraction(p, q) for q in range(1, H + 1) for p in range(1, H + 1)}
    out |= {-x for x in out}
    if include_zero:
        out.add(Fraction(0))
    return tuple(sorted(out))


def _vanishing_polys(w: int, j_parity: str = "any"):
    """Per non-target monomial m: {j: coefficient of m in zeta(j, w-j)}, so the
    vanishing condition for weights x^j is sum_j coef * x^j = 0; and
    {j: coefficient of zeta(w)'s monomial in zeta(j, w-j)}."""
    ((zmono, _),) = zeta_sym(w).items()
    polys: dict = {}
    targets: dict = {}
    for j in range(2, w):
        if not _parity_ok(j, j_parity):
            continue
        for mono, c in dzeta_reduce(j, w - j).items():
            if mono == zmono:
                targets[j] = c
            else:
                polys.setdefault(mono, {})[j] = c
    return polys, targets


@functools.cache
def _anchor_table(w: int, j_parity: str):
    """The exact anchor at weight w as integers: (js, rows, target, den).

    js are the j columns (2 <= j <= w-1 of the parity); rows holds one integer
    row over js per non-zeta(w) monomial of the reductions of zeta(j, w-j),
    all scaled by one positive integer; target is an integer row.  For weights
    x_j, sum_j x_j zeta(j, w-j) is a rational multiple of zeta(w) iff every row
    dots to 0 with x, and the multiple is then f(w) = target . x / den."""
    polys, targets = _vanishing_polys(w, j_parity)
    js = tuple(j for j in range(2, w) if _parity_ok(j, j_parity))
    flat, _ = _integer_scale([poly.get(j, 0) for poly in polys.values() for j in js])
    rows = tuple(tuple(flat[k : k + len(js)]) for k in range(0, len(flat), len(js)))
    ((_, zcoef),) = zeta_sym(w).items()
    target, den = _integer_scale([targets.get(j, 0) / zcoef for j in js])
    return js, rows, tuple(target), den


def _condition_vector(w: int, j_parity: str, x):
    """V_i = sum_j rows[i][j] p^j q^(w-1-j) at x = (p, q), an integer pair
    with q > 0: the vanishing rows of the anchor table evaluated at the
    weights (p/q)^j, times q^(w-1)."""
    js, rows, _, _ = _anchor_table(w, j_parity)
    num, den = _base_powers({}, x, w - 1)
    terms = [num[j] * den[w - 1 - j] for j in js]
    return tuple(sum(map(mul, row, terms)) for row in rows)


def _rational_roots(poly, H: int):
    """The nonzero roots p/q, |p|, q <= H, of the integer polynomial
    sum_k poly[k] x^k as integer pairs (p, q) in increasing order, the
    pool's order.  By the rational root theorem p divides the lowest nonzero
    coefficient and q the leading one (every k divides a zero polynomial's)."""
    low = next((c for c in poly if c), 0)
    lead = next((c for c in reversed(poly) if c), 0)
    ps, qs = ([k for k in range(1, H + 1) if c % k == 0] for c in (low, lead))
    roots = [
        (p, q) for q in qs for a in ps for p in (-a, a) if math.gcd(a, q) == 1
        and not sum(c * p**k * q ** (len(poly) - 1 - k) for k, c in enumerate(poly))
    ]
    return sorted(roots, key=lambda x: Fraction(*x))


def _vanishing_bases(ws, j_parity: str, H: int):
    """The nonzero x = (p, q) of height <= H, in increasing order, whose
    weights x^j pass the vanishing conditions at every anchor weight in ws
    (the first of which has a row): the roots of that row's polynomial at
    which every condition vector at ws is zero."""
    js, rows, _, _ = _anchor_table(ws[0], j_parity)
    poly = [dict(zip(js, rows[0])).get(j, 0) for j in range(js[-1] + 1)]
    return [
        x for x in _rational_roots(poly, H)
        if not any(v for w in ws for v in _condition_vector(w, j_parity, x))
    ]


def _anchor_f(w: int, j_parity: str, ints, den: int):
    """`weighted_sum_f` at an anchor from integer weights: the f with
    sum_j ints[i] / den * zeta(j, w-j) = f zeta(w) over the table's js, or None."""
    _, rows, target, tden = _anchor_table(w, j_parity)
    if any(sum(map(mul, row, ints)) for row in rows):
        return None
    return Fraction(sum(map(mul, target, ints)), tden * den)


def _anchor_fit(anchors, j_parity: str, weights):
    """The F_SPAN fit of f from the weights at the anchors, or None when they
    fail a vanishing condition at one of them; weights(w, js) gives the
    weights at w over the anchor table's js as (ints, den)."""
    points = []
    for w in anchors:
        js = _anchor_table(w, j_parity)[0]
        f = _anchor_f(w, j_parity, *weights(w, js))
        if f is None:
            return None
        points.append((w, f))
    return fit_span_minimal(points)


def solve_power_base(w: int, H: int = 16, j_parity: str = "any"):
    """All rationals a of height <= H for which every non-zeta(w) coefficient
    of sum_j a^j zeta(j, w-j) (j in the j-parity class) vanishes, in
    increasing order: 0, the empty solution, and the vanishing bases at w."""
    require_ints("solve_power_base", w=w, H=H)
    if H < 1:
        raise DomainError(f"search height must be at least 1, got {H}")
    if w not in (5, 6, 7):
        raise DomainError("power-base solving uses weights 5..7")
    if j_parity not in _PARITIES:
        raise DomainError(f"unknown j-parity {j_parity!r}; choose from {', '.join(_PARITIES)}")
    return sorted([Fraction(0), *(Fraction(*x) for x in _vanishing_bases([w], j_parity, H))])


# ---------------------------------------------------------------------------
# family searches
# ---------------------------------------------------------------------------

_PARITIES = ("any", "even", "odd")
SCREEN_TOL_EXP = 25  # the numeric screen's tolerance is 10^-SCREEN_TOL_EXP
FAMILIES = ("power", "alternating", "affine", "symmetric-even", "poly")  # in search order


@dataclass
class SearchConfig:
    families: tuple = ("power", "affine", "symmetric-even")
    H: int = 16
    prec: int = 40
    deg: int = 2


def _anchor_weights(s_parity: str):
    return [w for w in ANCHORS if _parity_ok(w, s_parity)]


def numeric_screen(cand: CandidateIdentity, prec: int = 40, tol_exp: int = SCREEN_TOL_EXP) -> bool:
    """Reject-only numeric check of a candidate at two parameters beyond the
    exact range, s = 9 and 11 (10 and 12 in the s-even class), with tolerance
    10^-tol_exp.  Terms are evaluated at max(prec, tol_exp) + 10 digits, so
    the tolerance, not only the precision, sets the working digits.  The
    error bounds of the evaluated terms are added up, weighted like the
    terms; PrecisionError when their sum does not lie below the tolerance,
    since the check could then reject a true identity."""
    D = max(prec, tol_exp) + 10
    k = cand.shape[0]
    with mp.workdps(D + 10):
        tol = mpf(10) ** (-tol_exp)
        for sp in (10, 12) if cand.s_parity == "even" else (9, 11):
            total = bound = mp.zero
            js = cand.js(sp)
            ints, den = cand._scaled_weights(sp, js)
            for j, x in zip(js, ints):
                if x:
                    v, b = numerics._dzeta_internal(k * j, k * (sp - j), D)
                    c = numerics.rational_mpf(Fraction(x, den))
                    total += c * v
                    bound += abs(c) * b
            zv, zb = numerics._zeta_internal(k * sp, D)
            f = numerics.rational_mpf(f_eval(cand.f_coeffs, sp))
            bound += abs(f) * zb
            if bound >= tol:
                raise PrecisionError(
                    f"numeric screen at s={sp}: error bound {mp.nstr(bound, 3)} does not "
                    f"resolve the tolerance 1e-{tol_exp} at precision {prec}"
                )
            if abs(total - f * zv) > tol:
                return False
    return True


def _anchor_classes():
    """(s_par, j_par, anchors, ws) per parity class, s-parity outer: the
    anchor weights of s_par and those of them with a vanishing condition
    (ws).  A class with no vanishing condition is left out, since every
    family is vacuous there."""
    for s_par in _PARITIES:
        anchors = _anchor_weights(s_par)
        for j_par in _PARITIES:
            ws = [w for w in anchors if _anchor_table(w, j_par)[1]]
            if ws:
                yield s_par, j_par, anchors, ws


def _power_candidates(config: SearchConfig):
    for s_par, j_par, anchors, ws in _anchor_classes():
        for a in _vanishing_bases(ws, j_par, config.H):
            weights = functools.partial(_affine_weights, _ONE, a, _ZERO, _ZERO, powers={})
            coeffs = _anchor_fit(anchors, j_par, weights)
            if coeffs is not None:
                params = {"a": Fraction(*a)}
                yield CandidateIdentity("power", params, j_par, s_par, coeffs)


def _affine_candidates(config: SearchConfig):
    """a * b^j + c^s * d^j with a = 1: (b, d) enumerated at height H, the
    per-weight scaling gamma_w = c^w forced by the vanishing conditions, and c
    recovered from the two smallest weights with a gamma: consecutive ones,
    or 5 and 7, whose odd 5 fixes the sign of c.  A pairing whose
    weights vanish on its whole (j, s) class (`_vanishing_pairing`) is
    dropped before its fit: its relation row is zero at every weight, so it
    is never new."""
    pool = [_pair(x) for x in _height_pool(config.H, False)]
    vectors = functools.cache(lambda w, j_par: {x: _condition_vector(w, j_par, x) for x in pool})
    for s_par, j_par, anchors, ws in _anchor_classes():
        js = [j for j in range(2, 6) if _parity_ok(j, j_par)][:2]

        def candidate(b, c, d):
            """The fitted candidate for integer pairs b, c, d, or None."""
            weights = functools.partial(_affine_weights, _ONE, b, c, d, powers={})
            coeffs = _anchor_fit(anchors, j_par, weights)
            if coeffs is None:
                return None
            params = {"a": Fraction(1), "b": Fraction(*b), "c": Fraction(*c), "d": Fraction(*d)}
            return CandidateIdentity("affine", params, j_par, s_par, coeffs)

        # degenerate c = 0: pure powers inside the affine shape
        for b in _vanishing_bases(ws, j_par, config.H):
            cand = candidate(b, _ZERO, _ZERO)
            if cand is not None:
                yield cand
        if len(ws) < 2:
            continue
        vecs = [vectors(w, j_par) for w in ws]
        # b^j + gamma_w d^j passes the vanishing conditions at w iff
        # V_b = -gamma_w (q_b / q_d)^(w-1) V_d for the condition vectors
        # V at b = p_b/q_b and d = p_d/q_d; with gamma_w != 0 that means
        # both vectors are zero or both have the same primitive direction.
        # A pair needs two nonzero gammas, so only d sharing b's key tuple
        # (with at least two directions) can pass.
        keys = {x: tuple(_direction(vw[x]) for vw in vecs) for x in pool}
        groups: dict = {}
        for x in pool:
            if sum(k is not None for k in keys[x]) >= 2:
                groups.setdefault(keys[x], []).append(x)
        for b in pool:
            for d in groups.get(keys[b], ()):
                if d == b:
                    continue
                gammas = {
                    w: _gamma(w, b, vw[b], d, vw[d])
                    for w, vw, key in zip(ws, vecs, keys[b])
                    if key is not None
                }
                # vanishing rows sit at w = 5, 6, 7 only, so the two smallest
                # weights are consecutive, c = c^w2 / c^w1, or 5 and 7,
                # c = c^15 / c^14
                w1, w2 = sorted(gammas)[:2]
                g1, g2 = gammas[w1], gammas[w2]
                c = g2 / g1 if w2 - w1 == 1 else g1**3 / g2**2
                if any(c**w != g for w, g in gammas.items()):
                    continue
                if _vanishing_pairing(b, _pair(c), d, js, anchors[:2]):
                    continue
                cand = candidate(b, _pair(c), d)
                if cand is not None:
                    yield cand


def _vanishing_pairing(b, c, d, js, ss) -> bool:
    """True iff b^j + c^s d^j = 0 at every j >= 2 of a j-class and every s of
    an s-class, for nonzero integer pairs b, c, d (q > 0) and the two smallest
    j (js) and s (ss) of the classes.  With k the class step (1 or 2),
    b^j = -c^s d^j at two j of a class forces (b/d)^k = 1 and at two s
    forces c^k = 1, so (d/b)^j and c^s are constant on the classes and these
    four values decide it."""
    return not any(
        b[0] ** j * c[1] ** s * d[1] ** j + c[0] ** s * d[0] ** j * b[1] ** j
        for j in js
        for s in ss
    )


def _gamma(w: int, b, vb, d, vd):
    """The gamma for which the weights b^j + gamma d^j pass the vanishing
    conditions at w, from the condition vectors vb and vd (parallel, vd
    nonzero) at the pairs b = (p_b, q_b) and d = (p_d, q_d): the rows at b and
    d are vb / q_b^(w-1) and vd / q_d^(w-1), up to one positive factor."""
    i = next(i for i, x in enumerate(vd) if x)
    return Fraction(-vb[i] * d[1] ** (w - 1), vd[i] * b[1] ** (w - 1))


def _direction(vec):
    """Pairing key of an integer vanishing-condition vector: its primitive
    direction, or None when it is zero."""
    return tuple(_primitive_ints(vec)) if any(vec) else None


def _symmetric_even_candidates(config: SearchConfig):
    # s = 2..7 determine all six F_SPAN coefficients, so the point s = 8 is
    # the test that the fit extends beyond them: its one check row n passes,
    # and so a fit exists, iff d is a root of sum_s n_s P_s(d) / d, whose
    # d^k coefficient is sum_s n_s ints_s[k] / den_s
    svals = tuple(range(2, 9))
    (n,) = _fit_plan(svals)[-1][2]
    polys = [_symmetric_even_poly(s) for s in svals]
    gate = [sum(Fraction(ns * ints[k], den) for ns, (ints, den) in zip(n, polys) if k < len(ints))
            for k in range(len(svals))]
    for d in (Fraction(*x) for x in _rational_roots(_integer_scale(gate)[0], config.H)):
        coeffs = fit_span_minimal([(s, _symmetric_even_f(s, d)) for s in svals])
        yield CandidateIdentity("symmetric-even", {"d": d}, f_coeffs=coeffs)


def _poly_plain_candidates(config: SearchConfig):
    monos = _monos("poly", config.deg)
    rows = []
    for w in ANCHORS:
        js, vanishing, _, _ = _anchor_table(w, "any")
        rows += [
            [sum((c * _MONOS[m][1](w, j) for j, c in zip(js, row) if c), Fraction(0)) for m in monos]
            for row in vanishing
        ]
    for vec in _nullspace(rows, len(monos)):
        vec = _canonical_scale(vec)
        params = {m: c for m, c in zip(monos, vec) if c}
        if not params:
            continue
        cand = CandidateIdentity("poly", params)
        cand.f_coeffs = _anchor_fit(ANCHORS, "any", cand._scaled_weights)
        if cand.f_coeffs is not None:
            yield cand


def _poly_even_candidates(config: SearchConfig):
    """Symmetric polynomial weights on zeta(2j, 2s-2j) over 2 <= j <= s-2."""
    monos = _monos("poly-even", config.deg)
    _, lo, off = _SHAPES["poly-even"]
    ncols = len(monos) + len(F_SPAN)
    rows = [
        [even_arg_sum_f(lambda ss, j, m=m: _MONOS[m][1](ss, j), s, lo, off) for m in monos]
        + [-F_BASIS[bn](s) for bn in F_SPAN]
        for s in range(4, 15)
    ]
    for vec in _nullspace(rows, ncols):
        alpha = vec[: len(monos)]
        if not any(alpha):
            continue
        scaled = _canonical_scale(alpha)
        scale = next(a / b for a, b in zip(scaled, alpha) if b)
        params = {m: c for m, c in zip(monos, scaled) if c}
        fc = {bn: c * scale for bn, c in zip(F_SPAN, vec[len(monos):]) if c}
        yield CandidateIdentity("poly-even", params, f_coeffs=fc)


def search_general(config: SearchConfig | None = None):
    """Run the configured family searches in canonical order, deduplicate by
    exact per-weight span membership, numerically screen, and return the
    surviving candidates."""
    config = config or SearchConfig()
    unknown = [f for f in config.families if f not in FAMILIES]
    if unknown:
        raise DomainError(
            f"unknown search family {unknown[0]!r}; choose from {', '.join(FAMILIES)}"
        )
    numerics.EvalContext(config.prec)  # the same precision floor as evaluation
    require_ints("SearchConfig", H=config.H, deg=config.deg)
    if config.H < 1:
        raise DomainError(f"search height must be at least 1, got {config.H}")
    if not 0 <= config.deg <= 2:
        raise DomainError(f"polynomial degree must be 0, 1 or 2, got {config.deg}")
    emitted: list[CandidateIdentity] = []
    for family in sorted(config.families, key=FAMILIES.index):
        if family == "power":
            gen = _power_candidates(config)
        elif family == "alternating":
            gen = (c for c in _power_candidates(config) if c.s_parity == "even")
        elif family == "affine":
            gen = _affine_candidates(config)
        elif family == "symmetric-even":
            gen = _symmetric_even_candidates(config)
        else:  # poly
            gen = itertools.chain(_poly_plain_candidates(config), _poly_even_candidates(config))
        for cand in gen:
            if not _is_new(cand, emitted):
                continue
            if numeric_screen(cand, config.prec, SCREEN_TOL_EXP):
                emitted.append(cand)
            else:
                cand.status = "rejected"
    return emitted


def search_poly_weights(config: SearchConfig | None = None):
    """Polynomial-weight search (degree <= config.deg), plain and even-argument
    shapes; the ansatz is linear in the coefficients and solved exactly."""
    return search_general(replace(config or SearchConfig(), families=("poly",)))


# ---------------------------------------------------------------------------
# DSL emission
# ---------------------------------------------------------------------------


def _frac_dsl(x: Fraction) -> str:
    return str(x) if x.denominator == 1 and x >= 0 else f"({x})"


def _poly_dsl(params: dict, svar: str = "s") -> str:
    """A poly weight as DSL text, with svar (s or a parenthesized s-text) for s."""
    parts = []
    for m, c in params.items():
        body = m.replace("s", svar) if m != "1" else ""
        parts.append(_frac_dsl(c) if not body else (body if c == 1 else f"{_frac_dsl(c)}*{body}"))
    return " + ".join(parts)


def candidate_dsl(cand: CandidateIdentity, ident: str = "S01") -> str:
    """Render a candidate as a corpus DSL identity entry, ready to feed back
    into the verifier.  Parity classes are reparametrized (s -> 2s or 2s+1,
    j -> 2i or 2i+1) so that all sum bounds stay integral."""
    k, lo, off = cand.shape
    if k == 2:
        if (cand.s_parity, cand.j_parity) != ("any", "any"):
            raise DomainError("even-argument emission needs the parity class (any, any)")
        f = render_f(cand.f_coeffs)
        if cand.family == "symmetric-even":
            d = _frac_dsl(cand.params["d"])
            wtxt = f"({d}^j+{d}^(s-j))"
        else:
            wtxt = f"({_poly_dsl(cand.params)})"
        body = f"sum(j={lo}..s-{off}, {wtxt}*dz(2*j,2*s-2*j))"
        return f"identity {ident} : forall s>={lo + off + 1} : {body} == ({f})*zeta(2*s)"
    stxt = {"any": "s", "even": "2*s", "odd": "2*s+1"}[cand.s_parity]
    svar = f"({stxt})" if cand.s_parity != "any" else "s"
    if cand.family == "power":
        wtxt = f"{_frac_dsl(cand.params['a'])}^{{J}}"
    elif cand.family == "affine":
        b = _frac_dsl(cand.params["b"])
        if cand.params["c"]:
            c = _frac_dsl(cand.params["c"])
            d = _frac_dsl(cand.params["d"])
            wtxt = f"({b}^{{J}}+{c}^({stxt})*{d}^{{J}})"
        else:
            wtxt = f"{b}^{{J}}"
    else:
        wtxt = f"({_poly_dsl(cand.params, svar)})".replace("j", "{J}")
    if cand.j_parity == "any":
        jexpr, idx = "j", f"j={lo}..{stxt}-{off}"
    elif cand.s_parity == "any":
        raise DomainError("j-parity emission needs an s-parity class")
    else:  # the largest i with 2i (or 2i+1) <= S-1 for S = 2s or 2s+1
        jexpr = "(2*i)" if cand.j_parity == "even" else "(2*i+1)"
        hi = "s" if (cand.s_parity, cand.j_parity) == ("odd", "even") else "s-1"
        idx = f"i=1..{hi}"
    wtxt = wtxt.replace("{J}", jexpr)
    term = f"{wtxt}*dz({jexpr},{stxt}-{jexpr})"
    f = render_f(cand.f_coeffs, var=svar)
    lo_dom = 3 if cand.s_parity == "any" else 2
    return f"identity {ident} : forall s>={lo_dom} : sum({idx}, {term}) == ({f})*zeta({stxt})"

