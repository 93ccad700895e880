"""Ansatz search: exact anchors, base solving, family reproduction, soundness."""
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

import mzv
from mzv import numerics, search
from mzv.corpus import parse_corpus
from mzv.errors import DomainError, PrecisionError
from mzv.search import (
    F_BASIS,
    F_SPAN,
    CandidateIdentity,
    SearchConfig,
    _affine_candidates,
    _anchor_f,
    _anchor_table,
    _anchor_weights,
    _canonical_scale,
    _condition_vector,
    _direction,
    _fraction_sqrt,
    _gamma,
    _integer_scale,
    _is_new,
    _nullspace,
    _pair,
    _parity_ok,
    _MONOS,
    _monos,
    _power_candidates,
    _primitive,
    _solve_consistent,
    _symmetric_even_f,
    _vanishing_polys,
    candidate_dsl,
    even_arg_sum_f,
    fit_span_minimal,
    f_eval,
    height_rationals,
    numeric_screen,
    reduce_weighted_sum,
    search_general,
    search_poly_weights,
    solve_power_base,
    weighted_sum_f,
)
from mzv.symexpr import pi_power, zeta_sym
from mzv.verify import eval_ast, verify_numeric
from test_exact import _rref_reference


def test_reduce_weighted_sum_instances():
    assert reduce_weighted_sum(lambda w, j: 1, 5) == zeta_sym(5)
    got = reduce_weighted_sum(lambda w, j: Fraction(2) ** j, 4)
    assert got == zeta_sym(4) * 5
    assert got == pi_power(4, Fraction(1, 18))
    assert reduce_weighted_sum(lambda w, j: Fraction(-1) ** j, 4) == zeta_sym(4) * Fraction(1, 2)
    with pytest.raises(DomainError):
        reduce_weighted_sum(lambda w, j: 1, 8)


def test_weighted_sum_f():
    assert weighted_sum_f(lambda w, j: 1, 6) == 1
    assert weighted_sum_f(lambda w, j: Fraction(2) ** j, 7) == 8
    assert weighted_sum_f(lambda w, j: Fraction(3) ** j, 5) is None


def test_solve_power_base():
    assert solve_power_base(5) == [0, 1, 2]
    assert solve_power_base(7) == [0, 1, 2]
    assert set(solve_power_base(6)) >= {-1, 0, 1, 2}
    nonzero = [a for a in solve_power_base(5, H=1) if a]
    assert nonzero == [1]
    with pytest.raises(DomainError):
        solve_power_base(4)


def test_even_arg_sum_exactness():
    # the 4^j + 4^(s-j) sum has f(s) = s + 4/3 + (2/3) 4^(s-1) at every s
    wf = lambda s, j: Fraction(4) ** j + Fraction(4) ** (s - j)
    for s in range(2, 12):
        want = Fraction(s) + Fraction(4, 3) + Fraction(2, 3) * 4 ** (s - 1)
        assert even_arg_sum_f(wf, s, 1, 1) == want
    with pytest.raises(DomainError):
        even_arg_sum_f(lambda s, j: Fraction(2) ** j, 4, 1, 1)  # not symmetric


def test_fit_span_minimal():
    pts = [(4, Fraction(5)), (5, Fraction(6)), (6, Fraction(7)), (7, Fraction(8))]
    assert fit_span_minimal(pts) == {"1": Fraction(1), "s": Fraction(1)}
    assert fit_span_minimal([(4, Fraction(1, 2)), (6, Fraction(1, 2))]) == {"1": Fraction(1, 2)}
    assert fit_span_minimal([]) is None


def test_height_rationals():
    pool = height_rationals(2)
    assert Fraction(1, 2) in pool and Fraction(-2) in pool and Fraction(0) not in pool
    assert all(abs(x.numerator) <= 2 and x.denominator <= 2 for x in pool)


def test_search_reproduction_small_height():
    out = search_general(SearchConfig(H=4))
    keys = {(c.family, str(c.params.get("a", c.params.get("d")))) for c in out}
    assert keys == {("power", "1"), ("power", "2"), ("power", "-1"), ("symmetric-even", "4")}
    by_family = {}
    for c in out:
        by_family.setdefault(c.family, []).append(c)
    d4 = by_family["symmetric-even"][0]
    assert f_eval(d4.f_coeffs, 3) == 3 + Fraction(4, 3) + Fraction(2, 3) * 16
    alt = [c for c in by_family["power"] if c.params["a"] == -1][0]
    assert alt.s_parity == "even" and f_eval(alt.f_coeffs, 6) == Fraction(1, 2)


def test_affine_standalone_recovers_plain_and_weighted_sums():
    out = search_general(SearchConfig(families=("affine",), H=3))
    bases = {(c.params["b"], c.params["c"]) for c in out if c.s_parity == "any"}
    assert (Fraction(1), Fraction(0)) in bases
    assert (Fraction(2), Fraction(0)) in bases


def test_alternating_family():
    out = search_general(SearchConfig(families=("alternating",), H=2))
    assert any(c.params["a"] == -1 and f_eval(c.f_coeffs, 4) == Fraction(1, 2) for c in out)


def test_poly_search_recovers_quadratic_weight():
    out = search_poly_weights(SearchConfig(families=("poly",), deg=2))
    quad = [c for c in out if c.family == "poly-even"]
    assert len(quad) == 1
    c = quad[0]
    # (2j-1)(2s-2j-1) = 4 j(s-j) - 2s + 1 with f = (3/4)(s-3)
    assert c.params == {"1": Fraction(1), "s": Fraction(-2), "j*(s-j)": Fraction(4)}
    for s in (4, 5, 9):
        assert f_eval(c.f_coeffs, s) == Fraction(3, 4) * (s - 3)
    # degree 0 restriction reduces to the plain constant-weight sum
    out0 = search_poly_weights(SearchConfig(families=("poly",), deg=0))
    assert any(c.family == "poly" and c.params == {"1": Fraction(1)} for c in out0)


def test_emitted_candidates_verify_through_corpus_machinery(ctx30):
    """Soundness: every emitted candidate re-verifies as a DSL identity."""
    cands = search_general(SearchConfig(H=4)) + search_poly_weights(
        SearchConfig(families=("poly",))
    )
    for k, cand in enumerate(cands):
        (ident,) = parse_corpus(candidate_dsl(cand, f"S{k:02d}"))
        for binding in ({p: ident.lower_bound(p)} for p in ident.params):
            binding = {p: max(v, 4) for p, v in binding.items()}
            r = verify_numeric(ident, binding, ctx30)
            assert r.status == "pass", (cand.describe(), binding, r.error)


_DSL_PARAMS = {
    "power": {"a": Fraction(-3, 2)},
    "affine c = 0": {"a": Fraction(1), "b": Fraction(2), "c": Fraction(0), "d": Fraction(0)},
    "affine c != 0": {"a": Fraction(1), "b": Fraction(-2, 3), "c": Fraction(-1, 2), "d": Fraction(3)},
    "poly": {"j": Fraction(-1, 2), "s": Fraction(3), "j*s": Fraction(1), "s^2": Fraction(-1, 4)},
}
_DSL_F = {"1": Fraction(3), "s": Fraction(-1, 2), "s^2": Fraction(1, 5), "2^s": Fraction(1, 4),
          "s*4^s": Fraction(-1, 3)}


@pytest.mark.parametrize("s_par", search._PARITIES)
@pytest.mark.parametrize("j_par", search._PARITIES)
@pytest.mark.parametrize("kind", list(_DSL_PARAMS))
def test_candidate_dsl_states_the_candidate_in_every_parity_class(kind, j_par, s_par, ctx40):
    """The emitted entry, parsed back, has the sides
    sum_j weight(S, j) zeta(j, S-j) over the j-class and f(S) zeta(S), for
    S = s, 2s or 2s+1 by the s-class; a j-class needs an s-class to emit."""
    family = kind.split()[0]
    cand = CandidateIdentity(family, _DSL_PARAMS[kind], j_par, s_par, _DSL_F)
    if s_par == "any" and j_par != "any":
        with pytest.raises(DomainError, match="j-parity emission needs an s-parity class"):
            candidate_dsl(cand)
        return
    (ident,) = parse_corpus(candidate_dsl(cand))
    assert ident.params == ["s"]
    ((lhs, rhs),) = ident.parts
    lo = ident.lower_bound("s")
    for s in (lo, lo + 1, lo + 2):
        S = {"any": s, "even": 2 * s, "odd": 2 * s + 1}[s_par]
        with mp.workdps(50):
            want_lhs = sum(
                _mpf(cand.weight(S, j)) * numerics.dzeta_num(j, S - j, ctx40)
                for j in range(2, S) if _parity_ok(j, j_par)
            )
            want_rhs = _mpf(f_eval(_DSL_F, S)) * numerics.zeta_num(S, ctx40)
            assert abs(eval_ast(lhs, {"s": s}, ctx40) - want_lhs) < mpf(10) ** -25, (kind, S)
            assert abs(eval_ast(rhs, {"s": s}, ctx40) - want_rhs) < mpf(10) ** -25, (kind, S)


@pytest.mark.parametrize("s_par", search._PARITIES)
@pytest.mark.parametrize("j_par", search._PARITIES)
@pytest.mark.parametrize("family, params", [
    ("symmetric-even", {"d": Fraction(4)}),
    ("poly-even", {"1": Fraction(1), "j*(s-j)": Fraction(2)}),
])
def test_candidate_dsl_states_an_even_argument_family_only_in_the_class_any_any(
        family, params, j_par, s_par):
    """The even-argument entry sums over every j at every s, so another
    parity class is a DomainError rather than an entry for a different sum."""
    cand = CandidateIdentity(family, params, j_par, s_par, {"1": Fraction(1)})
    if (s_par, j_par) == ("any", "any"):
        assert "*dz(2*j,2*s-2*j)) == (1)*zeta(2*s)" in candidate_dsl(cand)
        return
    with pytest.raises(DomainError, match=r"even-argument emission needs the parity class \(any, any\)"):
        candidate_dsl(cand)


def _mpf(x: Fraction):
    return mpf(x.numerator) / x.denominator


def test_scale_invariance():
    """Scaling a weight function by a nonzero rational leaves accept/reject
    unchanged and scales f accordingly."""
    lam = Fraction(5, 3)
    for w in (4, 5, 6, 7):
        base = weighted_sum_f(lambda _w, j: Fraction(2) ** j, w)
        scaled = weighted_sum_f(lambda _w, j: lam * Fraction(2) ** j, w)
        assert scaled == lam * base
    assert weighted_sum_f(lambda _w, j: lam * Fraction(3) ** j, 5) is None


def test_screen_rejects_wrong_f():
    f = {"1": Fraction(1), "s": Fraction(1, 10**6)}
    cand = CandidateIdentity("power", {"a": Fraction(1)}, f_coeffs=f)
    assert not numeric_screen(cand, prec=40, tol_exp=25)


def test_search_empty_config():
    assert search_general(SearchConfig(families=())) == []


# ---------------------------------------------------------------------------
# precomputed exact algebra against plain reference scans
# ---------------------------------------------------------------------------


def _solve_reference(rows, vals, ncols):
    """`_solve_consistent` through Fraction Gauss-Jordan."""
    aug = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(rows, vals)]
    pivots = _rref_reference(aug, ncols)
    if len(pivots) != ncols or any(row[ncols] for row in aug[ncols:]):
        return None
    return [row[ncols] for row in aug[:ncols]]


def _fit_reference(points, solve=_solve_reference):
    """The fit by definition: one exact solve per F_SPAN subset, in order."""
    for size in range(0, min(len(F_SPAN), len(points)) + 1):
        for subset in itertools.combinations(range(len(F_SPAN)), size):
            rows = [[F_BASIS[F_SPAN[i]](s) for i in subset] for s, _ in points]
            sol = solve(rows, [f for _, f in points], size)
            if sol is not None:
                return {F_SPAN[i]: c for i, c in zip(subset, sol) if c}
    return None


_small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def _span_points(draw):
    """0-7 points of a random F_SPAN combination; about one in five perturbed."""
    coeffs = draw(st.dictionaries(st.sampled_from(F_SPAN), _small_fractions, max_size=4))
    points = []
    for s in draw(st.lists(st.integers(2, 14), max_size=7)):
        f = f_eval(coeffs, s)
        if draw(st.integers(0, 4)) == 0:
            f += draw(_small_fractions.filter(bool))
        points.append((s, f))
    return points


@st.composite
def _full_span_points(draw):
    """6-8 points at distinct s of a random F_SPAN combination, so that they
    determine every coefficient; about one in five perturbed."""
    coeffs = draw(st.dictionaries(st.sampled_from(F_SPAN), _small_fractions, max_size=4))
    svals = draw(st.lists(st.integers(2, 14), min_size=6, max_size=8, unique=True))
    points = [(s, f_eval(coeffs, s)) for s in svals]
    if draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(points) - 1))
        s, f = points[i]
        points[i] = (s, f + draw(_small_fractions.filter(bool)))
    return points


@given(st.one_of(_span_points(), _full_span_points()))
@settings(max_examples=100, deadline=None)
def test_fit_span_minimal_matches_subset_scan(points):
    want = _fit_reference(points) if points else None
    assert fit_span_minimal(points) == want
    assert (_fit_reference(points, _solve_consistent) if points else None) == want


@pytest.mark.parametrize("coeffs", [
    {"1": Fraction(4, 3), "4^s": Fraction(1, 6)},
    {"s": Fraction(-2), "s*4^s": Fraction(5, 7)},
    {"s^2": Fraction(1), "2^s": Fraction(-3, 2)},
])
def test_fit_span_minimal_full_span_gate(coeffs):
    """Seven distinct s determine all of F_SPAN: a 2-term combination passes
    the full-span gate and fits on its own support; one perturbed point
    fails the gate.  With three distinct s and one repeated, the gate's
    subset has three columns and checks that the repeat agrees."""
    points = [(s, f_eval(coeffs, s)) for s in range(2, 9)]
    assert len(search._fit_plan(tuple(range(2, 9)))[-1][0]) == len(F_SPAN)
    assert fit_span_minimal(points) == _fit_reference(points) == coeffs
    for i in (0, 3, 6):
        bad = list(points)
        bad[i] = (bad[i][0], bad[i][1] + Fraction(1, 5))
        assert fit_span_minimal(bad) is None
        assert _fit_reference(bad) is None
    few = [(s, f_eval(coeffs, s)) for s in (2, 3, 5, 3)]
    assert len(search._fit_plan((2, 3, 5, 3))[-1][0]) == 3
    assert fit_span_minimal(few) == _fit_reference(few) is not None
    few[-1] = (3, few[-1][1] + 1)
    assert fit_span_minimal(few) is None
    assert _fit_reference(few) is None


@pytest.mark.parametrize("svals", [(4, 5, 6, 7), (4, 6), (5, 7), (2, 3, 4, 5, 6, 7)])
def test_fit_plans_match_fraction_gauss_jordan(svals):
    """The plans of the s-tuples a search fits at (the plain anchors of each
    s-parity and the symmetric-even anchors) against [A | I] eliminated in
    Fractions."""
    n = len(svals)
    want = []
    for size in range(min(len(F_SPAN), n) + 1):
        for subset in itertools.combinations(range(len(F_SPAN)), size):
            aug = [
                [Fraction(F_BASIS[F_SPAN[i]](s)) for i in subset]
                + [Fraction(int(k == r)) for k in range(n)]
                for r, s in enumerate(svals)
            ]
            if len(_rref_reference(aug, size)) == size:
                solve = tuple(_integer_scale(row[size:]) for row in aug[:size])
                checks = tuple(_primitive(row[size:]) for row in aug[size:])
                want.append((subset, solve, checks))
    assert search._fit_plan(svals) == tuple(want)
    assert len(want) == {2: 22, 4: 57, 6: 64}[n]


def _poly_at(poly: dict, x: Fraction) -> Fraction:
    """A vanishing-condition polynomial {j: coefficient} at the weights x^j."""
    return sum((c * x**j for j, c in poly.items()), Fraction(0))


def _fit_candidate_f(weight_fn, anchors, j_parity):
    """The fit through the ConstExpr reductions: weighted_sum_f per anchor."""
    points = []
    for w in anchors:
        f = weighted_sum_f(weight_fn, w, j_parity)
        if f is None:
            return None
        points.append((w, f))
    return fit_span_minimal(points)


def _power_reference(config, conds=None):
    """Every pool value whose polynomials vanish at every anchor, each fitted
    through the ConstExpr reductions."""
    pool = height_rationals(config.H)
    for s_par in search._PARITIES:
        anchors = _anchor_weights(s_par)
        for j_par in search._PARITIES:
            polys = [p for w in anchors for p in _vanishing_polys(w, j_par)[0].values()]
            if not polys:
                continue
            for a in pool:
                if any(_poly_at(p, a) for p in polys):
                    continue
                coeffs = _fit_candidate_f(lambda _w, j, a=a: a**j, anchors, j_par)
                if coeffs is not None:
                    yield CandidateIdentity("power", {"a": a}, j_par, s_par, f_coeffs=coeffs)


def _poly_plain_reference(config):
    """The plain polynomial family from the Fraction polynomials and the
    ConstExpr fit."""
    monos = _monos("poly", config.deg)
    anchors = (4, 5, 6, 7)
    rows = [
        [sum((c * _MONOS[m][1](w, j) for j, c in poly.items()), Fraction(0)) for m in monos]
        for w in anchors
        for poly in _vanishing_polys(w, "any")[0].values()
    ]
    for vec in _nullspace(rows, len(monos)):
        params = {m: c for m, c in zip(monos, _canonical_scale(vec)) if c}
        if not params:
            continue
        cand = CandidateIdentity("poly", params)
        coeffs = _fit_candidate_f(lambda w, j, cand=cand: cand.weight(w, j), anchors, "any")
        if coeffs is not None:
            cand.f_coeffs = coeffs
            yield cand


def _vanishes_on_classes(b, c, d, j_par, s_par):
    """b^j + c^w d^j == 0 at every (w, j) of the classes, w = 4..12: the
    pairing's relation row is then zero at every weight a search checks."""
    return all(
        b**j + c**w * d**j == 0
        for w in range(4, 13)
        if _parity_ok(w, s_par)
        for j in range(2, w)
        if _parity_ok(j, j_par)
    )


def _affine_reference(config, conds=None):
    """All ordered (b, d) pairs of the pool, each weight's gamma solved from
    vals[b][w] + gamma vals[d][w] = 0 directly; pairings that vanish on
    their classes are left out."""
    pool = height_rationals(config.H)
    for s_par in search._PARITIES:
        anchors = _anchor_weights(s_par)
        for j_par in search._PARITIES:
            polysets = [(w, list(_vanishing_polys(w, j_par)[0].values())) for w in anchors]
            polysets = [(w, ps) for w, ps in polysets if ps]
            if not polysets:
                continue
            vals = {x: {w: [_poly_at(p, x) for p in ps] for w, ps in polysets} for x in pool}
            for b in pool:
                if not any(v for w, _ in polysets for v in vals[b][w]):
                    coeffs = _fit_candidate_f(lambda _w, j, b=b: b**j, anchors, j_par)
                    if coeffs is not None:
                        params = {"a": Fraction(1), "b": b, "c": Fraction(0), "d": Fraction(0)}
                        yield CandidateIdentity("affine", params, j_par, s_par, f_coeffs=coeffs)
            if len(polysets) < 2:
                continue
            for b, d in itertools.product(pool, pool):
                if b == d:
                    continue
                gammas = {}
                for w, _ in polysets:
                    vb, vd = vals[b][w], vals[d][w]
                    if not any(vd):
                        gammas[w] = None if any(vb) else "free"
                        continue
                    i = next(i for i, x in enumerate(vd) if x)
                    g = -vb[i] / vd[i]
                    gammas[w] = g if all(x + g * y == 0 for x, y in zip(vb, vd)) else None
                if None in gammas.values():
                    continue
                gammas = {w: g for w, g in gammas.items() if g != "free"}
                if len(gammas) < 2 or 0 in gammas.values():
                    continue
                (w1, g1), (w2, g2) = sorted(gammas.items())[:2]
                if w2 - w1 == 1:
                    croots = {g2 / g1}
                elif w2 - w1 == 2 and _fraction_sqrt(g2 / g1) is not None:
                    c = _fraction_sqrt(g2 / g1)
                    croots = {c, -c}
                else:
                    continue
                for c in croots:
                    if c == 0 or any(c**w != g for w, g in gammas.items()):
                        continue
                    if _vanishes_on_classes(b, c, d, j_par, s_par):
                        continue
                    coeffs = _fit_candidate_f(
                        lambda _w, j, b=b, c=c, d=d: b**j + c**_w * d**j, anchors, j_par
                    )
                    if coeffs is not None:
                        params = {"a": Fraction(1), "b": b, "c": c, "d": d}
                        yield CandidateIdentity("affine", params, j_par, s_par, f_coeffs=coeffs)


@pytest.mark.parametrize("H", [1, 3, 5])
def test_affine_keyed_pairing_matches_all_pairs(H):
    config = SearchConfig(H=H)
    got = list(_affine_candidates(config))
    assert [c.describe() for c in got] == [c.describe() for c in _affine_reference(config)]
    assert any(c.params["c"] for c in got)  # the pair stage is exercised


def test_is_new_rejects_repeats_and_rational_multiples():
    ones = CandidateIdentity("poly", {"1": Fraction(1)}, f_coeffs={"1": Fraction(1)})
    assert _is_new(ones, [])
    again = CandidateIdentity("poly", {"1": Fraction(1)}, f_coeffs={"1": Fraction(1)})
    assert not _is_new(again, [ones])
    lam = Fraction(-5, 3)
    scaled = CandidateIdentity("poly", {"1": lam}, f_coeffs={"1": lam})
    assert not _is_new(scaled, [ones])
    twos = CandidateIdentity(
        "power", {"a": Fraction(2)}, f_coeffs=fit_span_minimal(
            [(w, weighted_sum_f(lambda _w, j: Fraction(2) ** j, w)) for w in (4, 5, 6, 7)]
        ),
    )
    assert _is_new(twos, [ones])
    assert not _is_new(twos, [ones, twos])


# ---------------------------------------------------------------------------
# deduplication on integer relation rows and cached null-space checks
# ---------------------------------------------------------------------------


def _shape_reference(family):
    """(k, lo, off): the family's sum at s runs over zeta(kj, k(s-j)) for
    j = lo..s - off."""
    return {"symmetric-even": (2, 1, 1), "poly-even": (2, 2, 2)}.get(family, (1, 2, 1))


def _relation_reference(cand, w):
    """The relation vector over Q, entry by entry from weight() and f."""
    vec = [Fraction(0)] * (w - 2)
    k, lo, off = _shape_reference(cand.family)
    s = w // k
    for j in range(lo, s - off + 1):
        if _parity_ok(j, cand.j_parity):
            vec[k * j - 2] = cand.weight(s, j)
    return vec + [-f_eval(cand.f_coeffs, s)]


def _in_span_reference(vec, basis) -> bool:
    """Exact membership of vec in the rational span of the basis vectors, by
    eliminating the basis in Fraction arithmetic."""
    target = [Fraction(x) for x in vec]
    n = len(target)
    echelon = []
    for b in basis:
        row = [Fraction(x) for x in b]
        for lead, erow in echelon:
            if row[lead]:
                f = row[lead]
                row = [x - f * y for x, y in zip(row, erow)]
        lead = next((i for i in range(n) if row[i]), None)
        if lead is not None:
            inv = 1 / row[lead]
            echelon.append((lead, [x * inv for x in row]))
    for lead, erow in echelon:
        if target[lead]:
            f = target[lead]
            target = [x - f * y for x, y in zip(target, erow)]
    return not any(target)


def _is_new_reference(cand, emitted, weights=range(4, 13)) -> bool:
    for w in weights:
        if not cand.applicable(w):
            continue
        basis = [_relation_reference(e, w) for e in emitted if e.applicable(w)]
        if not _in_span_reference(_relation_reference(cand, w), basis):
            return True
    return False


_tiny = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_PARITY_PAIRS = list(itertools.product(("any", "even", "odd"), repeat=2))


@st.composite
def _random_candidate(draw):
    """A candidate of any family with small rational parameters and f."""
    fam = draw(st.sampled_from(["power", "affine", "symmetric-even", "poly", "poly-even"]))
    f_coeffs = draw(st.dictionaries(st.sampled_from(F_SPAN), _tiny, max_size=2))
    if fam == "symmetric-even":
        params = {"d": draw(_tiny)}
    elif fam == "power":
        params = {"a": draw(_tiny)}
    elif fam == "affine":
        params = {k: draw(_tiny) for k in "abcd"}
    else:
        params = draw(st.dictionaries(st.sampled_from(_monos(fam, 2)), _tiny))
    if fam in ("symmetric-even", "poly-even"):
        return CandidateIdentity(fam, params, f_coeffs=f_coeffs)
    j_par, s_par = draw(st.sampled_from(_PARITY_PAIRS))
    return CandidateIdentity(fam, params, j_par, s_par, f_coeffs)


def _scaled(cand, lam):
    """A candidate whose relations are lam times those of a power or poly
    candidate."""
    if cand.family == "power":
        params = {"a": lam, "b": cand.params["a"], "c": Fraction(0), "d": Fraction(0)}
        fam = "affine"
    else:
        params = {m: lam * c for m, c in cand.params.items()}
        fam = cand.family
    f = {k: lam * c for k, c in cand.f_coeffs.items()}
    return CandidateIdentity(fam, params, cand.j_parity, cand.s_parity, f)


def _combined(c1, c2, l1, l2):
    """l1 c1 + l2 c2 for two poly candidates of the same shape."""
    params = {m: l1 * c1.params.get(m, 0) + l2 * c2.params.get(m, 0)
              for m in {**c1.params, **c2.params}}
    f = {k: l1 * c1.f_coeffs.get(k, 0) + l2 * c2.f_coeffs.get(k, 0)
         for k in {**c1.f_coeffs, **c2.f_coeffs}}
    return CandidateIdentity(c1.family, params, c1.j_parity, c1.s_parity, f)


@st.composite
def _dedup_case(draw):
    """(candidate, emitted): emitted may be empty or hold zero rows; the
    candidate is fresh, a rational multiple of an emitted one, or (poly) a
    rational combination of two emitted ones."""
    emitted = draw(st.lists(_random_candidate(), max_size=4))
    kind = draw(st.sampled_from(["fresh", "multiple", "combination"]))
    lam = draw(_tiny.filter(bool))
    scalable = [e for e in emitted if e.family in ("power", "poly", "poly-even")]
    if kind == "multiple" and scalable:
        return _scaled(draw(st.sampled_from(scalable)), lam), emitted
    polys = [(a, b) for a in emitted for b in emitted
             if a.family == b.family and a.family in ("poly", "poly-even")
             and (a.j_parity, a.s_parity) == (b.j_parity, b.s_parity)]
    if kind == "combination" and polys:
        a, b = draw(st.sampled_from(polys))
        return _combined(a, b, lam, draw(_tiny)), emitted
    return draw(_random_candidate()), emitted


@given(_dedup_case())
@settings(max_examples=100, deadline=None)
def test_is_new_matches_fraction_elimination(case):
    cand, emitted = case
    assert _is_new(cand, emitted) == _is_new_reference(cand, emitted)
    for c in (cand, *emitted):
        for w in range(4, 13):
            if c.applicable(w):
                assert list(c.relation(w)) == _primitive(_relation_reference(c, w))


@pytest.mark.parametrize("family, params, j_par, s_par", [
    ("power", {"a": Fraction(-2, 3)}, "odd", "any"),
    ("affine", {"a": Fraction(3, 2), "b": Fraction(1, 3), "c": Fraction(-5, 2),
                "d": Fraction(4, 3)}, "any", "even"),
    ("affine", {"a": Fraction(1), "b": Fraction(-3, 2), "c": Fraction(0),
                "d": Fraction(0)}, "even", "odd"),
    ("symmetric-even", {"d": Fraction(-3, 2)}, "any", "any"),
    ("poly", {"j": Fraction(1, 2), "s^2": Fraction(-2, 3)}, "any", "any"),
])
def test_relation_rows_are_primitive_multiples(family, params, j_par, s_par):
    f = {"1": Fraction(2, 7), "4^s": Fraction(-1, 5)}
    cand = CandidateIdentity(family, params, j_par, s_par, f)
    for w in range(4, 13):
        if cand.applicable(w):
            assert list(cand.relation(w)) == _primitive(_relation_reference(cand, w)), w


def _weight_reference(cand, s, j) -> Fraction:
    """The weight of each family by its Fraction formula."""
    p = {k: Fraction(v) for k, v in cand.params.items()}
    if cand.family == "power":
        return p["a"] ** j
    if cand.family == "affine":
        return p["a"] * p["b"] ** j + (p["c"] ** s * p["d"] ** j if p["c"] else 0)
    if cand.family == "symmetric-even":
        return p["d"] ** j + p["d"] ** (s - j)
    monos = {"1": 1, "j": j, "s": s, "j^2": j * j, "j*s": j * s, "s^2": s * s,
             "j*(s-j)": j * (s - j)}
    return sum(c * monos[m] for m, c in p.items())


_WEIGHT_CASES = [
    ("power", {"a": Fraction(-2, 3)}),
    ("power", {"a": Fraction(0)}),
    ("affine", {"a": Fraction(3, 2), "b": Fraction(1, 3), "c": Fraction(-5, 2),
                "d": Fraction(4, 3)}),
    ("affine", {"a": Fraction(1), "b": Fraction(-3, 2), "c": Fraction(0), "d": Fraction(0)}),
    ("affine", {"a": Fraction(-1), "b": Fraction(0), "c": Fraction(1, 2), "d": Fraction(-7, 5)}),
    ("poly", {"1": Fraction(1, 2), "j": Fraction(-2), "s": Fraction(3), "j^2": Fraction(1, 3),
              "j*s": Fraction(-1), "s^2": Fraction(2, 7)}),
    ("symmetric-even", {"d": Fraction(-3, 2)}),
    ("symmetric-even", {"d": Fraction(0)}),
    ("poly-even", {"1": Fraction(1), "s": Fraction(-1, 2), "s^2": Fraction(1, 3),
                   "j*(s-j)": Fraction(2)}),
]


@pytest.mark.parametrize("family, params", _WEIGHT_CASES)
def test_weights_js_and_scaled_weights_match_the_fraction_formulas(family, params):
    """weight, js and _scaled_weights state the terms of the sum at s as the
    family formulas do, in every (j, s) parity class of the family's shape
    (even-argument candidates come in the class (any, any) only)."""
    k, lo, off = _shape_reference(family)
    for j_par, s_par in _PARITY_PAIRS if k == 1 else [("any", "any")]:
        cand = CandidateIdentity(family, params, j_par, s_par)
        assert cand.shape == (k, lo, off)
        for s in range(2, 13):
            js = [j for j in range(lo, s - off + 1) if _parity_ok(j, j_par)]
            assert cand.js(s) == js, (j_par, s)
            for j in range(s + 1):
                assert cand.weight(s, j) == _weight_reference(cand, s, j), (j_par, s, j)
            ints, den = cand._scaled_weights(s, js)
            assert den > 0 and len(ints) == len(js)
            assert [Fraction(x, den) for x in ints] == [_weight_reference(cand, s, j) for j in js]


def test_weight_of_an_unknown_family_is_a_domain_error():
    with pytest.raises(DomainError, match="unknown family 'cubic'"):
        CandidateIdentity("cubic", {}).weight(4, 2)
    for probe in (lambda c: c.js(4), lambda c: c.applicable(4), lambda c: c.relation(4)):
        with pytest.raises(DomainError, match="unknown family 'cubic'"):
            probe(CandidateIdentity("cubic", {}))


def test_is_new_zero_rows():
    zero = CandidateIdentity("poly", {}, f_coeffs={})
    assert not _is_new(zero, [])
    ones = CandidateIdentity("poly", {"1": Fraction(1)}, f_coeffs={"1": Fraction(1)})
    assert _is_new(ones, [zero])
    assert not _is_new(zero, [ones])


def test_symmetric_even_polynomial_matches_even_arg_sum():
    for d in height_rationals(16):
        wf = lambda s, j, d=d: d**j + d ** (s - j)
        for s in range(2, 9):
            assert _symmetric_even_f(s, d) == even_arg_sum_f(wf, s, 1, 1), (s, d)


def test_search_stream_matches_fraction_elimination(monkeypatch):
    """The H = 5 candidate stream and survivors, with the checks and with the
    Fraction-elimination reference patched in for _is_new."""
    import mzv.search as search

    def run(is_new):
        seen = []

        def recording(cand, emitted):
            new = is_new(cand, emitted)
            seen.append((cand.describe(), new))
            return new

        monkeypatch.setattr(search, "_is_new", recording)
        out = search_general(SearchConfig(H=5))
        return seen, [c.describe() for c in out]

    got = run(search._is_new)
    want = run(_is_new_reference)
    assert got == want
    assert sum(new for _, new in got[0]) > len(got[1]) > 0


def test_unknown_family_is_a_domain_error():
    with pytest.raises(DomainError, match="bogus"):
        search_general(SearchConfig(families=("power", "bogus")))


def test_even_arg_sum_rejects_unsupported_range():
    with pytest.raises(DomainError, match=r"\(3, 3\)"):
        even_arg_sum_f(lambda s, j: Fraction(1), 6, 3, 3)


# ---------------------------------------------------------------------------
# integer anchor tables against the Fraction polynomials and ConstExpr fits
# ---------------------------------------------------------------------------

_ANCHOR_KEYS = list(itertools.product((4, 5, 6, 7), ("any", "even", "odd")))


@st.composite
def _anchor_weight_vector(draw, w, j_par):
    """Rational weights over the j columns: uniformly random (nearly always
    failing the vanishing conditions) or a random point of their null space,
    sometimes perturbed."""
    js = [j for j in range(2, w) if _parity_ok(j, j_par)]
    polys = list(_vanishing_polys(w, j_par)[0].values())
    if not polys or draw(st.booleans()):
        return js, [draw(_small_fractions) for _ in js]
    basis = _nullspace([[Fraction(p.get(j, 0)) for j in js] for p in polys], len(js))
    lams = [draw(_small_fractions) for _ in basis]
    x = [sum((lam * vec[i] for lam, vec in zip(lams, basis)), Fraction(0)) for i in range(len(js))]
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(js) - 1))
        x[i] += draw(_small_fractions.filter(bool))
    return js, x


@pytest.mark.parametrize("w, j_par", _ANCHOR_KEYS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_anchor_f_matches_weighted_sum_f(w, j_par, data):
    js, x = data.draw(_anchor_weight_vector(w, j_par))
    assert list(_anchor_table(w, j_par)[0]) == js
    weights = dict(zip(js, x))
    want = weighted_sum_f(lambda _w, j: weights[j], w, j_par)
    assert _anchor_f(w, j_par, *_integer_scale(x)) == want


@pytest.mark.parametrize("w, j_par", _ANCHOR_KEYS)
def test_condition_vectors_match_fraction_polynomials(w, j_par):
    """Zero pattern, pairing key and affine gamma of the integer condition
    vectors, against the polynomials evaluated in Fractions."""
    polys = list(_vanishing_polys(w, j_par)[0].values())
    pool = height_rationals(5)
    ref = {x: [_poly_at(p, x) for p in polys] for x in pool}
    got = {x: _condition_vector(w, j_par, _pair(x)) for x in pool}

    def ref_direction(vec):
        return tuple(_primitive(vec)) if any(vec) else None

    for x in pool:
        assert [v == 0 for v in got[x]] == [v == 0 for v in ref[x]], x
        assert _direction(got[x]) == ref_direction(ref[x]), x
    pairs = 0
    for b, d in itertools.product(pool, pool):
        key = ref_direction(ref[d])
        if key is None or ref_direction(ref[b]) != key:
            continue
        i = next(i for i, v in enumerate(ref[d]) if v)
        assert _gamma(w, _pair(b), got[b], _pair(d), got[d]) == -ref[b][i] / ref[d][i], (b, d)
        pairs += 1
    assert pairs or not polys or all(ref_direction(v) is None for v in ref.values())


@pytest.mark.parametrize("H", [1, 3, 5])
def test_power_stage_matches_all_pool_scan(H):
    config = SearchConfig(H=H)
    got = [c.describe() for c in _power_candidates(config)]
    assert got == [c.describe() for c in _power_reference(config)]
    assert got


def test_solve_power_base_matches_fraction_polynomials():
    for w, j_par in _ANCHOR_KEYS:
        if w == 4:
            continue
        polys = _vanishing_polys(w, j_par)[0].values()
        want = [a for a in height_rationals(5, include_zero=True)
                if not any(_poly_at(p, a) for p in polys)]
        assert solve_power_base(w, 5, j_par) == want


def test_height_rationals_returns_a_fresh_list():
    pool = height_rationals(3)
    pool.append(Fraction(99))
    assert Fraction(99) not in height_rationals(3)
    assert height_rationals(3, include_zero=True) == sorted(height_rationals(3) + [Fraction(0)])


_FIVE = ("power", "alternating", "affine", "symmetric-even", "poly")


def _stream(monkeypatch, config, prune=True):
    """The candidates passed to _is_new, in order, each with its answer, and
    the survivors; prune=False keeps the vanishing affine pairings."""
    seen = []
    is_new = search._is_new

    def recording(cand, emitted):
        new = is_new(cand, emitted)
        seen.append((cand, new))
        return new

    with monkeypatch.context() as m:
        m.setattr(search, "_is_new", recording)
        if not prune:
            m.setattr(search, "_vanishing_pairing", lambda *args: False)
        out = search_general(config)
    return seen, [c.describe() for c in out]


def test_search_stream_matches_constexpr_fits(monkeypatch):
    """The H = 8 candidate stream and survivors of every family, with the
    power, affine and plain polynomial stages replaced by the Fraction
    polynomial scans and ConstExpr fits."""
    import mzv.search as search

    config = SearchConfig(families=_FIVE, H=8)

    def run():
        seen, out = _stream(monkeypatch, config)
        return [(c.describe(), new) for c, new in seen], out

    got = run()
    monkeypatch.setattr(search, "_power_candidates", _power_reference)
    monkeypatch.setattr(search, "_affine_candidates", _affine_reference)
    monkeypatch.setattr(search, "_poly_plain_candidates", _poly_plain_reference)
    assert run() == got
    assert len(got[0]) == 37 and got[1]


@pytest.mark.parametrize(
    "H, families",
    [(H, fams) for H in range(1, 9) for fams in (SearchConfig.families, _FIVE)]
    + [(16, SearchConfig.families)],
)
def test_vanishing_pairings_are_exactly_the_zero_relations(monkeypatch, H, families):
    """Dropping the vanishing pairings removes from the _is_new stream exactly
    the candidates whose relation row is zero at every applicable weight,
    and leaves the survivors unchanged."""
    config = SearchConfig(families=families, H=H)
    pruned, kept = _stream(monkeypatch, config)
    full, kept_full = _stream(monkeypatch, config, prune=False)
    assert kept == kept_full

    def zero(cand):
        return not any(any(cand.relation(w)) for w in range(4, 13) if cand.applicable(w))

    want = [c.describe() for c, _ in full if not zero(c)]
    assert [c.describe() for c, _ in pruned] == want
    assert len(pruned) < len(full)


def test_search_h16_work_counters(monkeypatch):
    seen, kept = _stream(monkeypatch, SearchConfig(H=16))
    assert len(seen) == 26 and len(kept) == 4


def test_importing_mzv_leaves_search_unloaded():
    src = str(Path(mzv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, mzv; print('mzv.search' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# settings and the screen's error budget
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("settings_, match", [
    ({"prec": 5}, "precision must be at least 10 digits"),
    ({"H": 0}, "search height must be at least 1, got 0"),
    ({"H": -3}, "search height must be at least 1, got -3"),
    ({"deg": -1}, "polynomial degree must be 0, 1 or 2, got -1"),
    ({"deg": 5}, "polynomial degree must be 0, 1 or 2, got 5"),
])
def test_search_settings_are_checked_up_front(settings_, match):
    with pytest.raises(DomainError, match=match):
        search_general(SearchConfig(families=("poly",), **settings_))


def test_screen_raises_when_its_bound_cannot_resolve_the_tolerance(monkeypatch):
    f = {"1": Fraction(1), "s": Fraction(1)}
    cand = CandidateIdentity("power", {"a": Fraction(2)}, f_coeffs=f)
    assert numeric_screen(cand, prec=40, tol_exp=25)
    # the working digits follow the tolerance when it asks for more than prec
    assert numeric_screen(cand, prec=10, tol_exp=25)
    assert numeric_screen(cand, prec=40, tol_exp=60)
    # term bounds too coarse for the tolerance (values unchanged, nothing cached)
    dz = numerics._dzeta_internal
    monkeypatch.setattr(numerics, "_dzeta_internal", lambda a, b, D: (dz(a, b, D)[0], mpf(10) ** -20))
    with pytest.raises(PrecisionError, match=r"s=9: error bound .* tolerance 1e-25 at precision 40"):
        numeric_screen(cand, prec=40, tol_exp=25)
    with pytest.raises(PrecisionError):
        search_general(SearchConfig(families=("power",), H=2))
