"""Ansatz search: exact anchors, base solving, family reproduction, soundness."""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mzv.corpus import parse_corpus
from mzv.errors import DomainError
from mzv.search import (
    F_SPAN,
    CandidateIdentity,
    SearchConfig,
    _affine_candidates,
    _anchor_weights,
    _fit_candidate_f,
    _fraction_sqrt,
    _is_new,
    _poly_at,
    _solve_consistent,
    _span_value,
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
from mzv.verify import verify_numeric


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
    cand = CandidateIdentity(
        "power", {"a": Fraction(1)}, "any", "any", "plain", (2, 1),
        {"1": Fraction(1), "s": Fraction(1, 10**6)},
    )
    assert not numeric_screen(cand, prec=40, tol_exp=25)


def test_search_empty_config():
    assert search_general(SearchConfig(families=())) == []


# ---------------------------------------------------------------------------
# precomputed exact algebra against plain reference scans
# ---------------------------------------------------------------------------


def _fit_reference(points):
    """The fit by definition: one exact solve per F_SPAN subset, in order."""
    for size in range(0, min(len(F_SPAN), len(points)) + 1):
        for subset in itertools.combinations(range(len(F_SPAN)), size):
            rows = [[_span_value(F_SPAN[i], s) for i in subset] for s, _ in points]
            sol = _solve_consistent(rows, [f for _, f in points], size)
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


@given(_span_points())
@settings(max_examples=100, deadline=None)
def test_fit_span_minimal_matches_subset_scan(points):
    want = _fit_reference(points) if points else None
    assert fit_span_minimal(points) == want


def _affine_reference(config):
    """All ordered (b, d) pairs of the pool, each weight's gamma solved from
    vals[b][w] + gamma vals[d][w] = 0 directly."""
    pool = height_rationals(config.H)
    for s_par in config.parities:
        anchors = _anchor_weights(s_par)
        for j_par in config.parities:
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
