"""AST evaluation/reduction and the verification drivers."""
import inspect
import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from mzv import exact, numerics, reductions, verify
from mzv.corpus import ARITY, BinOp, Call, Gen, Lit, Neg, Param, Sum, parse_corpus, parse_expr, render_expr
from mzv.errors import DomainError, NotReducible, PrecisionError
from mzv.numerics import EvalContext, zeta_num
from mzv.reductions import dzeta_reduce
from mzv.symexpr import ConstExpr, L_sym, pi_power, zeta_sym
from mzv.verify import (
    SuiteConfig,
    enumerate_bindings,
    eval_ast,
    eval_ast_detailed,
    load_corpus,
    reduce_ast,
    reports_json,
    reports_tsv,
    run_suite,
    verify_numeric,
    verify_symbolic,
)


def _corpus_map():
    return {i.ident: i for i in load_corpus()}


def test_eval_ast_sum_formula(ctx40):
    ident = _corpus_map()["C02"]
    lhs, _ = ident.parts[0]
    with mp.workdps(60):
        got = eval_ast(lhs, {"s": 5}, ctx40)
        assert abs(got - zeta_num(5, ctx40)) < mpf(10) ** -38


def test_eval_ast_weighted_instances(ctx40):
    with mp.workdps(60):
        got = eval_ast(parse_expr("sum(j=2..3, 2^j*dz(j,4-j))"), {}, ctx40)
        assert abs(got - 5 * zeta_num(4, ctx40)) < mpf(10) ** -38
        assert abs(got - mp.pi**4 / 18) < mpf(10) ** -38
        got = eval_ast(parse_expr("sum(j=2..3, (-1)^j*dz(j,4-j))"), {}, ctx40)
        assert abs(got - zeta_num(4, ctx40) / 2) < mpf(10) ** -38


def test_eval_ast_exact_subtree(ctx40):
    val, bound, nodes = eval_ast_detailed(parse_expr("B(12)*binom(4,2)"), {}, ctx40)
    assert val == Fraction(-691, 2730) * 6
    assert bound == 0 and nodes > 0


def test_reduce_ast_examples():
    e = reduce_ast(parse_expr("zeta(2)*zeta(2) - zeta(4)"), {})
    assert e == pi_power(4, Fraction(1, 60))
    e = reduce_ast(parse_expr("sum(j=2..4, dz(j,5-j))"), {})
    assert e == zeta_sym(5)
    # weight 8 leftovers; the message names the first one
    with pytest.raises(NotReducible, match=r"^Witten value leaves irreducible double zetas: zeta\(6,2\) has weight 8 > 7$"):
        reduce_ast(parse_expr("W(2,2,4)"), {})
    with pytest.raises(NotReducible):
        reduce_ast(parse_expr("dz(5,3)"), {})


def test_reduce_ast_division_and_powers():
    e = reduce_ast(parse_expr("zeta(6)/zeta(4)"), {})
    assert e == pi_power(2, Fraction(90, 945))
    e = reduce_ast(parse_expr("(pi^2*zeta(3))/pi^2"), {})
    assert e == zeta_sym(3)
    # monomials carry positive exponents only: a bare negative power of pi
    # cannot absorb later factors and is reported as not reducible
    with pytest.raises(NotReducible):
        reduce_ast(parse_expr("(2*pi)^(-2)*pi^2"), {})


def test_verify_numeric_pass_and_metadata(ctx40):
    ident = _corpus_map()["C25"]
    r = verify_numeric(ident, {"s": 3}, ctx40)
    assert r.status == "pass"
    assert mpf(r.residual) < mpf(10) ** -30


def test_verify_numeric_sensitivity_control(ctx40):
    # corrupted constant must fail: rhs scaled by 1.000001
    text = "identity BAD : forall s>=3 : sum(j=2..s-1, dz(j,s-j)) == 1000001/1000000*zeta(s)"
    (ident,) = parse_corpus(text)
    r = verify_numeric(ident, {"s": 4}, ctx40)
    assert r.status == "fail"


def test_verify_symbolic_modes(ctx40):
    cmap = _corpus_map()
    r = verify_symbolic(cmap["C01"], {"a": 2, "b": 3})
    assert r.status == "pass" and r.exact
    r = verify_symbolic(cmap["C32"], {"s": 4})
    assert r.status == "pass"
    r = verify_symbolic(cmap["C29"], {})
    assert r.status == "pass"
    # weight beyond reduction scope: symbolic degrades to numeric-only
    r = verify_symbolic(cmap["C01"], {"a": 5, "b": 4})
    assert r.status == "numeric-only"


def test_symbolic_pass_implies_numeric_pass(ctx40):
    cmap = _corpus_map()
    cases = [("C01", {"a": 2, "b": 3}), ("C02", {"s": 5}), ("C04", {"s": 3}),
             ("C05", {"s": 3}), ("C13", {"s": 2}), ("C32", {"s": 4})]
    for cid, binding in cases:
        rs = verify_symbolic(cmap[cid], binding)
        rn = verify_numeric(cmap[cid], binding, ctx40)
        assert rs.status == "pass", (cid, rs.error)
        assert rn.status == "pass", cid


def test_enumerate_bindings_constraints():
    (ident,) = parse_corpus(
        "identity T : forall n>=1, m>=0, m<=n : binom(n,m) == binom(n,n-m)"
    )
    bindings = list(enumerate_bindings(ident, 3))
    assert {(b["n"], b["m"]) for b in bindings} == {
        (n, m) for n in range(1, 4) for m in range(0, n + 1)
    }


@pytest.mark.parametrize("clauses, want", [
    ("", [{}]),  # a parameterless identity is one instance
    ("n>=1, m>=0, m<=2", [{"n": n, "m": m} for n in range(1, 5) for m in range(0, 3)]),
    ("m>=0, n>=1, m<=n",
     [{"m": m, "n": n} for m in range(0, 5) for n in range(1, 5) if m <= n]),
    ("s>=2, s even, t>=1, t odd, t<=s",
     [{"s": s, "t": t} for s in range(2, 5) for t in range(1, 5) if s % 2 == 0 and t % 2 and t <= s]),
    ("s>=6, t>=1, t<=s", [{"s": 6, "t": t} for t in range(1, 5)]),  # a lower bound above max_param
])
def test_enumerate_bindings_order_matches_nested_loops(clauses, want):
    head = f"forall {clauses} :" if clauses else ""
    (ident,) = parse_corpus(f"identity T : {head} 1 == 1")
    assert list(enumerate_bindings(ident, 4)) == want


def test_run_suite_empty_ids():
    reports, summary = run_suite(SuiteConfig(ids=[], max_param=3))
    assert reports == [] and summary["failures"] == 0


def test_const_expr_render_roundtrips_through_parser():
    for expr in (
        dzeta_reduce(3, 2),
        dzeta_reduce(2, 3),
        zeta_sym(6) * zeta_sym(3) + ConstExpr.rational(Fraction(2, 7)),
    ):
        back = reduce_ast(parse_expr(expr.render()), {})
        assert back == expr


def test_run_suite_subset_and_reports(tmp_path):
    reports, summary = run_suite(SuiteConfig(ids=["C36", "C40", "C42"], max_param=6, prec=30))
    assert summary["failures"] == 0
    assert all(r.exact for r in reports)  # these stay in exact rational arithmetic
    js = reports_json(reports, summary, timestamp=False)
    assert '"schema": 1' in js and "timestamp" not in js
    js2 = reports_json(reports, summary, timestamp=False)
    assert js == js2  # byte-identical without the timestamp
    tsv = reports_tsv(reports)
    assert tsv.splitlines()[0].startswith("id\t")


def test_precision_scaling_residuals_shrink():
    """Each side of C02..C05 at s = 8 comes >= 1e8 closer to its own P = 90
    value from P=30 to P=50.  Unlike |lhs - rhs|, a side's distance to a deeper
    evaluation of itself cannot be an exact zero by luck."""
    cmap = _corpus_map()
    for cid in ("C02", "C03", "C04", "C05"):
        for prec in (30, 50):
            assert verify_numeric(cmap[cid], {"s": 8}, EvalContext(prec)).status == "pass"
        for side in (side for part in cmap[cid].parts for side in part):
            ref = eval_ast(side, {"s": 8}, EvalContext(90))
            with mp.workdps(110):
                dist = {prec: abs(eval_ast(side, {"s": 8}, EvalContext(prec)) - ref) for prec in (30, 50)}
                assert dist[30] / max(dist[50], mpf(10) ** -75) >= mpf(10) ** 8, (cid, side, dist)


def test_numeric_verify_reads_no_reduction(monkeypatch):
    """The numeric statuses of the harmonic and Witten identities C07..C15 come
    from numerics alone: with every closed form of reductions made to raise,
    a cold numeric verify gives the same statuses."""
    ctx = EvalContext(40)
    instances = [(ident, b) for ident in load_corpus() if "C07" <= ident.ident <= "C15"
                 for b in enumerate_bindings(ident, 10)]
    want = [verify_numeric(ident, b, ctx).status for ident, b in instances]

    def closed_form(*args):
        raise AssertionError(f"the numeric verify read a closed form {args}")

    numerics.clear_caches()
    for name in ("harmonic_reduction", "witten_reduction", "dzeta_reduce", "zeta_s1_reduce"):
        monkeypatch.setattr(reductions, name, closed_form)
    for name in ("dz_table", "witten", "alt_value"):
        monkeypatch.setattr(reductions._TABLE, name, closed_form)
    assert [verify_numeric(ident, b, ctx).status for ident, b in instances] == want
    assert len(want) > 100 and "pass" in want


def test_exact_values_stay_exact(ctx40):
    # exact results are Fractions at the boundary, never floats or ints
    for text, want in (("2^(0-3)", Fraction(1, 8)), ("1/3", Fraction(1, 3)),
                       ("2*3 - 6/3", Fraction(4)), ("binom(6,3)/fact(3)", Fraction(10, 3)),
                       ("(0-2)^(0-3)", Fraction(-1, 8)), ("sum(j=1..4, 1/j)", Fraction(25, 12))):
        val, bound, nodes = eval_ast_detailed(parse_expr(text), {}, ctx40)
        assert type(val) is Fraction and val == want, text
        assert bound == 0 and nodes > 0
        assert reduce_ast(parse_expr(text), {}) == ConstExpr.rational(want), text


def test_call_table_matches_the_parser_arity():
    # the character ids come first, and num takes D before them
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    assert set(verify._CALLS) == set(ARITY)
    for name, spec in verify._CALLS.items():
        nchars, nargs = ARITY[name]
        assert len(spec.labels) == nargs, name
        assert (spec.exact is None) == (spec.num is not None) == (spec.sym is not None), name
        for entry, extra in ((spec.ok, 0), (spec.exact, 0), (spec.sym, 0), (spec.num, 1)):
            if entry is not None:
                params = inspect.signature(entry).parameters.values()
                assert [p.kind in positional for p in params] == [True] * (nchars + nargs + extra), name


def test_verify_numeric_reports_a_side_over_its_bound_budget(ctx40, monkeypatch):
    (ident,) = parse_corpus("identity T : 1 == 1 ; 2*zeta(3) == zeta(3) + zeta(3)")
    assert verify_numeric(ident, {}, ctx40).status == "pass"
    real = numerics._zeta_internal
    monkeypatch.setattr(numerics, "_zeta_internal", lambda s, D: (real(s, D)[0], mpf(1)))
    r = verify_numeric(ident, {}, ctx40)
    assert r.status == "error"
    assert r.error.startswith("equation 2, left side: accumulated error bound 1.0 exceeds")
    (ident,) = parse_corpus("identity T : 3 == zeta(3) - zeta(3) + 3")
    r = verify_numeric(ident, {}, ctx40)
    assert r.status == "error" and r.error.startswith("equation 1, right side:")
    with pytest.raises(PrecisionError):
        eval_ast(parse_expr("zeta(3)"), {}, ctx40)


@pytest.mark.parametrize("side", ["(pi-pi)^(0-s)", "0^(0-s)", "sum(j=1..(0^(0-s)), j)"])
def test_zero_to_a_negative_power_is_reported_in_both_modes(ctx40, side):
    (ident,) = parse_corpus(f"identity T : forall s>=1 : {side} == 1")
    for r in (verify_numeric(ident, {"s": 1}, ctx40), verify_symbolic(ident, {"s": 1})):
        assert (r.status, r.error) == ("error", "0 raised to a negative power")


@pytest.mark.parametrize("text", ["zeta(1)", "hsum_odd(1)", "hsum_half(0)", "dz(1,2)",
                                  "W(0,0,1)", "L(1,1)", "cs(1,1;1,2)", "fact(0-1)",
                                  "hyp2f1sp(0)", "binom(3/2,1)"])
def test_domain_checks_run_in_both_modes(ctx40, text):
    ast = parse_expr(text)
    with pytest.raises(DomainError) as num:
        eval_ast_detailed(ast, {}, ctx40)
    with pytest.raises(DomainError) as sym:
        reduce_ast(ast, {})
    assert str(num.value) == str(sym.value)


def _outcome(fn):
    try:
        return "ok", fn()
    except (DomainError, NotReducible, PrecisionError, OverflowError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


def _bits(v):
    return v._mpf_ if isinstance(v, mpf) else (type(v), v)


def test_walks_match_the_reference_walk_on_the_corpus(ctx40):
    """Every side of every corpus identity at max-param <= 5, against the
    isinstance-chain walk below: numeric value, bound and node count bits, and
    symbolic ConstExpr, or else the same exception text."""
    checked = 0
    for ident in load_corpus():
        for binding in enumerate_bindings(ident, 5):
            for side in {id(x): x for part in ident.parts for x in part}.values():
                def ref_num():
                    ev = _RefNumEval(ctx40)
                    with mp.workdps(ctx40.work_digits + 10):
                        v = ev.run(side, dict(binding))
                    return _bits(v), _bits(ev.bound), ev.nodes

                def new_num():
                    v, b, n = eval_ast_detailed(side, binding, ctx40)
                    return _bits(v), _bits(b), n

                assert _outcome(new_num) == _outcome(ref_num), (ident.ident, binding)
                assert _outcome(lambda: reduce_ast(side, binding)) == _outcome(
                    lambda: _ref_reduce(side, dict(binding))
                ), (ident.ident, binding)
                checked += 1
    assert checked > 400


@pytest.mark.parametrize("seed", [1, 2])
def test_cached_plans_match_the_reference_walk_in_any_order(ctx40, seed):
    """Every corpus side at max-param <= 5 through its cached plan, in a
    shuffled order and twice over, against the reference walk: value, bound
    and node count bits, or else the same exception text."""
    import random

    cases = [(ident, binding, side) for ident in load_corpus()
             for binding in enumerate_bindings(ident, 5)
             for side in {id(x): x for part in ident.parts for x in part}.values()]
    plans = {}
    for _ in range(2):
        random.Random(seed).shuffle(cases)
        seed += 100
        for ident, binding, side in cases:
            plan = verify._side_plan(ident, side)
            assert plans.setdefault(id(side), plan) is plan

            def ref_num():
                ev = _RefNumEval(ctx40)
                with mp.workdps(ctx40.work_digits + 10):
                    v = ev.run(side, dict(binding))
                return _bits(v), _bits(ev.bound), ev.nodes

            def plan_num():
                with mp.workdps(ctx40.work_digits + 10):
                    v, b, n = verify._walk_numeric(plan, binding, ctx40, "side")
                return _bits(Fraction(v) if type(v) is int else v), _bits(b), n

            assert _outcome(plan_num) == _outcome(ref_num), (ident.ident, binding)
    assert len(plans) > 100


@pytest.mark.parametrize("mode", ["numeric", "symbolic", "both"])
def test_run_suite_compiles_each_side_once(monkeypatch, mode):
    # a symbolic verify stops at the first side it can not reduce, so it may
    # leave a later side of the same identity uncompiled
    compiled = []
    real = verify._compile_side
    monkeypatch.setattr(verify, "_compile_side", lambda side: compiled.append(id(side)) or real(side))
    corpus = load_corpus()
    monkeypatch.setattr(verify, "load_corpus", lambda path=None: corpus)
    run_suite(SuiteConfig(max_param=3, mode=mode))
    distinct = {id(x) for ident in corpus for part in ident.parts for x in part}
    assert len(set(compiled)) == len(compiled)
    assert set(compiled) <= distinct and len(compiled) > 100
    if mode != "symbolic":
        assert set(compiled) == distinct
    # sum bounds are compiled with their side, so a second run compiles no node
    nodes = []
    real_compile = verify._compile
    monkeypatch.setattr(verify, "_compile", lambda node, table: nodes.append(node) or real_compile(node, table))
    run_suite(SuiteConfig(max_param=3, mode=mode))
    assert nodes == []
    reduce_ast(parse_expr("sum(j=1..3, j)"), {})
    assert nodes  # the compiler in use is the one counted


def test_one_shot_evaluation_keeps_no_plan(ctx40, monkeypatch):
    import gc
    import weakref

    made = []
    real = verify._compile_side

    def compile_side(side):
        plan = real(side)
        made.append(weakref.ref(plan.fn))
        return plan

    monkeypatch.setattr(verify, "_compile_side", compile_side)
    ast = parse_expr("sum(j=2..4, 2^j*dz(j,5-j)) + zeta(3)")
    first = eval_ast(ast, {}, ctx40)
    assert eval_ast_detailed(ast, {}, ctx40)[0] == first
    gc.collect()
    assert len(made) == 2 and all(ref() is None for ref in made)


_ODD_INPUTS = (
    "zeta(1/2)", "dz(pi,2)", "2^(1/2)", "1/0", "pi/0", "sum(j=1..1/2, j)", "sum(j=1..B(2), j)",
    "sum(j=1..pi, j)", "abs(pi)", "pi^pi", "2^pi", "(pi-pi)/(pi-pi)", "(pi-pi)^(0-1)", "B(1/2)",
    "binom(1/2, 1)", "binom(3, zeta(2))", "zeta(zeta(0)*(0-4))", "sum(j=1..3, j/(j-2))",
    "sum(j=1..(0^(0-1)), j)", "pi/(pi/pi - 1)", "(pi*zeta(3))/zeta(3)", "(pi+1)/pi",
    "(2*pi)^(0-2)*pi^2", "dz(5,3)/dz(5,3)", "W(2,2,4)*0", "cs(2b,1;1,1)", "B(0-2)", "L(2b,1)",
    "sum(j=3..1, pi)", "li4h^2/li4h", "(pi-pi)^0", "0^0", "binom(0-1, 2)", "0^(0-1)",
    "W(1,1,3/2)", "W(1,pi,3)", "cs(2b,1;pi,1)", "cs(2b,1;2,3/2)", "L(2b,1/2)", "hsum_half(pi)",
    "binom(3/2,1)", "binom(3,pi)", "dz(3,pi)", "fact(zeta(2))", "abs(0-zeta(3))", "L(m4,2)",
    "sum(j=1..1/(1-1), j)", "sum(j=1..4^(1/2), j)", "sum(j=1..(1/0)*pi, j)",
)


@pytest.mark.parametrize("text", _ODD_INPUTS)
def test_odd_inputs_match_the_reference_walk(ctx30, text):
    # values, bounds, node counts and error texts off the corpus's beaten path
    ast = parse_expr(text)

    def ref_num():
        ev = _RefNumEval(ctx30)
        with mp.workdps(ctx30.work_digits + 10):
            v = ev.run(ast, {})
        return _bits(v), _bits(ev.bound), ev.nodes

    def new_num():
        v, b, n = eval_ast_detailed(ast, {}, ctx30)
        return _bits(v), _bits(b), n

    assert _outcome(new_num) == _outcome(ref_num)
    assert _outcome(lambda: reduce_ast(ast, {})) == _outcome(lambda: _ref_reduce(ast, {}))


_FOLDED_INPUTS = (
    "10^30*zeta(3)", "zeta(3)*10^30", "zeta(3)+2^60", "2^60-zeta(3)", "zeta(3)/2^60", "2^60/zeta(3)",
    "10^80*zeta(3)", "zeta(3)-10^80", "10^80/zeta(3)", "zeta(3)/10^80", "(10^80+s)*zeta(3)",
    "zeta(3)*(1/3)", "(1/3)-zeta(3)", "zeta(3)/3", "3/zeta(3)", "zeta(3)^(0-2)", "pi^0",
    "s*zeta(3)", "zeta(3)*s", "s-zeta(3)", "(s+1)*zeta(3)", "2*s*zeta(3)", "zeta(3)/s", "s/zeta(3)",
    "(0-1)^s*zeta(3)", "sum(j=1..3, s*j*zeta(2*j))", "zeta(3)/(s-s)", "s/(s-s)", "3*W(1,1,1)",
    "cs(2b,1;1+1,1)*s",
)
# with a parameter exponent: at s = 3 only
_FOLDED_POWERS = ("2^s*zeta(3)", "s^(0-s)", "(1/2)^s*dz(3,2)", "zeta(3)^s", "(s-3)^(0-s)")


@pytest.mark.parametrize("text, s", [(t, 3) for t in _FOLDED_INPUTS + _FOLDED_POWERS]
                         + [(t, s) for t in _FOLDED_INPUTS for s in (2**60 + 1, 10**80 + 1)])
def test_folded_operands_match_the_reference_walk(ctx30, text, s):
    # small-int and parameter operands folded into their operation, next to
    # ints wider than the working precision and Fractions, which are rounded
    # to mpf first
    ast = parse_expr(text)

    def ref_num():
        ev = _RefNumEval(ctx30)
        with mp.workdps(ctx30.work_digits + 10):
            v = ev.run(ast, {"s": s})
        return _bits(v), _bits(ev.bound), ev.nodes

    def new_num():
        v, b, n = eval_ast_detailed(ast, {"s": s}, ctx30)
        return _bits(v), _bits(b), n

    assert _outcome(new_num) == _outcome(ref_num)


def test_eval_and_reduce_reject_the_same_inputs_alike(ctx30):
    """Where the numeric walk raises a DomainError on an odd or folded input,
    the symbolic walk raises one with the same text.  cs(2b,1;1,1) is the one
    exception: numerics does not support its divergent inner sum yet, and
    the symbolic walk has no tabulated value for it."""
    differ = []
    for text in _ODD_INPUTS + _FOLDED_INPUTS + _FOLDED_POWERS:
        ast = parse_expr(text)
        num = _outcome(lambda: eval_ast_detailed(ast, {"s": 3}, ctx30))
        if num[0] == "DomainError" and _outcome(lambda: reduce_ast(ast, {"s": 3})) != num:
            differ.append(text)
    assert differ == ["cs(2b,1;1,1)"]


# ---------------------------------------------------------------------------
# the original isinstance-chain walk (numeric and symbolic), kept as the
# reference that the table-driven walk must reproduce
# ---------------------------------------------------------------------------


def _ref_eval_int(node, env) -> int:
    """Exact integer evaluation for sum bounds (params, ints, + - * / ^)."""
    return _ref_as_int(_ref_eval_exact(node, env), "sum bound")


def _ref_eval_exact(node, env) -> Fraction:
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Param):
        return Fraction(env[node.name])
    if isinstance(node, Neg):
        return -_ref_eval_exact(node.arg, env)
    if isinstance(node, BinOp):
        a = _ref_eval_exact(node.left, env)
        b = _ref_eval_exact(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if b == 0:
                raise DomainError("division by zero")
            return a / b
        if node.op == "^":
            k = _ref_as_int(b, "exponent")
            if a == 0 and k < 0:
                raise DomainError("0 raised to a negative power")
            return a**k
    raise DomainError(f"{render_expr(node)} is not allowed in a sum bound")


_REF_EXACT_CALLS = {
    "Hrat": lambda n: exact.harmonic(n),
    "B": lambda n: exact.bernoulli(n),
    "E": lambda n: Fraction(exact.euler_number(n)),
    "fact": lambda n: Fraction(_ref_exact_factorial(n)),
    "hyp2f1sp": lambda n: exact.hyp2f1_special(n),
}


def _ref_exact_factorial(n: int) -> int:
    if n < 0:
        raise DomainError("factorial of a negative integer")
    return math.factorial(n)


def _ref_as_int(v, what: str) -> int:
    """The one exactness rule: an integral Fraction's int, else DomainError."""
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return v.numerator
        raise DomainError(f"{what} must be an integer, got {v}")
    raise DomainError(f"{what} must be exact")


class _RefNumEval:
    """Numeric evaluator carrying (value, bound); values are Fraction or mpf."""

    def __init__(self, ctx: EvalContext):
        self.ctx = ctx
        self.D = ctx.work_digits
        self.nodes = 0
        self.bound = mp.zero

    def to_mpf(self, v):
        if isinstance(v, Fraction):
            return mpf(v.numerator) / v.denominator
        return v

    def run(self, node, env):
        self.nodes += 1
        if isinstance(node, Lit):
            return node.value
        if isinstance(node, Param):
            return Fraction(env[node.name])
        if isinstance(node, Gen):
            v, b = numerics._generator_internal(node.name, self.D)
            self.bound += b
            return v
        if isinstance(node, Neg):
            return -self.run(node.arg, env)
        if isinstance(node, Sum):
            lo = _ref_eval_int(node.lo, env)
            hi = _ref_eval_int(node.hi, env)
            total = Fraction(0)
            inner = dict(env)
            for i in range(lo, hi + 1):
                inner[node.var] = i
                term = self.run(node.body, inner)
                if isinstance(total, Fraction) and isinstance(term, Fraction):
                    total = total + term
                else:
                    total = self.to_mpf(total) + self.to_mpf(term)
            return total
        if isinstance(node, BinOp):
            a = self.run(node.left, env)
            b = self.run(node.right, env)
            return self._binop(node.op, a, b)
        if isinstance(node, Call):
            return self._call(node, env)
        raise DomainError(f"cannot evaluate node {node!r}")

    def _binop(self, op, a, b):
        both_exact = isinstance(a, Fraction) and isinstance(b, Fraction)
        if op == "^":
            k = _ref_as_int(b, "exponent")
            if a == 0 and k < 0:
                raise DomainError("0 raised to a negative power")
            return a**k
        if both_exact:
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if b == 0:
                raise DomainError("division by zero")
            return a / b
        am, bm = self.to_mpf(a), self.to_mpf(b)
        if op == "+":
            return am + bm
        if op == "-":
            return am - bm
        if op == "*":
            return am * bm
        if bm == 0:
            raise DomainError("division by zero")
        return am / bm

    def _call(self, node: Call, env):
        name = node.name
        if name in _REF_EXACT_CALLS:
            n = _ref_eval_exact_arg(self, node.args[0], env, f"{name} argument")
            return _REF_EXACT_CALLS[name](n)
        if name == "binom":
            n = _ref_eval_exact_arg(self, node.args[0], env, "binom n")
            k = _ref_eval_exact_arg(self, node.args[1], env, "binom k")
            return Fraction(exact.binomial(n, k))
        if name == "abs":
            v = self.run(node.args[0], env)
            return abs(v)
        if name == "zeta":
            s = _ref_eval_exact_arg(self, node.args[0], env, "zeta argument")
            if s == 0:
                return Fraction(-1, 2)
            if s < 2:
                raise DomainError(f"zeta({s}) diverges or is unsupported")
            v, b = numerics._zeta_internal(s, self.D)
            self.bound += b
            return v
        if name == "L":
            s = _ref_eval_exact_arg(self, node.args[0], env, "L argument")
            p = node.chars[0]
            if s < 2 and not (s == 1 and numerics.is_mean_zero(p)):
                raise DomainError(f"L_{p}({s}) diverges")
            v, b = numerics._L_internal(p, s, self.D)
            self.bound += b
            return v
        if name == "dz":
            a = _ref_eval_exact_arg(self, node.args[0], env, "dz argument")
            bb = _ref_eval_exact_arg(self, node.args[1], env, "dz argument")
            if a < 2 or bb < 1:
                raise DomainError(f"zeta({a},{bb}) diverges")
            v, b = numerics._dzeta_internal(a, bb, self.D)
            self.bound += b
            return v
        if name == "cs":
            s = _ref_eval_exact_arg(self, node.args[0], env, "cs argument")
            t = _ref_eval_exact_arg(self, node.args[1], env, "cs argument")
            p, q = node.chars
            if not numerics._char_convergent(p, q, s, t):
                raise DomainError(f"[{p},{q}]({s},{t}) diverges")
            v, b = numerics._char_em(p, q, s, t, self.D)
            self.bound += b
            return v
        if name == "W":
            r = _ref_eval_exact_arg(self, node.args[0], env, "W argument")
            s = _ref_eval_exact_arg(self, node.args[1], env, "W argument")
            t = _ref_eval_exact_arg(self, node.args[2], env, "W argument")
            if not numerics.witten_convergent(r, s, t):
                raise DomainError(f"W({r},{s},{t}) diverges")
            v, b = numerics._witten_internal(r, s, t, self.D)
            self.bound += b
            return v
        if name in ("hsum_odd", "hsum_half"):
            s = _ref_eval_exact_arg(self, node.args[0], env, f"{name} argument")
            kind = "odd_denom" if name == "hsum_odd" else "half_index"
            v, b = numerics._harmonic_internal(kind, s, self.D)
            self.bound += b
            return v
        raise DomainError(f"unknown call {name!r}")


def _ref_eval_exact_arg(ev: _RefNumEval, node, env, what: str) -> int:
    return _ref_as_int(ev.run(node, env), what)


def _ref_reduce_int(node, env, what: str) -> int:
    """A call argument or an exponent of the symbolic walk: reduced first,
    then the one exactness rule, the subtree exact iff the numeric walk gives
    a Fraction for it."""
    v = _ref_reduce(node, env)
    if not isinstance(_RefNumEval(EvalContext(20)).run(node, env), Fraction):
        raise DomainError(f"{what} must be exact")
    return _ref_as_int(v.rational_value(), what)


def _ref_reduce(node, env) -> ConstExpr:
    if isinstance(node, Lit):
        return ConstExpr.rational(node.value)
    if isinstance(node, Param):
        return ConstExpr.rational(env[node.name])
    if isinstance(node, Gen):
        return ConstExpr.generator(node.name)
    if isinstance(node, Neg):
        return -_ref_reduce(node.arg, env)
    if isinstance(node, Sum):
        lo = _ref_eval_int(node.lo, env)
        hi = _ref_eval_int(node.hi, env)
        total = ConstExpr.zero
        inner = dict(env)
        for i in range(lo, hi + 1):
            inner[node.var] = i
            total = total + _ref_reduce(node.body, inner)
        return total
    if isinstance(node, BinOp):
        a = _ref_reduce(node.left, env)
        if node.op == "^":
            k = _ref_reduce_int(node.right, env, "exponent")
            if k >= 0:
                return a**k
            if a.is_rational():
                if a.rational_value() == 0:
                    raise DomainError("0 raised to a negative power")
                return ConstExpr.rational(a.rational_value() ** k)
            return ConstExpr.rational(1).divide_exact(a ** (-k))
        b = _ref_reduce(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if b.is_rational():
                r = b.rational_value()
                if r == 0:
                    raise DomainError("division by zero")
                return a / r
            return a.divide_exact(b)
    if isinstance(node, Call):
        return _ref_reduce_call(node, env)
    raise NotReducible(f"cannot reduce node {node!r}")


def _ref_reduce_call(node: Call, env) -> ConstExpr:
    name = node.name

    def intarg(i):
        label = ("binom n", "binom k")[i] if name == "binom" else f"{name} argument"
        return _ref_reduce_int(node.args[i], env, label)

    if name in _REF_EXACT_CALLS:
        return ConstExpr.rational(_REF_EXACT_CALLS[name](intarg(0)))
    if name == "binom":
        return ConstExpr.rational(exact.binomial(intarg(0), intarg(1)))
    if name == "abs":
        v = _ref_reduce(node.args[0], env)
        return ConstExpr.rational(abs(v.rational_value()))
    if name == "zeta":
        s = intarg(0)
        if s == 0:
            return ConstExpr.rational(Fraction(-1, 2))
        return zeta_sym(s)
    if name == "L":
        return L_sym(node.chars[0], intarg(0))
    if name == "dz":
        return reductions.dzeta_reduce(intarg(0), intarg(1))
    if name == "cs":
        p, q = node.chars
        s, t = intarg(0), intarg(1)
        if (p, q) == ("1", "1"):
            return reductions.dzeta_reduce(s, t)
        return reductions.alt_value_lookup((p, q, s, t))
    if name == "W":
        red = reductions.witten_reduce(intarg(0), intarg(1), intarg(2))
        if isinstance(red, ConstExpr):
            return red
        a, b = next(iter(red.dz_terms))
        raise NotReducible(f"Witten value leaves irreducible double zetas: zeta({a},{b}) has weight {a + b} > 7")
    if name == "hsum_odd":
        sigma = intarg(0)
        s = sigma + 1
        total = ConstExpr.zero
        for j in range(2, s):
            total = total + reductions.dzeta_reduce(j, s - j) * Fraction(1, 2 ** (j - 1))
        coef = Fraction(1, 2 ** (s - 1)) - 1
        log2zeta = ConstExpr.generator("log2") * zeta_sym(s - 1)
        total = total - (reductions.zeta_s1_reduce(s) - log2zeta * 2) * coef
        total = total - zeta_sym(s) * (Fraction(1, 2 ** (s - 2)) - 1)
        return total
    if name == "hsum_half":
        s = intarg(0)
        total = zeta_sym(2 * s + 1) * Fraction(5, 2)
        total = total + reductions.zeta_s1_reduce(2 * s + 1) * 2
        for j in range(2, 2 * s + 1):
            term = reductions.dzeta_reduce(j, 2 * s + 1 - j)
            total = total + (term if j % 2 == 0 else -term)
        return total * Fraction(1, 2)
    raise NotReducible(f"no reduction for call {name!r}")
