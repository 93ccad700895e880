"""AST evaluation (numeric with honest bound accumulation, and exact symbolic
reduction) plus the verification drivers and report writers.

One node table (`_NODE`) and one call table (`_CALLS`: per DSL call its
argument labels, domain test and message, numeric and symbolic entry) serve
the numeric walk (`eval_ast`, `verify_numeric`), the symbolic walk
(`reduce_ast`, `verify_symbolic`) and sum bounds; a domain test runs in both.

Numeric evaluation keeps exact-rational subtrees exact (ints while integral,
else Fractions): an identity built only from B, E, Hrat, binom, fact,
hyp2f1sp and arithmetic is compared with zero tolerance, never through
floats.  Mixed subtrees promote to multiprecision floats at the context's
working precision, with every call node contributing its own rigorous error
bound to the total.  Symbolic reduction likewise stays rational until a
constant or a transcendental call brings in a ConstExpr, so call arguments,
exponents and sum bounds never go through ConstExpr arithmetic.
"""
from __future__ import annotations

import datetime as _dt
import json
import math
import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from mpmath import mp, mpf

from . import exact, numerics, reductions
from .corpus import BinOp, Call, Gen, Identity, Lit, Neg, Param, Sum, parse_corpus
from .errors import DomainError, NotReducible, ParseError, PrecisionError
from .numerics import EvalContext
from .symexpr import ConstExpr, L_sym, zeta_sym


def default_corpus_text() -> str:
    return resources.files("mzv.data").joinpath("corpus.txt").read_text()


def load_corpus(path: str | None = None):
    """The packaged corpus, or the one at path; DomainError if it can not be
    read, ParseError prefixed with the path if it does not parse."""
    if path is None:
        return parse_corpus(default_corpus_text())
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read corpus {path}: {exc.strerror or exc}") from None
    try:
        return parse_corpus(text)
    except ParseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


# ---------------------------------------------------------------------------
# evaluation: one node table and one call table, walked in three modes
# ---------------------------------------------------------------------------
# A walker has run (dispatch through _NODE, whose keys are the parser's node
# types) and op (one binary operator); the numeric and symbolic ones also gen,
# arg (one call argument) and apply.  Walks go left to right and check a call's
# arguments one at a time, so the first error met is the one reported.


def _div(a, b):
    """a / b (b != 0); an int when a and b are ints and b divides a."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def _pow(a, k: int):
    """a^k (an int a to a negative k gives a Fraction); DomainError for 0 to a
    negative power."""
    if k >= 0:
        return a**k
    if not a:
        raise DomainError("0 raised to a negative power")
    return Fraction(1, a**-k) if type(a) is int else a**k


_EXACT = (int, Fraction)
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div, "^": _pow}


def _to_mpf(v):
    t = type(v)
    if t is int:
        return mpf(v)
    if t is Fraction:
        return mpf(v.numerator) / v.denominator
    return v


def _integral(v, what: str) -> int:
    """The int value of an exact v; DomainError naming `what` when v is not integral."""
    if type(v) is not int and v.denominator != 1:
        raise DomainError(f"{what} must be an integer, got {v}")
    return int(v)


def _rational(v):
    """The rational value of a symbolic value; NotReducible when it has an irrational term."""
    return v.rational_value() if type(v) is ConstExpr else v


def _rational_or_none(v):
    return None if type(v) is ConstExpr and not v.is_rational() else _rational(v)


def _sum(w, node, env):
    lo = _eval_int(node.lo, env)
    hi = _eval_int(node.hi, env)
    total, inner = 0, dict(env)
    for i in range(lo, hi + 1):
        inner[node.var] = i
        total = w.op("+", total, w.run(node.body, inner))
    return total


def _call(w, node, env):
    spec = _CALLS[node.name]  # the parser admits only these names
    params = list(node.chars)
    for arg, label in zip(node.args, spec.labels):
        params.append(w.arg(arg, env, node.name, label))
    if spec.ok is not None and not spec.ok(*params):
        raise DomainError(spec.msg.format(*params))
    return w.apply(spec, params)


def _lit(w, node, env):
    v = node.value
    return v.numerator if v.denominator == 1 else v


def _binop(w, node, env):
    a = w.run(node.left, env)
    return w.op(node.op, a, w.run(node.right, env))


_NODE = {
    Lit: _lit,
    Param: lambda w, node, env: env[node.name],
    Gen: lambda w, node, env: w.gen(node.name),
    Neg: lambda w, node, env: -w.run(node.arg, env),
    BinOp: _binop,
    Sum: _sum,
    Call: _call,
}
_BOUND_NODES = (Lit, Param, Neg, BinOp)


class _Numeric:
    """Numeric walk: exact values until a call with an error bound, mpf from
    there on.  `nodes` counts visited nodes, call arguments included and sum
    bounds not; `bound` adds up the calls' error bounds in evaluation order."""

    __slots__ = ("D", "nodes", "bound")

    def __init__(self, D: int):
        self.D = D
        self.nodes = 0
        self.bound = mp.zero

    def run(self, node, env):
        self.nodes += 1
        return _NODE[type(node)](self, node, env)

    def gen(self, name):
        v, b = numerics._generator_internal(name, self.D)
        self.bound += b
        return v

    def op(self, op, a, b):
        exact_a = type(a) in _EXACT
        exact_b = type(b) in _EXACT
        if op == "^":
            if not exact_b:
                raise DomainError("exponent must be exact")
            return _pow(a, _integral(b, "exponent"))
        if exact_a and exact_b:
            if op == "/" and b == 0:
                raise DomainError("exact division by zero")
            return _OPS[op](a, b)
        a, b = _to_mpf(a), _to_mpf(b)
        if op == "/" and b == 0:
            raise DomainError("division by zero")
        return _OPS[op](a, b)

    def arg(self, node, env, name, label):
        v = self.run(node, env)
        if label is None or type(v) is int:
            return v
        if type(v) is not Fraction:
            raise DomainError("argument must be exact")
        return _integral(v, label)

    def apply(self, spec, params):
        if spec.exact is not None:
            return spec.exact(*params)
        v, b = spec.num(self.D, *params)
        if b is not None:
            self.bound += b
        return v


class _Symbolic:
    """Exact walk: rational values until a constant or a transcendental call,
    ConstExpr from there on."""

    __slots__ = ()

    def run(self, node, env):
        return _NODE[type(node)](self, node, env)

    def gen(self, name):
        return ConstExpr.generator(name)

    def op(self, op, a, b):
        if op == "^":
            k = _rational(b)
            if type(k) is not int:
                if k.denominator != 1:
                    raise NotReducible("non-integer exponent")
                k = k.numerator
            r = _rational_or_none(a)
            if r is not None:
                return _pow(r, k)
            return a**k if k >= 0 else ConstExpr.rational(1).divide_exact(a**-k)
        if op == "/":
            r = _rational_or_none(b)
            if r is None:
                return (a if type(a) is ConstExpr else ConstExpr.rational(a)).divide_exact(b)
            if r == 0:
                raise DomainError("division by zero")
            b = r
        return _OPS[op](a, b)

    def arg(self, node, env, name, label):
        v = self.run(node, env)
        if label is None:
            return v
        v = _rational(v)
        if type(v) is not int and v.denominator != 1:
            raise DomainError(f"{name} argument must be an integer")
        return int(v)

    def apply(self, spec, params):
        return (spec.exact or spec.sym)(*params)


class _Bound:
    """Exact walk of a sum bound: literals, parameters, negation and + - * / ^."""

    __slots__ = ()

    def run(self, node, env):
        if type(node) not in _BOUND_NODES:
            raise DomainError(f"node not allowed in an integer bound: {node!r}")
        return _NODE[type(node)](self, node, env)

    def op(self, op, a, b):
        if op == "/" and b == 0:
            raise DomainError("division by zero in bound expression")
        if op == "^" and type(b) is Fraction:
            if b.denominator != 1:
                raise DomainError("non-integer exponent in bound expression")
            b = b.numerator
        return _OPS[op](a, b)


_SYMBOLIC = _Symbolic()
_BOUND = _Bound()


def _eval_int(node, env) -> int:
    v = _BOUND.run(node, env)
    if type(v) is not int and v.denominator != 1:
        raise DomainError(f"sum bound is not an integer: {v}")
    return int(v)


# -- the call table ----------------------------------------------------------


class _CallSpec(NamedTuple):
    """One DSL call.

    labels name the arguments in error messages, one each, so their number is
    the arity; None marks an argument taken as any value instead of an
    integer.  ok(chars..., args...) is the domain test of both modes and msg
    its DomainError text, formatted with the same values.  exact(chars...,
    args...) is an exact value in both modes; otherwise num(D, chars...,
    args...) gives (value, bound), the bound None for an exact value, and
    sym(chars..., args...) a ConstExpr.  Entry points are looked up on their
    module at call time, so a wrapper installed there sees every call.
    """

    labels: tuple
    ok: object = None
    msg: str = ""
    exact: object = None
    num: object = None
    sym: object = None


def _labels(name: str, n: int = 1):
    return (f"{name} argument",) * n


_ZETA_0 = Fraction(-1, 2)


def _abs(v):
    """|v| for a numeric value, or for a symbolic one that is rational."""
    return abs(_rational(v))


def _cs_sym(p, q, s, t):
    if (p, q) == ("1", "1"):
        return reductions.dzeta_reduce(s, t)
    return reductions.alt_value_lookup((p, q, s, t))


def _closed(red, msg=None):
    """The exact value of a reductions.WittenReduction descriptor that leaves
    no double zeta over; otherwise NotReducible with dzeta_reduce's own text
    for the first leftover, after msg when one is given."""
    if red.is_closed():
        return red.const_part
    try:
        reductions.dzeta_reduce(*next(iter(red.dz_terms)))
    except NotReducible as exc:
        raise NotReducible(f"{msg}: {exc}" if msg else str(exc)) from None
    raise NotReducible(msg)


_CALLS = {
    "Hrat": _CallSpec(_labels("Hrat"), exact=lambda n: exact.harmonic(n)),
    "B": _CallSpec(_labels("B"), exact=lambda n: exact.bernoulli(n)),
    "E": _CallSpec(_labels("E"), exact=lambda n: exact.euler_number(n)),
    "fact": _CallSpec(_labels("fact"), lambda n: n >= 0, "factorial of a negative integer",
                      exact=math.factorial),
    "hyp2f1sp": _CallSpec(_labels("hyp2f1sp"), lambda n: n >= 1, "hyp2f1sp({}) needs n >= 1",
                          exact=lambda n: exact.hyp2f1_special(n)),
    "binom": _CallSpec(("binom n", "binom k"), exact=lambda n, k: exact.binomial(n, k)),
    "abs": _CallSpec((None,), exact=_abs),
    "zeta": _CallSpec(_labels("zeta"), lambda s: s == 0 or s >= 2, "zeta({}) diverges or is unsupported",
                      num=lambda D, s: numerics._zeta_internal(s, D) if s else (_ZETA_0, None),
                      sym=lambda s: zeta_sym(s) if s else _ZETA_0),
    "L": _CallSpec(_labels("L"), lambda p, s: s >= 2 or (s == 1 and numerics.is_mean_zero(p)),
                   "L_{}({}) diverges", num=lambda D, p, s: numerics._L_internal(p, s, D), sym=L_sym),
    "dz": _CallSpec(_labels("dz", 2), lambda a, b: a >= 2 and b >= 1, "zeta({},{}) diverges",
                    num=lambda D, a, b: numerics._dzeta_internal(a, b, D),
                    sym=lambda a, b: reductions.dzeta_reduce(a, b)),
    "cs": _CallSpec(_labels("cs", 2), lambda p, q, s, t: numerics._char_convergent(p, q, s, t),
                    "[{},{}]({},{}) diverges",
                    num=lambda D, p, q, s, t: numerics._char_em(p, q, s, t, D), sym=_cs_sym),
    "W": _CallSpec(_labels("W", 3), lambda r, s, t: numerics.witten_convergent(r, s, t),
                   "W({},{},{}) diverges",
                   num=lambda D, r, s, t: numerics._witten_internal(r, s, t, D),
                   sym=lambda r, s, t: _closed(reductions.witten_reduction(r, s, t),
                                               "Witten value leaves irreducible double zetas")),
    "hsum_odd": _CallSpec(_labels("hsum_odd"), lambda s: s >= 2, "hsum_odd({}) needs s >= 2",
                          num=lambda D, s: numerics._harmonic_internal("odd_denom", s, D),
                          sym=lambda s: _closed(reductions.harmonic_reduction("odd_denom", s))),
    "hsum_half": _CallSpec(_labels("hsum_half"), lambda s: s >= 1, "hsum_half({}) needs s >= 1",
                           num=lambda D, s: numerics._harmonic_internal("half_index", s, D),
                           sym=lambda s: _closed(reductions.harmonic_reduction("half_index", s))),
}


# -- public entry points -----------------------------------------------------


def _walk_numeric(ast, bindings, ctx: EvalContext, where: str):
    """(value, bound, node count) of a bound AST at the current precision;
    PrecisionError naming `where` when the accumulated bound exceeds
    (node count) * 10^-prec."""
    w = _Numeric(ctx.work_digits)
    value = w.run(ast, bindings)
    if w.bound and w.bound > w.nodes * ctx.tolerance():
        raise PrecisionError(
            f"{where}: accumulated error bound {mp.nstr(w.bound, 3)} exceeds the "
            f"node-count budget {w.nodes} x 10^-{ctx.prec}"
        )
    return value, w.bound, w.nodes


def eval_ast(ast, bindings, ctx: EvalContext):
    """Numeric value of a bound AST; error is at most (node count) * 10^-prec."""
    with mp.workdps(ctx.work_digits + 10):
        return _to_mpf(_walk_numeric(ast, bindings, ctx, "expression")[0])


def eval_ast_detailed(ast, bindings, ctx: EvalContext):
    """(value, bound, visited-node count); value may be an exact Fraction.
    PrecisionError as for eval_ast."""
    with mp.workdps(ctx.work_digits + 10):
        val, bound, nodes = _walk_numeric(ast, bindings, ctx, "expression")
    return (Fraction(val) if type(val) is int else val), bound, nodes


def reduce_ast(ast, bindings) -> ConstExpr:
    """Exact ConstExpr for a bound AST; NotReducible when any sub-object is
    outside the supported reduction scope."""
    v = _SYMBOLIC.run(ast, bindings)
    return v if type(v) is ConstExpr else ConstExpr.rational(v)


# ---------------------------------------------------------------------------
# verification drivers
# ---------------------------------------------------------------------------


@dataclass
class VerifyReport:
    ident: str
    params: dict
    mode: str  # numeric | symbolic
    status: str  # pass | fail | numeric-only | error
    residual: str | None = None
    tol: str | None = None
    exact: bool | None = None
    expect: str = "must-pass"
    seconds: float = 0.0
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _tolerance_for(nodes: int, ctx: EvalContext):
    slack = math.ceil(math.log10(max(nodes, 1))) + 2
    return mpf(10) ** (-(ctx.prec - slack))


def _report(ident: Identity, params: dict, mode: str, status: str, t0: float, **fields):
    return VerifyReport(ident.ident, dict(params), mode, status, expect=ident.expect,
                        seconds=time.perf_counter() - t0, **fields)


def verify_numeric(ident: Identity, params: dict, ctx: EvalContext) -> VerifyReport:
    """Evaluate every equation of the identity at the binding; the residual is
    the worst |lhs - rhs|; pass iff residual <= 10^-(P - ceil(log10 nodes) - 2).
    Equations whose two sides stay exact are compared with zero tolerance.  A
    side whose accumulated error bound exceeds its node count times 10^-P is
    an error that names the side."""
    t0 = time.perf_counter()
    try:
        with mp.workdps(ctx.work_digits + 10):
            worst = mp.zero
            nodes = 0
            all_exact = True
            for i, (lhs, rhs) in enumerate(ident.parts, 1):
                lv, _, ln = _walk_numeric(lhs, params, ctx, f"equation {i}, left side")
                rv, _, rn = _walk_numeric(rhs, params, ctx, f"equation {i}, right side")
                nodes += ln + rn
                if isinstance(lv, _EXACT) and isinstance(rv, _EXACT):
                    if lv != rv:
                        return _report(ident, params, "numeric", "fail", t0,
                                       residual=str(lv - rv), tol="0", exact=False)
                    continue
                all_exact = False
                worst = max(worst, abs(_to_mpf(lv) - _to_mpf(rv)))
            if all_exact:
                return _report(ident, params, "numeric", "pass", t0, residual="0", tol="0", exact=True)
            tol = _tolerance_for(nodes, ctx)
            return _report(ident, params, "numeric", "pass" if worst <= tol else "fail", t0,
                           residual=mp.nstr(worst, 6, strip_zeros=False), tol=mp.nstr(tol, 3),
                           exact=False)
    except (DomainError, NotReducible, PrecisionError, OverflowError, ZeroDivisionError) as exc:
        return _report(ident, params, "numeric", "error", t0, error=str(exc))


def verify_symbolic(ident: Identity, params: dict) -> VerifyReport:
    """Exact ConstExpr comparison of both sides; NotReducible is reported as
    'numeric-only' rather than failure."""
    t0 = time.perf_counter()
    try:
        for lhs, rhs in ident.parts:
            le = reduce_ast(lhs, params)
            re_ = reduce_ast(rhs, params)
            if le != re_:
                return _report(ident, params, "symbolic", "fail", t0,
                               residual=(le - re_).render(), exact=False)
        return _report(ident, params, "symbolic", "pass", t0, exact=True)
    except NotReducible as exc:
        return _report(ident, params, "symbolic", "numeric-only", t0, error=str(exc))
    except (DomainError, PrecisionError) as exc:
        return _report(ident, params, "symbolic", "error", t0, error=str(exc))


def enumerate_bindings(ident: Identity, max_param: int):
    """Cartesian parameter range per clause order, filtered by <= and parity."""
    names = ident.params
    if not names:
        yield {}
        return
    ranges = []
    for name in names:
        lo = ident.lower_bound(name)
        hi = max(lo, max_param)
        ranges.append(range(lo, hi + 1))

    def ok(binding):
        for cl in ident.clauses:
            if cl.kind == "le":
                hi = cl.value if isinstance(cl.value, int) else binding[cl.value]
                if binding[cl.var] > hi:
                    return False
            elif cl.kind == "parity":
                if binding[cl.var] % 2 != (0 if cl.value == "even" else 1):
                    return False
        return True

    def rec(i, acc):
        if i == len(names):
            if ok(acc):
                yield dict(acc)
            return
        for v in ranges[i]:
            acc[names[i]] = v
            yield from rec(i + 1, acc)
        acc.pop(names[i], None)

    yield from rec(0, {})


@dataclass
class SuiteConfig:
    ids: list | None = None
    max_param: int = 10
    prec: int = 40
    mode: str = "numeric"  # numeric | symbolic | both
    corpus_path: str | None = None


def run_suite(config: SuiteConfig):
    """Verify every (identity, binding) pair in range; returns (reports, summary).

    'expect: report' entries are always run and reported but never counted as
    must-pass failures.
    """
    identities = load_corpus(config.corpus_path)
    if config.ids is not None:
        wanted = list(config.ids)
        unknown = set(wanted) - {i.ident for i in identities}
        if unknown:
            raise DomainError(f"unknown identity ids: {sorted(unknown)}")
        identities = [i for i in identities if i.ident in wanted]
    ctx = EvalContext(config.prec)
    reports: list[VerifyReport] = []
    t0 = time.perf_counter()
    for ident in identities:
        for binding in enumerate_bindings(ident, config.max_param):
            if config.mode in ("numeric", "both"):
                reports.append(verify_numeric(ident, binding, ctx))
            if config.mode in ("symbolic", "both"):
                reports.append(verify_symbolic(ident, binding))
    summary = summarize(reports)
    summary["elapsed_seconds"] = round(time.perf_counter() - t0, 3)
    summary["identities"] = len(identities)
    return reports, summary


def summarize(reports):
    must = [r for r in reports if r.expect == "must-pass"]
    rep = [r for r in reports if r.expect == "report"]
    return {
        "instances": len(reports),
        "passes": sum(1 for r in must if r.status == "pass"),
        "failures": sum(1 for r in must if r.status in ("fail", "error")),
        "numeric_only": sum(1 for r in reports if r.status == "numeric-only"),
        "reported": len(rep),
        "reported_failing": sum(1 for r in rep if r.status in ("fail", "error")),
    }


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------


def reports_json(reports, summary, timestamp: bool = True) -> str:
    summary = dict(summary)
    if not timestamp:
        summary.pop("elapsed_seconds", None)
    payload = {
        "schema": 1,
        "summary": summary,
        "reports": [
            {
                "id": r.ident,
                "params": {k: v for k, v in sorted(r.params.items())},
                "mode": r.mode,
                "status": r.status,
                "residual": r.residual,
                "tol": r.tol,
                "exact": r.exact,
                "expect": r.expect,
                "error": r.error,
                **({"seconds": round(r.seconds, 6)} if timestamp else {}),
            }
            for r in reports
        ],
    }
    if timestamp:
        payload["timestamp"] = _dt.datetime.now(_dt.timezone.utc).isoformat()
    return json.dumps(payload, indent=2, sort_keys=True)


def reports_tsv(reports) -> str:
    lines = ["id\tparams\tmode\tstatus\tresidual\ttol\texpect\terror"]
    for r in reports:
        params = ",".join(f"{k}={v}" for k, v in sorted(r.params.items()))
        lines.append(
            "\t".join(
                [
                    r.ident,
                    params or "-",
                    r.mode,
                    r.status,
                    r.residual or "-",
                    r.tol or "-",
                    r.expect,
                    (r.error or "-").replace("\t", " "),
                ]
            )
        )
    return "\n".join(lines) + "\n"
