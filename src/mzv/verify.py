"""AST evaluation (numeric with honest bound accumulation, and exact symbolic
reduction) plus the verification drivers and report writers.

One call table (`_CALLS`: per DSL call its argument labels, domain test and
message, exact entry or numeric and symbolic entries) and one compiler
(`_compile`) serve every evaluation.  A side compiles once into a plan of
nested closures.  The plan applies each operator through one function in
every mode, to exact values (ints while integral, else Fractions) and to the
others alike; a run object supplies the constants and the calls without an
exact value: the numeric `_Run` (`eval_ast`, `verify_numeric`) as mpf values
with rigorous error bounds, the symbolic `_SymRun` (`reduce_ast`,
`verify_symbolic`) as ConstExprs.  `verify_numeric` and `verify_symbolic` keep
each side's plan with its identity; a one-shot `eval_ast` or `reduce_ast`
compiles and drops its own.

One exactness rule (`_integral`) and every domain test hold in every mode: a
call argument, an exponent and a sum bound must be an exact integer.  A value
built from a constant or from a call without an exact value is never exact,
even when it is rational (pi-pi), so eval and reduce accept and reject the
same inputs with the same text.  An identity built only from B, E, Hrat,
binom, fact, hyp2f1sp and arithmetic is compared with zero tolerance, never
through floats.
"""
from __future__ import annotations

import datetime as _dt
import itertools
import json
import math
import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from mpmath import mp, mpf
from mpmath.libmp import fzero, mpf_add, round_nearest

from . import exact, numerics, reductions
from .corpus import (BinOp, Call, Gen, Identity, Lit, Neg, Param, Sum, _free_params, parse_corpus,
                     render_expr)
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
# evaluation: one call table, one plan per side, two runs
# ---------------------------------------------------------------------------
# _compile turns a side, once, into a plan of nested closures fn(env, run):
# the plan knows the shape of the side and computes with exact values, the run
# supplies gen(name) for a constant and apply(spec, args) for a call without
# an exact entry.  Each operator is one function in every run, on ints and
# Fractions, mpf values or ConstExprs alike: + - * / through _arith (/ is
# _div) and ^ through _pow.  The numeric _Run gives mpf values with rigorous
# bounds and _SymRun exact ConstExprs.  Plans go left to right and check a
# call's arguments one at a time, so the first error met is the one reported.


def _div(a, b):
    """a / b; an int when a and b are ints and b divides a; DomainError when b is zero."""
    if not b:
        raise DomainError("division by zero")
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def _pow(a, k: int):
    """a^k (an int a to a negative k gives a Fraction, a ConstExpr one its
    exact division); DomainError for 0 to a negative power."""
    if k >= 0:
        return a**k
    if not a:
        raise DomainError("0 raised to a negative power")
    return Fraction(1, a**-k) if type(a) is int else a**k


_EXACT = (int, Fraction)
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div}


def _to_mpf(v):
    t = type(v)
    if t is int:
        return mpf(v)
    if t is Fraction:
        return numerics.rational_mpf(v)
    return v


def _exact_text(x) -> str:
    """str of a rational, or its mp.nstr when str() cannot print it."""
    return str(x) if exact.printable(x) else mp.nstr(_to_mpf(x), 6, strip_zeros=False)


def _integral(v, what: str) -> int:
    """The exactness rule of a call argument, an exponent and a sum bound, in
    every mode: the int value of an integral int or Fraction, else a
    DomainError naming `what`."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        raise DomainError(f"{what} must be exact")
    if v.denominator != 1:
        raise DomainError(f"{what} must be an integer, got {v}")
    return v.numerator


# -- the call table ----------------------------------------------------------


class _CallSpec(NamedTuple):
    """One DSL call.

    labels name the arguments in error messages, one each, so their number is
    the arity; None marks an argument taken as any value instead of an
    integer.  ok(chars..., args...) is the domain test of both modes and msg
    its DomainError text, formatted with the same values; they are left out
    where the numeric and symbolic entries both raise the DSL's own
    DomainError text already (W through numerics.witten_terms, hsum_odd and
    hsum_half through numerics.harmonic_domain).  exact(chars...,
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


def _witten_sym(r, s, t):
    """W(r,s,t)'s exact value.  The first double zeta of witten_terms that
    dzeta_reduce does not close raises before any term is folded: the terms'
    coefficients are positive, so it is the descriptor's first leftover."""
    msg = "Witten value leaves irreducible double zetas"
    for kind, a, b in numerics.witten_terms(r, s, t):
        if kind == "dz" and b and not reductions.dz_closes(a, b):
            return _closed(reductions.WittenReduction(dz_terms={(a, b): 1}), msg)
    return _closed(reductions.witten_reduction(r, s, t), msg)


_CALLS = {
    "Hrat": _CallSpec(_labels("Hrat"), exact=lambda n: exact.harmonic(n)),
    "B": _CallSpec(_labels("B"), exact=lambda n: exact.bernoulli(n)),
    "E": _CallSpec(_labels("E"), exact=lambda n: exact.euler_number(n)),
    "fact": _CallSpec(_labels("fact"), lambda n: n >= 0, "factorial of a negative integer",
                      exact=math.factorial),
    "hyp2f1sp": _CallSpec(_labels("hyp2f1sp"), lambda n: n >= 1, "hyp2f1sp({}) needs n >= 1",
                          exact=lambda n: exact.hyp2f1_special(n)),
    "binom": _CallSpec(("binom n", "binom k"), exact=lambda n, k: exact.binomial(n, k)),
    "abs": _CallSpec((None,), exact=abs),  # of a ConstExpr: rational only
    "zeta": _CallSpec(_labels("zeta"), lambda s: s == 0 or s >= 2, "zeta({}) diverges or is unsupported",
                      num=lambda D, s: numerics._zeta_internal(s, D) if s else (_ZETA_0, None),
                      sym=lambda s: zeta_sym(s) if s else _ZETA_0),
    "L": _CallSpec(_labels("L"), numerics._L_convergent, "L_{}({}) diverges",
                   num=lambda D, p, s: numerics._L_internal(p, s, D), sym=L_sym),
    "dz": _CallSpec(_labels("dz", 2), lambda a, b: a >= 2 and b >= 1, "zeta({},{}) diverges",
                    num=lambda D, a, b: numerics._dzeta_internal(a, b, D),
                    sym=lambda a, b: reductions.dzeta_reduce(a, b)),
    "cs": _CallSpec(_labels("cs", 2), lambda p, q, s, t: numerics._char_convergent(p, q, s, t),
                    "[{},{}]({},{}) diverges",
                    num=lambda D, p, q, s, t: numerics._char_em(p, q, s, t, D), sym=_cs_sym),
    "W": _CallSpec(_labels("W", 3), num=lambda D, r, s, t: numerics._witten_internal(r, s, t, D),
                   sym=_witten_sym),
    "hsum_odd": _CallSpec(_labels("hsum_odd"),
                          num=lambda D, s: numerics._harmonic_internal("odd_denom", s, D),
                          sym=lambda s: _closed(reductions.harmonic_reduction("odd_denom", s))),
    "hsum_half": _CallSpec(_labels("hsum_half"),
                           num=lambda D, s: numerics._harmonic_internal("half_index", s, D),
                           sym=lambda s: _closed(reductions.harmonic_reduction("half_index", s))),
}


# -- runs --------------------------------------------------------------------

# an int below 2^53 in magnitude is an exact mpf at a run's precision (at
# least 21 digits), so mpmath's int paths round `mpf op int` once, as the op
# on _to_mpf(int) does
_SMALL = 1 << 53


def _small(v) -> bool:
    return type(v) is int and -_SMALL < v < _SMALL


def _arith(opf, a, b):
    """a + b, a - b, a * b or _div(a, b) (opf): exact for exact a and b, in
    mpf when one is an mpf (the other, exact, as is when small, else through
    _to_mpf), else in ConstExpr."""
    if type(a) in _EXACT:
        if type(b) is mpf and not _small(a):
            a = _to_mpf(a)
    elif type(b) in _EXACT and type(a) is mpf and not _small(b):
        b = _to_mpf(b)
    return opf(a, b)


class _Run:
    """The numeric run: exact values (ints while integral, else Fractions)
    until a constant or a call with an error bound, mpf from there on; gen
    and apply give those values and add their bounds.  D, the working
    digits; bound, the summed call bounds as a raw mpf at the precision prec
    of the run, so that each addition rounds as an mpf addition does; nodes,
    the node visits of sum bodies."""

    __slots__ = ("D", "prec", "bound", "nodes")

    def __init__(self, D: int):
        self.D = D
        self.prec = mp.prec
        self.bound = fzero
        self.nodes = 0

    def gen(self, name):
        v, b = numerics._generator_internal(name, self.D)
        self.bound = mpf_add(self.bound, b._mpf_, self.prec, round_nearest)
        return v

    def apply(self, spec, xs):
        v, b = spec.num(self.D, *xs)
        if b is not None:
            self.bound = mpf_add(self.bound, b._mpf_, self.prec, round_nearest)
        return v


class _SymRun:
    """The symbolic run: exact values until a constant or a call without an
    exact entry, whose ConstExpr gen or apply gives, ConstExpr from there on,
    even where it is rational."""

    nodes = 0  # sum closures count their node visits here too; nothing reads them

    def gen(self, name):
        return ConstExpr.generator(name)

    def apply(self, spec, xs):
        return spec.sym(*xs)


# -- plans -------------------------------------------------------------------
# Literals are normalised in advance, and a subtree of literals, negations and
# operators is folded into its exact value, computed with no run, unless that
# raises.  One call closure serves every _CALLS entry: it takes the node's
# character ids, then its arguments left to right, runs the domain test and
# returns exact(...) or run.apply(...).  A sum compiles its bounds with the
# bound table, in which any other node raises when it is reached, and runs
# them with no run.  A side's node count is its static count plus its sum
# bodies' counts once per iteration.

_DYN = object()  # the `const` of a compiled node whose value is not known in advance


class _Plan(NamedTuple):
    fn: object  # fn(env, run) -> value
    nodes: int  # node count, sum bodies once per iteration left out


def _compile(node, table):
    """(fn, n, const) for node under the compile table: fn(env, run) gives
    the node's value, n is its node count (1 for a sum, whose body counts at
    run time) and const its exact value when it has no parameter, generator
    or call, else _DYN."""
    return table[type(node)](node, table)


def _const(v, n: int):
    return (lambda env, run: v), n, v


def _c_lit(node, table):
    v = node.value
    return _const(v.numerator if v.denominator == 1 else v, 1)


def _c_param(node, table):
    name = node.name
    return (lambda env, run: env[name]), 1, _DYN


def _c_gen(node, table):
    name = node.name
    return (lambda env, run: run.gen(name)), 1, _DYN


def _c_neg(node, table):
    fa, n, c = _compile(node.arg, table)
    if c is not _DYN:
        return _const(-c, n + 1)
    return (lambda env, run: -fa(env, run)), n + 1, _DYN


def _c_binop(node, table):
    fa, na, ca = _compile(node.left, table)
    fb, nb, cb = _compile(node.right, table)
    n, op, opf = na + nb + 1, node.op, _OPS.get(node.op)
    if op == "^":
        fn = lambda env, run: _pow(fa(env, run), _integral(fb(env, run), "exponent"))
    # a small int operand meets an exact value exactly and an mpf through
    # mpmath's int path; a parameter next to it is read in the same closure
    elif _small(cb):
        if type(node.left) is Param:
            name = node.left.name
            fn = lambda env, run: opf(env[name], cb)
        else:
            fn = lambda env, run: opf(fa(env, run), cb)
    elif _small(ca):
        if type(node.right) is Param:
            name = node.right.name
            fn = lambda env, run: opf(ca, env[name])
        else:
            fn = lambda env, run: opf(ca, fb(env, run))
    else:
        fn = lambda env, run: _arith(opf, fa(env, run), fb(env, run))
    if ca is not _DYN and cb is not _DYN:
        try:  # exact operands need no run
            return _const(fn(None, None), n)
        except DomainError:
            pass  # raised at run time, after whatever comes before it
    return fn, n, _DYN


def _int_bound(fn, env) -> int:
    return _integral(fn(env, None), "sum bound")


def _c_sum(node, table):
    fb, nb, _ = _compile(node.body, table)
    flo, _, _ = _compile(node.lo, _BOUND_COMPILE)
    fhi, _, _ = _compile(node.hi, _BOUND_COMPILE)
    var, add = node.var, operator.add

    def total(env, run):
        first, last = _int_bound(flo, env), _int_bound(fhi, env)
        inner, acc = dict(env), 0
        for i in range(first, last + 1):
            inner[var] = i
            acc = _arith(add, acc, fb(inner, run))
        if last >= first:
            run.nodes += nb * (last - first + 1)
        return acc

    return total, 1, _DYN


def _c_call(node, table):
    spec = _CALLS[node.name]  # the parser admits only these names
    args = [_compile(a, table) for a in node.args]
    fns = [(fa, label) for (fa, _, _), label in zip(args, spec.labels)]
    chars, ok, fmt, exact_fn = node.chars, spec.ok, spec.msg.format, spec.exact

    def call(env, run):
        xs = list(chars)  # the ids of L and cs go first, as _CALLS states them
        for fa, label in fns:
            x = fa(env, run)
            xs.append(x if type(x) is int or label is None else _integral(x, label))
        if ok is not None and not ok(*xs):
            raise DomainError(fmt(*xs))
        # an exact entry gives the same value in every run
        return exact_fn(*xs) if exact_fn is not None else run.apply(spec, xs)

    return call, 1 + sum(n for _, n, _ in args), _DYN


def _c_refused(node, table):
    def refused(env, run):
        raise DomainError(f"{render_expr(node)} is not allowed in a sum bound")

    return refused, 1, _DYN


_COMPILE = {Lit: _c_lit, Param: _c_param, Gen: _c_gen, Neg: _c_neg, BinOp: _c_binop,
            Sum: _c_sum, Call: _c_call}
_BOUND_COMPILE = {**_COMPILE, Gen: _c_refused, Sum: _c_refused, Call: _c_refused}


def _compile_side(side) -> _Plan:
    fn, nodes, _ = _compile(side, _COMPILE)
    return _Plan(fn, nodes)


def _side_plan(ident: Identity, side) -> _Plan:
    """The plan of one of ident's sides, compiled on first use and kept in ident.plans."""
    plan = ident.plans.get(id(side))
    if plan is None:
        plan = ident.plans[id(side)] = _compile_side(side)
    return plan


# -- public entry points -----------------------------------------------------


def _walk_numeric(plan: _Plan, bindings, ctx: EvalContext, where: str):
    """(value, bound, node count) of a side's plan run at the bindings, at the
    current precision; PrecisionError naming `where` when the accumulated
    bound exceeds (node count) * 10^-prec."""
    run = _Run(ctx.work_digits)
    value = plan.fn(bindings, run)
    nodes = plan.nodes + run.nodes
    bound = mp.make_mpf(run.bound)
    _, man, exp, bc = run.bound
    _, _, texp, tbc = ctx.tolerance()._mpf_
    # bound < 2^(exp+bc) <= 2^(texp+tbc-1) <= tol <= nodes * tol needs no product
    if man and exp + bc >= texp + tbc and bound > nodes * ctx.tolerance():
        raise PrecisionError(
            f"{where}: accumulated error bound {mp.nstr(bound, 3)} exceeds the "
            f"node-count budget {nodes} x 10^-{ctx.prec}"
        )
    return value, bound, nodes


def _check_bound(ast, bindings):
    """DomainError naming the parameters of ast that bindings leave unbound."""
    free = _free_params(ast, frozenset(bindings))
    if free:
        raise DomainError(f"unbound parameter{'s' if len(free) > 1 else ''} {', '.join(sorted(free))}")


def eval_ast(ast, bindings, ctx: EvalContext):
    """Numeric value of a bound AST; error is at most (node count) * 10^-prec."""
    _check_bound(ast, bindings)
    with mp.workdps(ctx.work_digits + 10):
        return _to_mpf(_walk_numeric(_compile_side(ast), bindings, ctx, "expression")[0])


def eval_ast_detailed(ast, bindings, ctx: EvalContext):
    """(value, bound, visited-node count); value may be an exact Fraction.
    PrecisionError as for eval_ast."""
    _check_bound(ast, bindings)
    with mp.workdps(ctx.work_digits + 10):
        val, bound, nodes = _walk_numeric(_compile_side(ast), bindings, ctx, "expression")
    return (Fraction(val) if type(val) is int else val), bound, nodes


def _reduce(plan: _Plan, bindings) -> ConstExpr:
    v = plan.fn(bindings, _SymRun())
    return v if type(v) is ConstExpr else ConstExpr.rational(v)


def reduce_ast(ast, bindings) -> ConstExpr:
    """Exact ConstExpr for a bound AST; NotReducible when any sub-object is
    outside the supported reduction scope."""
    _check_bound(ast, bindings)
    return _reduce(_compile_side(ast), bindings)


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
    return numerics._tolerance(ctx.prec - slack, ctx.work_digits + 10)


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
                lv, _, ln = _walk_numeric(_side_plan(ident, lhs), params, ctx, f"equation {i}, left side")
                rv, _, rn = _walk_numeric(_side_plan(ident, rhs), params, ctx, f"equation {i}, right side")
                nodes += ln + rn
                if isinstance(lv, _EXACT) and isinstance(rv, _EXACT):
                    if lv != rv:
                        return _report(ident, params, "numeric", "fail", t0,
                                       residual=_exact_text(lv - rv), tol="0", exact=False)
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
            le = _reduce(_side_plan(ident, lhs), params)  # a corpus side has no free parameter
            re_ = _reduce(_side_plan(ident, rhs), params)
            if le != re_:
                return _report(ident, params, "symbolic", "fail", t0,
                               residual=(le - re_).render(_exact_text), exact=False)
        return _report(ident, params, "symbolic", "pass", t0, exact=True)
    except NotReducible as exc:
        return _report(ident, params, "symbolic", "numeric-only", t0, error=str(exc))
    except (DomainError, PrecisionError) as exc:
        return _report(ident, params, "symbolic", "error", t0, error=str(exc))


def _admits(cl, binding) -> bool:
    """Whether binding meets a <= or parity clause (the ranges meet each >=)."""
    if cl.kind == "le":
        return binding[cl.var] <= (cl.value if isinstance(cl.value, int) else binding[cl.value])
    return cl.kind != "parity" or binding[cl.var] % 2 == (cl.value == "odd")


def enumerate_bindings(ident: Identity, max_param: int):
    """Each parameter from its lower bound to max(lower bound, max_param), the
    last declared varying fastest, filtered by the <= and parity clauses."""
    names = ident.params
    ranges = [range(lo, max(lo, max_param) + 1) for lo in map(ident.lower_bound, names)]
    for values in itertools.product(*ranges):
        binding = dict(zip(names, values))
        if all(_admits(cl, binding) for cl in ident.clauses):
            yield binding


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
