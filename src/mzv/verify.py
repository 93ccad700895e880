"""AST evaluation (numeric with honest bound accumulation, and exact symbolic
reduction) plus the verification drivers and report writers.

Numeric evaluation keeps exact-rational subtrees exact: an identity built only
from B, E, Hrat, binom, fact, hyp2f1sp and arithmetic is compared with zero
tolerance, never through floats.  Mixed subtrees promote to multiprecision
floats at the context's working precision, with every call node contributing
its own rigorous error bound to the total.
"""
from __future__ import annotations

import datetime as _dt
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from mpmath import mp, mpf

from . import exact, numerics, reductions
from .corpus import BinOp, Call, Gen, Identity, Lit, Neg, Param, Sum, parse_corpus
from .errors import DomainError, NotReducible, PrecisionError
from .numerics import EvalContext
from .symexpr import ConstExpr, L_sym, zeta_sym


def default_corpus_text() -> str:
    return resources.files("mzv.data").joinpath("corpus.txt").read_text()


def load_corpus(path: str | None = None):
    if path is None:
        return parse_corpus(default_corpus_text())
    with open(path, "r") as fh:
        return parse_corpus(fh.read())


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------


class _Counter:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


def _eval_int(node, env) -> int:
    """Exact integer evaluation for sum bounds (params, ints, + - * / ^)."""
    v = _eval_exact(node, env)
    if v.denominator != 1:
        raise DomainError(f"sum bound is not an integer: {v}")
    return v.numerator


def _eval_exact(node, env) -> Fraction:
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Param):
        return Fraction(env[node.name])
    if isinstance(node, Neg):
        return -_eval_exact(node.arg, env)
    if isinstance(node, BinOp):
        a = _eval_exact(node.left, env)
        b = _eval_exact(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if b == 0:
                raise DomainError("division by zero in bound expression")
            return a / b
        if node.op == "^":
            if b.denominator != 1:
                raise DomainError("non-integer exponent in bound expression")
            return a ** b.numerator
    raise DomainError(f"node not allowed in an integer bound: {node!r}")


_EXACT_CALLS = {
    "Hrat": lambda n: exact.harmonic(n),
    "B": lambda n: exact.bernoulli(n),
    "E": lambda n: Fraction(exact.euler_number(n)),
    "fact": lambda n: Fraction(exact_factorial(n)),
    "hyp2f1sp": lambda n: exact.hyp2f1_special(n),
}


def exact_factorial(n: int) -> int:
    if n < 0:
        raise DomainError("factorial of a negative integer")
    import math

    return math.factorial(n)


def _as_int(v, what: str) -> int:
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return v.numerator
        raise DomainError(f"{what} must be an integer, got {v}")
    raise DomainError(f"{what} must be exact, got a float value")


class _NumEval:
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
            lo = _eval_int(node.lo, env)
            hi = _eval_int(node.hi, env)
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
            if not isinstance(b, Fraction):
                raise DomainError("exponent must be exact")
            k = _as_int(b, "exponent")
            if isinstance(a, Fraction):
                if a == 0 and k < 0:
                    raise DomainError("0 raised to a negative power")
                return a**k
            return a**k
        if both_exact:
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if b == 0:
                raise DomainError("exact division by zero")
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
        if name in _EXACT_CALLS:
            n = _as_int(_eval_exact_arg(self, node.args[0], env), f"{name} argument")
            return _EXACT_CALLS[name](n)
        if name == "binom":
            n = _as_int(_eval_exact_arg(self, node.args[0], env), "binom n")
            k = _as_int(_eval_exact_arg(self, node.args[1], env), "binom k")
            return Fraction(exact.binomial(n, k))
        if name == "abs":
            v = self.run(node.args[0], env)
            return abs(v)
        if name == "zeta":
            s = _as_int(_eval_exact_arg(self, node.args[0], env), "zeta argument")
            if s == 0:
                return Fraction(-1, 2)
            if s < 2:
                raise DomainError(f"zeta({s}) diverges or is unsupported")
            v, b = numerics._zeta_internal(s, self.D)
            self.bound += b
            return v
        if name == "L":
            s = _as_int(_eval_exact_arg(self, node.args[0], env), "L argument")
            p = node.chars[0]
            if s < 2 and not (s == 1 and numerics.is_mean_zero(p)):
                raise DomainError(f"L_{p}({s}) diverges")
            v, b = numerics._L_internal(p, s, self.D)
            self.bound += b
            return v
        if name == "dz":
            a = _as_int(_eval_exact_arg(self, node.args[0], env), "dz argument")
            bb = _as_int(_eval_exact_arg(self, node.args[1], env), "dz argument")
            if a < 2 or bb < 1:
                raise DomainError(f"zeta({a},{bb}) diverges")
            v, b = numerics._dzeta_internal(a, bb, self.D)
            self.bound += b
            return v
        if name == "cs":
            s = _as_int(_eval_exact_arg(self, node.args[0], env), "cs argument")
            t = _as_int(_eval_exact_arg(self, node.args[1], env), "cs argument")
            p, q = node.chars
            if not numerics._char_convergent(p, q, s, t):
                raise DomainError(f"[{p},{q}]({s},{t}) diverges")
            v, b = numerics._char_em(p, q, s, t, self.D)
            self.bound += b
            return v
        if name == "W":
            r = _as_int(_eval_exact_arg(self, node.args[0], env), "W argument")
            s = _as_int(_eval_exact_arg(self, node.args[1], env), "W argument")
            t = _as_int(_eval_exact_arg(self, node.args[2], env), "W argument")
            if not numerics.witten_convergent(r, s, t):
                raise DomainError(f"W({r},{s},{t}) diverges")
            v, b = numerics._witten_internal(r, s, t, self.D)
            self.bound += b
            return v
        if name in ("hsum_odd", "hsum_half"):
            s = _as_int(_eval_exact_arg(self, node.args[0], env), f"{name} argument")
            kind = "odd_denom" if name == "hsum_odd" else "half_index"
            v, b = numerics._harmonic_internal(kind, s, self.D)
            self.bound += b
            return v
        raise DomainError(f"unknown call {name!r}")


def _eval_exact_arg(ev: _NumEval, node, env):
    v = ev.run(node, env)
    if isinstance(v, Fraction):
        return v
    raise DomainError("argument must be exact")


def eval_ast(ast, bindings, ctx: EvalContext):
    """Numeric value of a bound AST; error is at most (node count) * 10^-prec."""
    ev = _NumEval(ctx)
    with mp.workdps(ctx.work_digits + 10):
        val = ev.run(ast, dict(bindings))
        val = ev.to_mpf(val)
        if ev.bound > ev.nodes * ctx.tolerance():
            raise PrecisionError("accumulated bound exceeds the node-count budget")
        return val


def eval_ast_detailed(ast, bindings, ctx: EvalContext):
    """(value, bound, visited-node count); value may be an exact Fraction."""
    ev = _NumEval(ctx)
    with mp.workdps(ctx.work_digits + 10):
        val = ev.run(ast, dict(bindings))
        return val, ev.bound, ev.nodes


# ---------------------------------------------------------------------------
# symbolic reduction
# ---------------------------------------------------------------------------


def reduce_ast(ast, bindings) -> ConstExpr:
    """Exact ConstExpr for a bound AST; NotReducible when any sub-object is
    outside the supported reduction scope."""
    return _reduce(ast, dict(bindings))


def _reduce(node, env) -> ConstExpr:
    if isinstance(node, Lit):
        return ConstExpr.rational(node.value)
    if isinstance(node, Param):
        return ConstExpr.rational(env[node.name])
    if isinstance(node, Gen):
        return ConstExpr.generator(node.name)
    if isinstance(node, Neg):
        return -_reduce(node.arg, env)
    if isinstance(node, Sum):
        lo = _eval_int(node.lo, env)
        hi = _eval_int(node.hi, env)
        total = ConstExpr.zero
        inner = dict(env)
        for i in range(lo, hi + 1):
            inner[node.var] = i
            total = total + _reduce(node.body, inner)
        return total
    if isinstance(node, BinOp):
        a = _reduce(node.left, env)
        b = _reduce(node.right, env)
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
        if node.op == "^":
            k = b.rational_value()
            if k.denominator != 1:
                raise NotReducible("non-integer exponent")
            k = k.numerator
            if k >= 0:
                return a**k
            if a.is_rational():
                return ConstExpr.rational(a.rational_value() ** k)
            return ConstExpr.rational(1).divide_exact(a ** (-k))
    if isinstance(node, Call):
        return _reduce_call(node, env)
    raise NotReducible(f"cannot reduce node {node!r}")


def _reduce_call(node: Call, env) -> ConstExpr:
    name = node.name

    def intarg(i):
        v = _reduce(node.args[i], env)
        r = v.rational_value()
        if r.denominator != 1:
            raise DomainError(f"{name} argument must be an integer")
        return r.numerator

    if name in _EXACT_CALLS:
        return ConstExpr.rational(_EXACT_CALLS[name](intarg(0)))
    if name == "binom":
        return ConstExpr.rational(exact.binomial(intarg(0), intarg(1)))
    if name == "abs":
        v = _reduce(node.args[0], env)
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
        raise NotReducible("Witten value leaves irreducible double zetas")
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
    import math as _m

    slack = _m.ceil(_m.log10(max(nodes, 1))) + 2
    return mpf(10) ** (-(ctx.prec - slack))


def verify_numeric(ident: Identity, params: dict, ctx: EvalContext) -> VerifyReport:
    """Evaluate every equation of the identity at the binding; the residual is
    the worst |lhs - rhs|; pass iff residual <= 10^-(P - ceil(log10 nodes) - 2).
    Equations whose two sides stay exact are compared with zero tolerance."""
    t0 = time.perf_counter()
    try:
        with mp.workdps(ctx.work_digits + 10):
            worst = mp.zero
            nodes = 0
            all_exact = True
            for lhs, rhs in ident.parts:
                lv, lb, ln = eval_ast_detailed(lhs, params, ctx)
                rv, rb, rn = eval_ast_detailed(rhs, params, ctx)
                nodes += ln + rn
                if isinstance(lv, Fraction) and isinstance(rv, Fraction):
                    if lv != rv:
                        return VerifyReport(
                            ident.ident, dict(params), "numeric", "fail",
                            residual=str(lv - rv), tol="0", exact=False,
                            expect=ident.expect, seconds=time.perf_counter() - t0,
                        )
                    continue
                all_exact = False
                lvm = lv if not isinstance(lv, Fraction) else mpf(lv.numerator) / lv.denominator
                rvm = rv if not isinstance(rv, Fraction) else mpf(rv.numerator) / rv.denominator
                worst = max(worst, abs(lvm - rvm))
            if all_exact:
                return VerifyReport(
                    ident.ident, dict(params), "numeric", "pass",
                    residual="0", tol="0", exact=True,
                    expect=ident.expect, seconds=time.perf_counter() - t0,
                )
            tol = _tolerance_for(nodes, ctx)
            status = "pass" if worst <= tol else "fail"
            return VerifyReport(
                ident.ident, dict(params), "numeric", status,
                residual=mp.nstr(worst, 6, strip_zeros=False),
                tol=mp.nstr(tol, 3), exact=False,
                expect=ident.expect, seconds=time.perf_counter() - t0,
            )
    except (DomainError, NotReducible, PrecisionError, OverflowError, ZeroDivisionError) as exc:
        return VerifyReport(
            ident.ident, dict(params), "numeric", "error",
            expect=ident.expect, seconds=time.perf_counter() - t0, error=str(exc),
        )


def verify_symbolic(ident: Identity, params: dict) -> VerifyReport:
    """Exact ConstExpr comparison of both sides; NotReducible is reported as
    'numeric-only' rather than failure."""
    t0 = time.perf_counter()
    try:
        for lhs, rhs in ident.parts:
            le = reduce_ast(lhs, params)
            re_ = reduce_ast(rhs, params)
            if le != re_:
                return VerifyReport(
                    ident.ident, dict(params), "symbolic", "fail",
                    residual=(le - re_).render(), exact=False,
                    expect=ident.expect, seconds=time.perf_counter() - t0,
                )
        return VerifyReport(
            ident.ident, dict(params), "symbolic", "pass", exact=True,
            expect=ident.expect, seconds=time.perf_counter() - t0,
        )
    except NotReducible as exc:
        return VerifyReport(
            ident.ident, dict(params), "symbolic", "numeric-only",
            expect=ident.expect, seconds=time.perf_counter() - t0, error=str(exc),
        )
    except (DomainError, PrecisionError) as exc:
        return VerifyReport(
            ident.ident, dict(params), "symbolic", "error",
            expect=ident.expect, seconds=time.perf_counter() - t0, error=str(exc),
        )


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
