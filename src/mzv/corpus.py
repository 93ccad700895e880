"""Line-oriented DSL for the identity corpus: lexer, parser, AST and renderer.

Entry form (one per logical line; a trailing backslash continues a line,
'#' starts a comment):

    identity <ID> [expect: report] : [forall <clause>{, <clause>} :] <eq> {; <eq>}

    clause  :=  VAR >= INT | VAR <= (INT|VAR) | VAR even | VAR odd
    eq      :=  expr == expr [== expr ...]      (chains check pairwise)

Expression tokens: integers, rationals p/q, + - * / ^, (-1)^(...),
sum(v=lo..hi, body), calls zeta dz cs W L hsum_odd hsum_half Hrat B E binom
fact abs hyp2f1sp, constants pi log2 li4h, shorthand z<k> for zeta(k);
character ids 1 2a 2b m4 appear in the first slots of L(...) and cs(...).
A '# desc:' comment directly above an entry attaches a description.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .errors import ArityError, ParseError, UnboundSymbol

# ---------------------------------------------------------------------------
# AST (slotted: the packaged corpus alone holds about 2,900 nodes)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Lit:
    value: Fraction


@dataclass(frozen=True, slots=True)
class Param:
    name: str


@dataclass(frozen=True, slots=True)
class Gen:
    name: str  # pi | log2 | li4h


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Call:
    name: str
    chars: tuple  # character-id arguments, if any
    args: tuple  # expression arguments


@dataclass(frozen=True, slots=True)
class Sum:
    var: str
    lo: "Expr"
    hi: "Expr"
    body: "Expr"


Expr = Union[Lit, Param, Gen, BinOp, Neg, Call, Sum]

ARITY = {
    "zeta": (0, 1),
    "L": (1, 1),
    "dz": (0, 2),
    "cs": (2, 2),
    "W": (0, 3),
    "hsum_odd": (0, 1),
    "hsum_half": (0, 1),
    "Hrat": (0, 1),
    "B": (0, 1),
    "E": (0, 1),
    "binom": (0, 2),
    "fact": (0, 1),
    "abs": (0, 1),
    "hyp2f1sp": (0, 1),
}

GENERATORS = ("pi", "log2", "li4h")


@dataclass
class Clause:
    kind: str  # ge | le | parity
    var: str
    value: Union[int, str]  # int bound, var name, or 'even'/'odd'


# what the DSL writes between a clause's variable and its value, per kind
_CLAUSE_TEXT = {"ge": ">=", "le": "<=", "parity": " "}
_CLAUSE_KIND = {text: kind for kind, text in _CLAUSE_TEXT.items()}


@dataclass
class Identity:
    ident: str
    parts: list  # list of (lhs, rhs) pairs
    clauses: list = field(default_factory=list)
    expect: str = "must-pass"  # or 'report'
    note: str = ""
    line: int = 0
    # the sides' plans by id(side), compiled by verify on first use, for both verify passes
    plans: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def params(self):
        return [cl.var for cl in self.clauses if cl.kind == "ge"]  # the parser allows one each

    def domain_text(self) -> str:
        """The forall clauses as the DSL writes them, e.g. 's>=2, s even'."""
        return ", ".join(f"{c.var}{_CLAUSE_TEXT[c.kind]}{c.value}" for c in self.clauses)

    def lower_bound(self, var: str) -> int:
        for cl in self.clauses:
            if cl.kind == "ge" and cl.var == var:
                return cl.value
        raise KeyError(var)


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<CHARID>2a|2b|m4)(?![A-Za-z0-9_])
  | (?P<INT>\d+)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>==|>=|<=|\.\.|[-+*/^(),;:=<>])
  | (?P<WS>\s+)
""",
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str
    text: str
    line: int
    col: int


def _lex(text: str, line_no: int):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        kind = m.lastgroup
        if kind != "WS":
            out.append(Token(kind, m.group(), line_no, pos + 1))
        pos = m.end()
    return out


class _Stream:
    def __init__(self, tokens, line):
        self.toks = tokens
        self.i = 0
        self.line = line

    def peek(self) -> Optional[Token]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of entry", self.line)
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, got {t.text!r}", t.line, t.col)
        return t

    def accept(self, text: str) -> bool:
        t = self.peek()
        if t is not None and t.text == text:
            self.i += 1
            return True
        return False

    def done(self) -> bool:
        return self.i >= len(self.toks)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# the left-associative binary operators by precedence level; unary minus and
# ^ bind tighter, in _parse_unary and _parse_power
_BINARY = {"+": 1, "-": 1, "*": 2, "/": 2}


def _parse_expr(s: _Stream, level: int = 1) -> Expr:
    """A chain of operators of at least `level`, by precedence climbing."""
    node = _parse_unary(s)
    while True:
        t = s.peek()
        op_level = _BINARY.get(t.text, 0) if t is not None else 0
        if op_level < level:
            return node
        s.next()
        node = BinOp(t.text, node, _parse_expr(s, op_level + 1))


def _parse_unary(s: _Stream) -> Expr:
    if s.accept("-"):
        return Neg(_parse_unary(s))
    return _parse_power(s)


def _parse_power(s: _Stream) -> Expr:
    base = _parse_atom(s)
    if s.accept("^"):
        exp = _parse_unary(s)  # right-assoc, allows 2^-3 and 2^(s-1)
        return BinOp("^", base, exp)
    return base


def _charid(s: _Stream) -> str:
    t = s.next()
    if t.kind == "CHARID":
        return t.text
    if t.kind == "INT" and t.text == "1":
        return "1"
    raise ParseError(f"expected character id (1, 2a, 2b, m4), got {t.text!r}", t.line, t.col)


def _parse_atom(s: _Stream) -> Expr:
    t = s.next()
    if t.kind == "INT":
        return Lit(Fraction(int(t.text)))
    if t.text == "(":
        inner = _parse_expr(s)
        s.expect(")")
        return inner
    if t.kind == "NAME":
        name = t.text
        if name == "sum":
            s.expect("(")
            var_tok = s.next()
            if var_tok.kind != "NAME":
                raise ParseError("sum index must be a name", var_tok.line, var_tok.col)
            s.expect("=")
            lo = _parse_expr(s)
            s.expect("..")
            hi = _parse_expr(s)
            s.expect(",")
            body = _parse_expr(s)
            s.expect(")")
            return Sum(var_tok.text, lo, hi, body)
        if name in GENERATORS:
            return Gen(name)
        m = re.fullmatch(r"z(\d+)", name)
        if m and (s.peek() is None or s.peek().text != "("):
            return Call("zeta", (), (Lit(Fraction(int(m.group(1)))),))
        if s.accept("("):
            if name not in ARITY:
                raise ParseError(f"unknown call {name!r}", t.line, t.col)
            nchars, nargs = ARITY[name]
            chars = []
            for i in range(nchars):
                if i:
                    s.expect(",")
                chars.append(_charid(s))
            args = []
            if not s.accept(")"):
                if nchars:
                    s.expect(";" if name == "cs" else ",")
                args.append(_parse_expr(s))
                while s.accept(","):
                    args.append(_parse_expr(s))
                s.expect(")")
            if len(args) != nargs:
                raise ArityError(
                    f"{name} takes {nargs} argument{'s' if nargs > 1 else ''}, got {len(args)}",
                    t.line, t.col,
                )
            return Call(name, tuple(chars), tuple(args))
        return Param(name)
    raise ParseError(f"unexpected token {t.text!r}", t.line, t.col)


def parse_expr(text: str, line_no: int = 1) -> Expr:
    """Parse a standalone DSL expression (CLI `eval`/`reduce` input)."""
    s = _Stream(_lex(text, line_no), line_no)
    e = _parse_expr(s)
    if not s.done():
        t = s.peek()
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return e


def _parse_clauses(s: _Stream):
    """The forall clauses; at most one >= and one <= per variable, and an
    integer <= not below the variable's >=."""
    clauses = []
    bounds: dict = {}  # (kind, var) -> value of its ge or le clause
    while True:
        var_tok = s.next()
        if var_tok.kind != "NAME":
            raise ParseError("domain clause must start with a variable", var_tok.line, var_tok.col)
        t = s.next()
        kind = _CLAUSE_KIND.get(t.text)
        if kind in ("ge", "le"):
            val_tok = s.next()
            if val_tok.kind == "INT":
                value: Union[int, str] = int(val_tok.text)
            elif val_tok.kind == "NAME":
                value = val_tok.text
            else:
                raise ParseError("bound must be an integer or variable", val_tok.line, val_tok.col)
            if kind == "ge" and not isinstance(value, int):
                raise ParseError("lower bounds must be integers", val_tok.line, val_tok.col)
            var = var_tok.text
            if (kind, var) in bounds:
                side = "lower" if kind == "ge" else "upper"
                raise ParseError(f"second {side} bound for {var!r}", var_tok.line, var_tok.col)
            bounds[kind, var] = value
            lo, hi = bounds.get(("ge", var)), bounds.get(("le", var))
            if lo is not None and isinstance(hi, int) and hi < lo:
                raise ParseError(
                    f"upper bound {var}<={hi} lies below the lower bound {var}>={lo}",
                    var_tok.line, var_tok.col,
                )
            clauses.append(Clause(kind, var, value))
        elif t.text in ("even", "odd"):
            clauses.append(Clause("parity", var_tok.text, t.text))
        else:
            raise ParseError(f"bad domain clause near {t.text!r}", t.line, t.col)
        if not s.accept(","):
            return clauses


def _free_params(e: Expr, bound: frozenset, sums: Optional[set] = None) -> set:
    """The parameters of e outside bound, a sum's index bound in its body
    only; every sum index also goes into sums, when given."""
    free = set()
    todo = [(e, bound)]
    while todo:
        node, scope = todo.pop()
        t = type(node)
        if t is Param:
            if node.name not in scope:
                free.add(node.name)
        elif t is BinOp:
            todo += ((node.left, scope), (node.right, scope))
        elif t is Neg:
            todo.append((node.arg, scope))
        elif t is Call:
            todo += ((a, scope) for a in node.args)
        elif t is Sum:
            if sums is not None:
                sums.add(node.var)
            todo += ((node.lo, scope), (node.hi, scope), (node.body, scope | {node.var}))
    return free


def _parse_entry(tokens, line_no, note) -> Identity:
    s = _Stream(tokens, line_no)
    s.expect("identity")
    id_tok = s.next()
    if id_tok.kind not in ("NAME",):
        raise ParseError("identity id must be a name", id_tok.line, id_tok.col)
    expect = "must-pass"
    if s.peek() is not None and s.peek().text == "expect":
        s.next()
        s.expect(":")
        mode_tok = s.next()
        if mode_tok.text != "report":
            raise ParseError("only 'expect: report' is supported", mode_tok.line, mode_tok.col)
        expect = "report"
    s.expect(":")
    clauses = []
    if s.peek() is not None and s.peek().text == "forall":
        s.next()
        clauses = _parse_clauses(s)
        s.expect(":")
    parts = []
    while True:
        chain = [_parse_expr(s)]
        while s.accept("=="):
            chain.append(_parse_expr(s))
        if len(chain) < 2:
            t = s.peek()
            raise ParseError("expected '==' equation", t.line if t else line_no, t.col if t else None)
        for a, b in zip(chain, chain[1:]):
            parts.append((a, b))
        if not s.accept(";"):
            break
    if not s.done():
        t = s.peek()
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    ident = Identity(id_tok.text, parts, clauses, expect, note, line_no)
    declared = frozenset(ident.params)
    svars = set()
    strays = [_free_params(side, declared, svars) for part in parts for side in part]
    if declared & svars:
        raise ParseError(f"sum index shadows parameter in {ident.ident}", line_no)
    for stray in strays:
        if stray:
            raise UnboundSymbol(f"unbound symbol(s) {sorted(stray)} in {ident.ident}", line_no)
    for cl in clauses:
        if cl.kind in ("le", "parity") and cl.var not in declared:
            raise UnboundSymbol(f"clause for undeclared variable {cl.var!r}", line_no)
        if cl.kind == "le" and isinstance(cl.value, str) and cl.value not in declared:
            raise UnboundSymbol(f"bound variable {cl.value!r} undeclared", line_no)
    return ident


def parse_corpus(text: str):
    """Parse a corpus file into a list of Identity entries."""
    # join continuation lines, track original line numbers and desc comments
    logical = []  # (line_no, text, note)
    pending = ""
    pending_line = 0
    note = ""
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not pending:
            if not stripped:
                note = ""
                continue
            if stripped.startswith("#"):
                body = stripped.lstrip("#").strip()
                if body.lower().startswith("desc:"):
                    note = body[5:].strip()
                continue
            pending_line = i
        hash_pos = stripped.find("#")
        if hash_pos >= 0:
            stripped = stripped[:hash_pos].strip()
        if stripped.endswith("\\"):
            pending += stripped[:-1] + " "
            continue
        pending += stripped
        logical.append((pending_line, pending, note))
        pending = ""
        note = ""
    if pending:
        raise ParseError("dangling line continuation", pending_line)
    out = []
    seen = set()
    for line_no, entry_text, entry_note in logical:
        ident = _parse_entry(_lex(entry_text, line_no), line_no, entry_note)
        if ident.ident in seen:
            raise ParseError(f"duplicate identity id {ident.ident}", line_no)
        seen.add(ident.ident)
        out.append(ident)
    return out


# ---------------------------------------------------------------------------
# renderer
# ---------------------------------------------------------------------------

_PREC = {**_BINARY, "neg": 3, "^": 4}


def render_expr(e: Expr) -> str:
    text, _ = _render(e)
    return text


def _render(e: Expr):
    """Returns (text, precedence-of-root)."""
    if isinstance(e, Lit):
        v = e.value
        if v.denominator == 1:
            return (str(v.numerator), 5 if v >= 0 else 3)
        return (f"{v.numerator}/{v.denominator}", 2)
    if isinstance(e, Param):
        return (e.name, 5)
    if isinstance(e, Gen):
        return (e.name, 5)
    if isinstance(e, Neg):
        inner, p = _render(e.arg)
        if p < _PREC["neg"]:
            inner = f"({inner})"
        return (f"-{inner}", _PREC["neg"] - 1)
    if isinstance(e, BinOp):
        lt, lp = _render(e.left)
        rt, rp = _render(e.right)
        prec = _PREC[e.op]
        if e.op == "^":
            if lp < 5:
                lt = f"({lt})"
            if rp < 5:
                rt = f"({rt})"
            return (f"{lt}^{rt}", prec)
        if lp < prec:
            lt = f"({lt})"
        if rp <= prec:  # left-assoc: parenthesize equal-precedence right children
            rt = f"({rt})"
        return (f"{lt}{e.op}{rt}", prec)
    if isinstance(e, Call):
        parts = list(e.chars)
        args = [render_expr(a) for a in e.args]
        if e.name == "cs":
            return (f"cs({parts[0]},{parts[1]};{args[0]},{args[1]})", 5)
        if parts:
            return (f"{e.name}({','.join(parts + args)})", 5)
        return (f"{e.name}({','.join(args)})", 5)
    if isinstance(e, Sum):
        return (
            f"sum({e.var}={render_expr(e.lo)}..{render_expr(e.hi)}, {render_expr(e.body)})",
            5,
        )
    raise TypeError(f"not an AST node: {e!r}")


def render_identity(ident: Identity) -> str:
    head = f"identity {ident.ident}"
    if ident.expect == "report":
        head += " expect: report"
    head += " :"
    if ident.clauses:
        head += f" forall {ident.domain_text()} :"
    eqs = " ; ".join(
        f"{render_expr(l)} == {render_expr(r)}" for l, r in ident.parts
    )
    return f"{head} {eqs}"
