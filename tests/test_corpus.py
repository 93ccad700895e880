"""DSL parser, renderer and the shipped corpus file."""
import pytest

from mzv.corpus import (
    BinOp,
    Call,
    Lit,
    Neg,
    Sum,
    _free_params,
    parse_corpus,
    parse_expr,
    render_expr,
    render_identity,
)
from mzv.errors import ArityError, ParseError, UnboundSymbol
from mzv.verify import load_corpus


def test_grammar_demo_entry():
    text = "identity C02: forall s>=3 : sum(j=2..s-1, dz(j,s-j)) == zeta(s)"
    (ident,) = parse_corpus(text)
    assert ident.ident == "C02"
    assert ident.params == ["s"]
    assert ident.lower_bound("s") == 3
    assert len(ident.parts) == 1
    lhs, rhs = ident.parts[0]
    assert isinstance(lhs, Sum)
    assert isinstance(rhs, Call) and rhs.name == "zeta"


def test_unbound_symbol_rejected():
    with pytest.raises(UnboundSymbol):
        parse_corpus("identity X1 : zeta(s) == zeta(s)")


def test_expect_report_and_chain():
    text = "identity X2 expect: report : forall n>=1 : n == n+0 == n*1"
    (ident,) = parse_corpus(text)
    assert ident.expect == "report"
    assert len(ident.parts) == 2  # pairwise chain


def test_multiple_equations_and_parity():
    text = "identity X3 : forall n>=4, n even, m>=0, m<=n : B(n) == B(n) ; E(m) == E(m)"
    (ident,) = parse_corpus(text)
    assert len(ident.parts) == 2
    kinds = [c.kind for c in ident.clauses]
    assert kinds == ["ge", "parity", "ge", "le"]


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_expr("zeta(2")
    with pytest.raises(ParseError):
        parse_expr("dz(2,3) +")
    with pytest.raises(ParseError):
        parse_corpus("identity Y : forall q>=$ : 1 == 1")
    with pytest.raises(ArityError):
        parse_expr("binom(3)")


@pytest.mark.parametrize("text, message", [
    ("zeta(1,2)", "zeta takes 1 argument, got 2 (line 1, col 1)"),
    ("zeta()", "zeta takes 1 argument, got 0 (line 1, col 1)"),
    ("dz(3)", "dz takes 2 arguments, got 1 (line 1, col 1)"),
    ("cs(2b,1;2)", "cs takes 2 arguments, got 1 (line 1, col 1)"),
    ("L(2a)", "L takes 1 argument, got 0 (line 1, col 1)"),
    ("2*W(1,2)", "W takes 3 arguments, got 2 (line 1, col 3)"),
])
def test_wrong_arity_names_the_call_and_both_counts(text, message):
    with pytest.raises(ArityError) as info:
        parse_expr(text)
    assert str(info.value) == message


def test_charid_parsing():
    e = parse_expr("cs(2b,1;2,1)")
    assert e.chars == ("2b", "1")
    e = parse_expr("L(m4,3)")
    assert e.chars == ("m4",)
    with pytest.raises(ParseError):
        parse_expr("cs(3b,1;2,1)")


def test_z_shorthand_and_roundtrip():
    e = parse_expr("1/2*pi^2*z3 - 11/2*z5")
    rendered = render_expr(e)
    assert parse_expr(rendered) == e


def test_duplicate_id_rejected():
    with pytest.raises(ParseError):
        parse_corpus("identity A : 1 == 1\nidentity A : 2 == 2")


def test_shipped_corpus_parses_to_46():
    identities = load_corpus()
    assert len(identities) == 46
    ids = [i.ident for i in identities]
    assert ids == [f"C{k:02d}" for k in range(1, 47)]
    reports = {i.ident for i in identities if i.expect == "report"}
    assert reports == {"C07", "C10", "C37"}


def test_corpus_render_roundtrip():
    for ident in load_corpus():
        text = render_identity(ident)
        (back,) = parse_corpus(text)
        assert back.parts == ident.parts, ident.ident
        assert back.clauses == ident.clauses, ident.ident
        assert back.expect == ident.expect


def test_sum_index_shadowing_rejected():
    with pytest.raises(ParseError):
        parse_corpus("identity S : forall j>=1 : sum(j=1..2, j) == 3")


def test_expression_precedence():
    e = parse_expr("2^-3")
    assert isinstance(e, BinOp) and e.op == "^"
    e = parse_expr("(-1)^(2+1)")
    assert isinstance(e, BinOp) and e.op == "^"
    assert parse_expr("1-2-3") == BinOp("-", BinOp("-", Lit(1), Lit(2)), Lit(3))


@pytest.mark.parametrize("text, tree, rendered", [
    ("6/2/3", BinOp("/", BinOp("/", Lit(6), Lit(2)), Lit(3)), "6/2/3"),
    ("6/(2/3)", BinOp("/", Lit(6), BinOp("/", Lit(2), Lit(3))), "6/(2/3)"),
    ("1-2*3/4-5",
     BinOp("-", BinOp("-", Lit(1), BinOp("/", BinOp("*", Lit(2), Lit(3)), Lit(4))), Lit(5)),
     "1-2*3/4-5"),
    ("2*3^2", BinOp("*", Lit(2), BinOp("^", Lit(3), Lit(2))), "2*3^2"),
    ("(1+2)*-3", BinOp("*", BinOp("+", Lit(1), Lit(2)), Neg(Lit(3))), "(1+2)*(-3)"),
])
def test_binary_operators_associate_left_by_precedence(text, tree, rendered):
    assert parse_expr(text) == tree
    assert render_expr(tree) == rendered
    assert parse_expr(rendered) == tree


@pytest.mark.parametrize("text, free, sums", [
    ("sum(j=1..j, j)", {"j"}, {"j"}),  # an index is not bound in its own bounds
    ("sum(j=j..3, 1) * 2", {"j"}, {"j"}),
    ("sum(j=1..3, j) + j", {"j"}, {"j"}),  # nor after its sum
    ("sum(j=1..3, sum(j=1..j, j))", set(), {"j"}),  # an inner sum may reuse an index
    ("sum(k=1..2, sum(j=k..3, dz(j+1, k*m)))", {"m"}, {"j", "k"}),
    ("zeta(s+k) * W(1, 2, t)", {"k", "s", "t"}, set()),
])
def test_free_params_binds_a_sum_index_in_its_body_only(text, free, sums):
    seen = set()
    assert _free_params(parse_expr(text), frozenset(), seen) == free
    assert seen == sums
    assert _free_params(parse_expr(text), frozenset({"m", "s"})) == free - {"m", "s"}


@pytest.mark.parametrize("entry, error, message", [
    ("sum(j=1..j, j) == 1", UnboundSymbol, "unbound symbol(s) ['j'] in S"),
    ("sum(j=1..2, j) + j == 3", UnboundSymbol, "unbound symbol(s) ['j'] in S"),
    ("forall s>=2 : zeta(s) == dz(s, k+1)", UnboundSymbol, "unbound symbol(s) ['k'] in S"),
    ("forall j>=1 : sum(k=1..2, sum(j=1..k, j)) == 3", ParseError,
     "sum index shadows parameter in S"),
])
def test_corpus_scope_errors(entry, error, message):
    with pytest.raises(error) as info:
        parse_corpus(f"identity S : {entry}")
    assert str(info.value) == f"{message} (line 1)"


@pytest.mark.parametrize("clauses, message, col", [
    ("s>=2, s>=5", "second lower bound for 's'", 27),
    ("s>=2, t>=1, t<=s, t<=3", "second upper bound for 't'", 39),
    ("s>=2, s<=1", "upper bound s<=1 lies below the lower bound s>=2", 27),
    ("s<=1, s>=2", "upper bound s<=1 lies below the lower bound s>=2", 27),
])
def test_corpus_rejects_repeated_and_crossed_bounds(clauses, message, col):
    """A repeated bound or an integer <= below the >= stops the parse at the
    clause that makes it, instead of enumerating from one bound or nothing."""
    with pytest.raises(ParseError) as info:
        parse_corpus(f"\nidentity S : forall {clauses} : zeta(s) == zeta(s)")
    assert str(info.value) == f"{message} (line 2, col {col})"
    assert (info.value.line, info.value.col) == (2, col)


def test_corpus_accepts_a_single_point_domain():
    (ident,) = parse_corpus("identity S : forall s>=3, s<=3 : zeta(s) == zeta(s)")
    assert ident.params == ["s"] and ident.lower_bound("s") == 3


def test_corpus_scope_accepts_bound_indices():
    text = "identity S : forall s>=2 : sum(j=1..s, sum(j=1..j, j) + sum(k=j..s, dz(s, k))) == 1"
    (ident,) = parse_corpus(text)
    assert ident.params == ["s"]


def test_comments_and_continuations():
    text = """
# desc: a described identity
identity Z9 : forall s>=2 : \\
    zeta(s) \\
    == zeta(s)  # trailing comment
"""
    (ident,) = parse_corpus(text)
    assert ident.note == "a described identity"
    assert len(ident.parts) == 1
