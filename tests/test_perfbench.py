"""The benchmark's layer tracer still finds the package names it wraps: the
Witten and harmonic layers, the numerics layers below them and the symbolic
Witten table."""
from pathlib import Path

from mzv.corpus import parse_expr
from mzv.numerics import EvalContext, expr_num, periodic_tail_num
from mzv.verify import eval_ast, reduce_ast


def test_tracer_sees_the_witten_and_harmonic_layers(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import Tracer

    tracer = Tracer().install()
    try:
        # a precision no other test uses, so the value cache cannot answer first
        eval_ast(parse_expr("W(1,2,3) + hsum_odd(3) + hsum_half(2) + L(2b,3) + cs(2b,m4;1,2)"), {}, EvalContext(17))
        # the numeric walk reads no reduction; the symbolic walk reaches them
        expr_num(reduce_ast(parse_expr("W(1,2,3)"), {}), EvalContext(17))
        # the double sums read the class tails from their rows; the periodic tail calls class_tail
        periodic_tail_num("m4", 3, 10, EvalContext(17))
    finally:
        tracer.uninstall()
    for layer in (
        "numerics.witten", "numerics.harmonic", "reductions.witten", "numerics.L", "numerics.char_em",
        "numerics.class_tail", "numerics.inner_array", "numerics.expr",
    ):
        assert tracer.stats[layer].calls > 0, layer
