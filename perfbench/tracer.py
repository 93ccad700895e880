"""Outside-in layer tracing for the benchmark.

`Tracer.install()` replaces module attributes of the `mzv` package at run time
with thin wrappers; nothing under `src/` is edited.  Each wrapped name belongs
to a layer (``numerics.char_em``, ``search.affine``, ...).  Hot functions are
aggregated into per-layer counters (calls, cache misses, self time); spans are
kept only at coarse boundaries (a verify instance, a deep-eval request, a
search stage) and written out when the run ends.

Self time is a call's wall time minus the time spent in wrapped callees.  A
cache miss is a call that returned normally and during which the layer's cache
grew; every cached layer returns at once on a hit, so growth means this call
(or a callee it had to run because of the miss) computed a new entry.  A call
that raises stored no value of its own and is not a miss, so the count does
not depend on the order of requests.

Names are wrapped where the caller looks them up: module globals that the
package resolves at call time (``numerics.class_tail``), names bound by
``from ... import`` in another module (``numerics.bernoulli``,
``search.dzeta_reduce``), bound methods of the shared ``reductions._TABLE``
instance, and the ``ConstExpr`` arithmetic dunders.
"""
from __future__ import annotations

from time import perf_counter

# Layers that every workload enters; their self time is reported in seconds.
SHARED_TIMED = (
    "corpus.parse",
    "exact.bernoulli",
    "numerics.L",
    "numerics.char_em",
    "numerics.class_tail",
    "numerics.inner_array",
)

# Layers with a cache: their miss count is reported.
CACHED = (
    "numerics.L",
    "numerics.char_em",
    "numerics.class_tail",
    "numerics.inner_array",
    "numerics.witten",
    "reductions.dz_table",
    "reductions.dzeta_reduce",
    "reductions.verify_against_em",
    "reductions.witten",
)

SEARCH_STAGES = ("search.power", "search.affine", "search.symmetric_even", "search.poly")

LAYERS = (
    "corpus.parse",
    "exact.bernoulli",
    "numerics.L",
    "numerics.char_em",
    "numerics.class_tail",
    "numerics.inner_array",
    "numerics.expr",
    "numerics.witten",
    "numerics.harmonic",
    "verify.verify_numeric",
    "verify.verify_symbolic",
    "reductions.dz_table",
    "reductions.verify_against_em",
    "reductions.dzeta_reduce",
    "reductions.witten",
    "symexpr.arith",
    *SEARCH_STAGES,
    "search.fit_span_minimal",
    "search.solve_consistent",
    "search.is_new",
    "search.numeric_screen",
)

# Layers whose calls are coarse enough to get one span each.
_SPANNED = ("verify.verify_numeric", "verify.verify_symbolic")


class Stat:
    __slots__ = ("calls", "misses", "self_s")

    def __init__(self):
        self.calls = 0
        self.misses = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = {name: Stat() for name in LAYERS}
        self.spans = []  # (name, start, end, parent index or -1)
        self._stack = []  # child time accumulated by each open wrapped call
        self._open_spans = []
        self._undo = []

    # -- spans ---------------------------------------------------------------
    def span_begin(self, name):
        parent = self._open_spans[-1] if self._open_spans else -1
        self.spans.append([name, perf_counter(), None, parent])
        self._open_spans.append(len(self.spans) - 1)

    def span_end(self):
        self.spans[self._open_spans.pop()][2] = perf_counter()

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, name, fn, size=None):
        stat = self.stats[name]
        stack = self._stack
        spanned = name in _SPANNED
        span_begin, span_end = self.span_begin, self.span_end

        def wrapper(*args, **kwargs):
            if spanned:
                span_begin(name)
            n0 = size() if size is not None else 0
            returned = False
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                returned = True
                return out
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stat.calls += 1
                stat.self_s += dt - child
                if returned and size is not None and size() > n0:
                    stat.misses += 1
                if stack:
                    stack[-1] += dt
                if spanned:
                    span_end()

        return wrapper

    def _wrap_stage(self, name, fn):
        """A search stage is a generator: time each next(), not the call."""
        stat = self.stats[name]
        stack = self._stack
        tracer = self

        def stage(*args, **kwargs):
            gen = fn(*args, **kwargs)
            tracer.span_begin(name)
            try:
                while True:
                    stack.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter() - t0
                        child = stack.pop()
                        stat.calls += 1
                        stat.self_s += dt - child
                        if stack:
                            stack[-1] += dt
                    yield item
            finally:
                tracer.span_end()

        return stage

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, new)

    def install(self):
        from mzv import corpus, exact, numerics, reductions, search, symexpr, verify

        value_size = lambda: len(numerics._value_cache)  # noqa: E731
        table = reductions._TABLE
        plain = [
            ("numerics.char_em", [numerics], "_char_em", value_size),
            ("numerics.class_tail", [numerics], "class_tail", lambda: len(numerics._kernel_cache)),
            ("numerics.inner_array", [numerics], "_inner_array", lambda: len(numerics._array_cache)),
            ("numerics.L", [numerics], "_L_internal", value_size),
            ("numerics.expr", [numerics], "_expr_internal", None),
            ("numerics.witten", [numerics], "_witten_internal", value_size),
            ("numerics.harmonic", [numerics], "_harmonic_internal", None),
            ("exact.bernoulli", [exact, numerics, symexpr], "bernoulli", None),
            ("corpus.parse", [corpus, verify], "parse_corpus", None),
            ("verify.verify_numeric", [verify], "verify_numeric", None),
            ("verify.verify_symbolic", [verify], "verify_symbolic", None),
            ("reductions.verify_against_em", [reductions], "_verify_against_em", value_size),
            ("reductions.dzeta_reduce", [reductions, search], "dzeta_reduce",
             lambda: len(table._dz_tables)),
            ("search.fit_span_minimal", [search], "fit_span_minimal", None),
            ("search.solve_consistent", [search], "_solve_consistent", None),
            ("search.is_new", [search], "_is_new", None),
            ("search.numeric_screen", [search], "numeric_screen", None),
        ]
        for name, owners, attr, size in plain:
            for owner in owners:
                self._replace(owner, attr, self._wrap(name, getattr(owner, attr), size))
        self._replace(table, "dz_table",
                      self._wrap("reductions.dz_table", table.dz_table, lambda: len(table._dz_tables)))
        self._replace(table, "witten",
                      self._wrap("reductions.witten", table.witten, lambda: len(table._witten)))
        for dunder in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"):
            self._replace(symexpr.ConstExpr, dunder,
                          self._wrap("symexpr.arith", getattr(symexpr.ConstExpr, dunder)))
        stages = [
            ("search.power", "_power_candidates"),
            ("search.affine", "_affine_candidates"),
            ("search.symmetric_even", "_symmetric_even_candidates"),
            ("search.poly", "_poly_plain_candidates"),
            ("search.poly", "_poly_even_candidates"),
        ]
        for name, attr in stages:
            self._replace(search, attr, self._wrap_stage(name, getattr(search, attr)))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    # -- results -------------------------------------------------------------
    def snapshot(self):
        """Per-layer (calls, misses, self_s), for phase-by-phase differences."""
        return {name: (s.calls, s.misses, s.self_s) for name, s in self.stats.items()}

    def snapshot_diff(self, before):
        now = self.snapshot()
        return {name: tuple(a - b for a, b in zip(now[name], before[name])) for name in now}


_MISSING = object()
