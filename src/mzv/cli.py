"""Command-line front end: eval, reduce, verify, search, bernoulli, euler,
corpus list.

Exit codes: 0 success, 1 verification failure, 2 usage, parse or domain error
(bad input, e.g. `eval` or `reduce` of a divergent call such as zeta(1), an
exact result too long to print, or a corpus or report path that can not be
read or written), 3 not reducible (a valid expression outside the closed-form
scope).
"""
from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from mpmath import mp

from . import exact
from .corpus import parse_expr
from .errors import DomainError, NotReducible, ParseError, PrecisionError
from .numerics import EvalContext
from .search import FAMILIES, SearchConfig, candidate_dsl, search_general
from .verify import (
    SuiteConfig,
    eval_ast_detailed,
    load_corpus,
    reduce_ast,
    reports_json,
    reports_tsv,
    run_suite,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NOT_REDUCIBLE = 3


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mzv",
        description="evaluate, reduce, verify and search double zeta value identities",
    )
    ap.add_argument("--prec", type=int, default=40, help="target decimal digits (default 40)")
    ap.add_argument(
        "--corpus",
        default=os.environ.get("MZV_CORPUS"),
        help="corpus file path (default: packaged corpus, or $MZV_CORPUS)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="numerically evaluate a DSL expression")
    p.add_argument("expr")

    p = sub.add_parser("reduce", help="reduce a DSL expression to closed form")
    p.add_argument("expr")

    p = sub.add_parser("verify", help="run corpus verification")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true", help="verify the whole corpus (default)")
    which.add_argument("--ids", help="comma-separated identity ids")
    p.add_argument("--max-param", type=int, default=10,
                   help="largest parameter value to try (default 10, must be >= 0); "
                        "each parameter still runs at least at its lower bound")
    p.add_argument("--mode", choices=("numeric", "symbolic", "both"), default="numeric")
    p.add_argument("--format", choices=("json", "tsv", "text"), default="text")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit timestamp/timing fields for byte-stable output")
    p.add_argument("--json-out", default="verify_report.json")
    p.add_argument("--tsv-out", default="verify_report.tsv")

    p = sub.add_parser("search", help="run the weighted-sum ansatz search")
    p.add_argument(
        "--family",
        action="append",
        choices=FAMILIES,
        help=f"family to search (repeatable; default: {', '.join(SearchConfig.families)})",
    )
    p.add_argument("--height", type=int, default=16, help="rational height bound H")
    p.add_argument("--deg", type=int, default=2, help="max polynomial degree for --family poly")

    p = sub.add_parser("bernoulli", help="print an exact Bernoulli number")
    p.add_argument("n", type=int)

    p = sub.add_parser("euler", help="print an exact Euler number")
    p.add_argument("n", type=int)

    p = sub.add_parser("corpus", help="corpus utilities")
    p.add_argument("action", choices=("list",))
    return ap


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _check_printable(values) -> None:
    """DomainError unless str() prints every rational in values."""
    if not all(map(exact.printable, values)):
        limit = sys.get_int_max_str_digits()
        raise DomainError(f"the exact result is too long to print (over {limit} digits)")


def cmd_eval(args) -> int:
    ctx = EvalContext(args.prec)
    value, bound, nodes = eval_ast_detailed(parse_expr(args.expr), {}, ctx)
    with mp.workdps(ctx.work_digits):
        if isinstance(value, Fraction):
            _check_printable([value])
            print(f"{value}  (exact rational)")
        else:
            budget = nodes * ctx.tolerance()
            # prec digits after the point once |value| >= 1, so that printing
            # rounds by at most 10^-prec / 2 (0 has no integer digits)
            digits = args.prec
            if abs(value) >= 1:
                digits += int(mp.floor(mp.log10(abs(value)))) + 1
            print(mp.nstr(value, digits, strip_zeros=False))
            print(f"error bound <= {mp.nstr(max(bound, mp.mpf(0)), 3)} "
                  f"(contract: <= {mp.nstr(budget, 3)})")
    return EXIT_OK


def cmd_reduce(args) -> int:
    try:
        expr = reduce_ast(parse_expr(args.expr), {})
    except NotReducible as exc:
        print(f"not reducible: {exc}", file=sys.stderr)
        return EXIT_NOT_REDUCIBLE
    _check_printable(c for _, c in expr.items())
    print(expr.render())
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.max_param < 0:
        return _usage_error(f"--max-param must be >= 0, got {args.max_param}")
    for path in (args.json_out, args.tsv_out):
        folder = os.path.dirname(path)
        if folder and not os.path.isdir(folder):
            return _usage_error(f"cannot write {path}: no directory {folder}")
    ids = args.ids.split(",") if args.ids else None
    config = SuiteConfig(
        ids=ids,
        max_param=args.max_param,
        prec=args.prec,
        mode=args.mode,
        corpus_path=args.corpus,
    )
    reports, summary = run_suite(config)
    json_text = reports_json(reports, summary, timestamp=not args.no_timestamp)
    tsv_text = reports_tsv(reports)
    for path, text in ((args.json_out, json_text + "\n"), (args.tsv_out, tsv_text)):
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            return _usage_error(f"cannot write {path}: {exc.strerror or exc}")
    if args.format == "json":
        print(json_text)
    elif args.format == "tsv":
        print(tsv_text, end="")
    else:
        for r in reports:
            if r.status != "pass":
                params = ",".join(f"{k}={v}" for k, v in sorted(r.params.items()))
                print(f"{r.status.upper():12} {r.ident} [{params}] "
                      f"residual={r.residual} expect={r.expect} {r.error or ''}")
        print(
            f"{summary['instances']} instances: {summary['passes']} must-pass ok, "
            f"{summary['failures']} failures, {summary['reported']} report-only "
            f"({summary['reported_failing']} failing), "
            f"{summary['elapsed_seconds']}s"
        )
        print(f"reports written to {args.json_out} and {args.tsv_out}")
    return EXIT_OK if summary["failures"] == 0 else EXIT_VERIFY_FAIL


def cmd_search(args) -> int:
    families = tuple(args.family) if args.family else SearchConfig.families
    config = SearchConfig(families=families, H=args.height, prec=args.prec, deg=args.deg)
    candidates = search_general(config)
    for i, cand in enumerate(candidates, start=1):
        print(f"# {cand.describe()}")
        print(candidate_dsl(cand, ident=f"S{i:02d}"))
    print(f"# {len(candidates)} surviving candidate(s)")
    return EXIT_OK


def cmd_corpus(args) -> int:
    identities = load_corpus(args.corpus)
    for ident in identities:
        note = f"  -- {ident.note}" if ident.note else ""
        flag = " [report]" if ident.expect == "report" else ""
        print(f"{ident.ident}: {len(ident.parts)} eq, forall {ident.domain_text() or '-'}{flag}{note}")
    print(f"{len(identities)} identities")
    return EXIT_OK


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "reduce":
            return cmd_reduce(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "search":
            return cmd_search(args)
        if args.command in ("bernoulli", "euler"):
            number = exact.bernoulli if args.command == "bernoulli" else exact.euler_number
            value = number(args.n)
            _check_printable([value])
            print(value)
            return EXIT_OK
        if args.command == "corpus":
            return cmd_corpus(args)
    except (DomainError, ParseError, PrecisionError) as exc:
        return _usage_error(str(exc))
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
