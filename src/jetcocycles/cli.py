"""Command line surface.

    jetcocycles verify --suite all [--window N] [--json PATH]
    jetcocycles globalize --symbol "2*det(3,6) - 9*det(4,5)" --weight 7
                          [--max-order N] [--lambda L]
    jetcocycles eval --cocycle c5 --m 3 --n -3
    jetcocycles table3

globalize's --max-order (default 12) bounds only the jet orders of the
symbol and of the connection jets its ansatz needs; past it, exit 2.

Exit status: 0 when every check passes, 1 when any check FAILs, 2 on usage
or expression syntax errors, or when the --json path cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache
from typing import Optional

from .charts import is_global, solve_corrections
from .expr import DEFAULT_ORDER_CAP, OrderCapExceeded
from .cochains import CATALOGUE_NAMES, catalogue, ce_differential
from .report import SUITES, any_fail, emit_report, render_text, run_suite
from .syntax import ExprSyntaxError, parse_expr, to_text
from .wittmodel import evaluate_cochain


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _window(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"the window must be an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"the window must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jetcocycles",
        description="exact verification of density-valued cocycles of vector fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", default="all", choices=SUITES)
    p_verify.add_argument("--window", type=_window, default=6)
    p_verify.add_argument("--json", metavar="PATH", default=None)

    p_glob = sub.add_parser("globalize", help="solve for connection corrections")
    p_glob.add_argument("--symbol", required=True,
                        help="flat bilinear expression, e.g. 'det(1,2)'")
    p_glob.add_argument("--weight", type=int, required=True)
    p_glob.add_argument("--max-order", type=int, default=DEFAULT_ORDER_CAP,
                        help="bound on the jet orders of the symbol and of its ansatz")
    p_glob.add_argument("--lambda", dest="lam", type=_fraction, default=None,
                        help="module parameter for the cocycle constraint "
                             "(default: the weight)")

    p_eval = sub.add_parser("eval", help="evaluate a catalogued cocycle on (L_m, L_n)")
    p_eval.add_argument("--cocycle", required=True, choices=CATALOGUE_NAMES)
    p_eval.add_argument("--m", type=int, required=True)
    p_eval.add_argument("--n", type=int, required=True)

    sub.add_parser("table3", help="reproduce the nine-determinant cocycle table")
    return parser


def _cmd_verify(args) -> int:
    records = run_suite(args.suite, window=args.window)
    sys.stdout.write(render_text(records))
    if args.json:
        try:
            emit_report(records, "json", args.json)
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    return 1 if any_fail(records) else 0


def _cmd_globalize(args) -> int:
    symbol = parse_expr(args.symbol, args.max_order)
    try:
        result = solve_corrections(symbol, weight=args.weight,
                                   max_order=args.max_order,
                                   module_lambda=args.lam)
    except OrderCapExceeded:
        raise  # main's handler adds the --max-order hint
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"symbol: {to_text(symbol)}")
    print(f"weight: {result.weight}   module parameter: "
          f"{'trivial action' if result.trivial_action else result.module_lambda}")
    print(f"ansatz size: {len(result.ansatz)}")
    if not result.feasible:
        print("solution set: empty (no correction of this shape exists)")
        return 0
    rep = result.representative
    print(f"solution space dimension: {result.dimension}")
    print(f"canonical representative: {to_text(rep.coeff)}")
    glob = is_global(rep)
    closed = ce_differential(rep).is_zero()
    print(f"verified: transform-law {'PASS' if glob.ok else 'FAIL'}, "
          f"cocycle {'PASS' if closed else 'FAIL'}")
    return 0 if glob.ok and closed else 1


def _cmd_eval(args) -> int:
    c = catalogue(args.cocycle, "flat")
    value = evaluate_cochain(c, args.m, args.n)
    print(f"{args.cocycle}(L_{args.m}, L_{args.n}) = {value.describe()}")
    return 0


def _cmd_table3() -> int:
    records = run_suite("table3")
    sys.stdout.write(render_text(records, preamble=False))
    return 1 if any_fail(records) else 0


@cache
def _parser() -> argparse.ArgumentParser:
    """main's parser, built once per process; build_parser gives a fresh one."""
    return build_parser()


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "globalize":
            return _cmd_globalize(args)
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_table3()
    except ExprSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except OrderCapExceeded as exc:
        print(f"error: {exc} (raise --max-order)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
