"""Command-line surface: eval, parity, dec, and bench subcommands.

Output stays machine-parsable: one value per line on stdout, diagnostics on
stderr.  Exit codes: 0 success, 2 usage/parse error, 3 overflow, 4
deceleration precondition violation, 5 out of memory.
"""

import argparse
import math
import sys
import time
from fractions import Fraction
from statistics import median

from .arith import I64_MAX
from .combinator import (
    DecelerationError,
    ExprSyntaxError,
    SummatoryEvaluator,
    expr_deceleration,
    parse_expr,
)
from .parity import interval_prime_parity

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_OVERFLOW = 3
EXIT_DEC = 4
EXIT_MEMORY = 5


def _fmt_dec(d: Fraction) -> str:
    return f"{d.numerator}/{d.denominator}"


def fitted_exponent(points) -> float:
    """Least-squares slope of log(t) against log(x) over (x, t) pairs, t > 0."""
    us = [math.log(x) for x, _ in points]
    vs = [math.log(t) for _, t in points]
    mu, mv = sum(us) / len(us), sum(vs) / len(vs)
    return sum((u - mu) * (v - mv) for u, v in zip(us, vs)) / sum((u - mu) ** 2 for u in us)


def _bounded(kind: str, low: int = 0):
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{kind} must be an integer") from None
        if value < low or value > I64_MAX:
            raise argparse.ArgumentTypeError(f"{kind} must be in {low}..2^63-1 ({I64_MAX})")
        return value

    return convert


def _cmd_eval(args) -> int:
    ev = SummatoryEvaluator(args.expr)
    print(ev.eval(args.x))
    if args.dec:
        print(_fmt_dec(ev.deceleration))
    return EXIT_OK


def _cmd_parity(args) -> int:
    report = interval_prime_parity(args.a, args.b)
    print("odd" if report.parity else "even")
    if args.report:
        print(f"t2star_b={report.t2star_b}")
        print(f"t2star_a_minus_1={report.t2star_a_minus_1}")
        for j, count in report.corrections:
            print(f"j={j} count={count}")
    return EXIT_OK


def _cmd_dec(args) -> int:
    print(_fmt_dec(expr_deceleration(parse_expr(args.expr))))
    return EXIT_OK


def _cmd_bench(args) -> int:
    points = args.points
    if any(b <= a for a, b in zip(points, points[1:])):
        print("error: points must be strictly increasing", file=sys.stderr)
        return EXIT_USAGE
    expr = parse_expr(args.expr)
    print("x,nanos,value")
    samples = []
    for x in points:
        timings = []
        value = None
        for _ in range(args.reps):
            ev = SummatoryEvaluator(expr)  # fresh caches: measure cold cost
            t0 = time.perf_counter_ns()
            value = ev.eval(x)
            timings.append(time.perf_counter_ns() - t0)
        nanos = int(median(timings))
        samples.append((x, max(nanos, 1)))
        print(f"{x},{nanos},{value}")
    if args.fit:
        if len(samples) < 2:
            print("# fit requires >=2 points")
        else:
            print(f"# fitted_exponent={fitted_exponent(samples):.3f}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsum",
        description="Exact summatory functions of multiplicative functions, "
        "and prime-count parity on intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate sum_{n<=x} of an expression")
    p.add_argument("expr", help="expression, e.g. 'mu@2 * tau2'")
    p.add_argument("x", type=_bounded("x"))
    p.add_argument("--dec", action="store_true", help="also print the deceleration p/q")
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("parity", help="parity of the number of primes in [a, b]")
    p.add_argument("a", type=_bounded("a"))
    p.add_argument("b", type=_bounded("b"))
    p.add_argument("--report", action="store_true", help="print endpoint and correction details")
    p.set_defaults(run=_cmd_parity)

    p = sub.add_parser("dec", help="symbolic deceleration of an expression")
    p.add_argument("expr")
    p.set_defaults(run=_cmd_dec)

    p = sub.add_parser("bench", help="time an expression at several points (CSV)")
    p.add_argument("expr")
    p.add_argument("points", nargs="+", type=_bounded("point"))
    p.add_argument(
        "--reps", type=_bounded("reps", 1), default=3, help="repetitions per point (median)"
    )
    p.add_argument("--fit", action="store_true", help="append a log-log fitted exponent")
    p.set_defaults(run=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ExprSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DecelerationError as exc:
        print(f"deceleration error: {exc}", file=sys.stderr)
        return EXIT_DEC
    except OverflowError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
