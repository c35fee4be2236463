"""Command-line interface.

Subcommands: orbit, classify, verify, sum-period, construct.
Exit codes: 0 success, 1 input error (a usage error too), 2 theorem
violation.  A reader that closes the output early (`snakescroll classify
--n 20 | head`) ends the command quietly with exit 0: it has all the
output it asked for.

The parser does not depend on the input, so it is built once, at import,
as `PARSER`, with its subcommand parsers by name in `COMMANDS`; `main(argv)`
only parses, and can be called repeatedly in one process.  An argv that
starts with a command name is parsed once, by that command's parser, with
the top-level parser reporting any leftover arguments as its own pass
would; any other argv (empty, help, an unknown name) goes through `PARSER`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .classify import construct_first_row, enumerate_ticker_tapes
from .cycles import is_independent, orbit
from .cyclic import cyclically_equal
from .render import ansi_table, svg_table
from .report import (
    classification_csv_rows,
    classification_json_chunks,
    classification_text_rows,
    orbit_report,
    report_to_csv,
    report_to_json,
    report_to_text,
    tape_row,
)
from .slither import words_from_row
from .sums import construct_period_lambda, sum_vector
from .verify import run_verification

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2


def _cmd_orbit(args) -> int:
    seed = args.seed
    if len(seed) != args.n or not is_independent(seed):
        print(f"seed {seed!r} is not an independent set of C_{args.n}", file=sys.stderr)
        return EXIT_INPUT
    s, omega = orbit(seed), args.omega
    if args.format == "svg":
        print(svg_table(s, omega), end="")
    elif args.format == "json":
        print(report_to_json(orbit_report(s, omega)))
    elif args.format == "csv":
        print(report_to_csv(orbit_report(s, omega)), end="")
    else:
        print(report_to_text(orbit_report(s, omega)), end="")
        print()
        print(ansi_table(s, omega), end="")
    return EXIT_OK


def _cmd_classify(args) -> int:
    records = enumerate_ticker_tapes(args.n)
    # each row is built only while it is written: a CSV row or JSON entry
    # expands its class's full tape then, and the text table expands none
    if args.format == "json":
        rows = classification_json_chunks(args.n, records)
    elif args.format == "csv":
        rows = classification_csv_rows(map(tape_row, records))
    else:
        rows = classification_text_rows(args.n, records)
    sys.stdout.writelines(rows)
    return EXIT_OK


def _cmd_verify(args) -> int:
    rep = run_verification(
        args.n_min,
        args.n_max,
        omega_max=args.omega_max,
        extended=not args.core_only,
        completeness=args.completeness,
    )
    for name in sorted(rep.passed):
        print(f"PASS {name}: {rep.passed[name]} checks")
    if rep.same_side_degree_failures:
        print(
            f"note: same-side degree divisibility fails on "
            f"{len(rep.same_side_degree_failures)} orbits (crossed form verified)"
        )
    if rep.product_form_failures:
        print(
            f"note: direct-product invariant form fails on "
            f"{len(rep.product_form_failures)} tables (presentation form verified)"
        )
    if rep.violations:
        print(f"{len(rep.violations)} violations:", file=sys.stderr)
        for v in rep.violations:
            print(f"  {v}", file=sys.stderr)
        return EXIT_VIOLATION
    print("all checks passed")
    return EXIT_OK


def _cmd_sum_period(args) -> int:
    s = construct_period_lambda(args.lam, args.k)
    sv = sum_vector(s)
    payload = {
        "lambda": args.lam,
        "k": args.k,
        "n": s.n,
        "seed": s.seed,
        "orbitLength": s.m,
        "sumVector": list(sv.sums),
        "achievedPeriod": sv.lam,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return EXIT_OK


def _cmd_construct(args) -> int:
    row = construct_first_row(args.slither, args.coslither, args.n)
    back_s, back_c = words_from_row(row, args.n)
    ok = cyclically_equal(back_s, args.slither) and cyclically_equal(
        back_c, args.coslither
    )
    payload = {
        "n": args.n,
        "slither": args.slither,
        "coslither": args.coslither,
        "firstRow": row,
        "roundTrip": {"slither": back_s, "coslither": back_c, "matches": ok},
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(row)
        print(f"round trip: slither {back_s}, co-slither {back_c}")
    if not ok:
        print("round trip failed", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a usage error exits EXIT_INPUT, not 2, which
    is a theorem violation's code; the subcommand parsers are of its class
    too (`add_subparsers`' default `parser_class`)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name."""
    parser = _Parser(
        prog="snakescroll",
        description="Orbits, scrolls, and slither classification for toggled "
        "independent sets of cycle graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbit", help="full report for one seed")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--omega", type=int, default=1)
    p.add_argument("--format", choices=["text", "json", "csv", "svg"], default="text")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("classify", help="all ticker tapes for a given n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="run the brute-force theorem suite")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=14)
    p.add_argument("--omega-max", type=int, default=0)
    p.add_argument("--core-only", action="store_true", help="skip extended checks")
    p.add_argument(
        "--completeness",
        action="store_true",
        help="also compare simulated tapes against classification",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sum-period", help="build a scroll with prescribed sum period")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_sum_period)

    p = sub.add_parser("construct", help="first row from a slither/co-slither pair")
    p.add_argument("--slither", required=True)
    p.add_argument("--coslither", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_construct)
    return parser, sub.choices


PARSER, COMMANDS = build_parser()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        args = PARSER.parse_args(argv)
    else:
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed early shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout goes to devnull, so the flush at exit meets no broken pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
