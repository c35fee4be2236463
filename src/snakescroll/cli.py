"""Command-line interface.

Subcommands: orbit, classify, verify, sum-period, construct.
Exit codes: 0 success, 1 input error, 2 theorem violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import construct_first_row
from .cycles import is_independent
from .cyclic import cyclically_equal
from .render import ansi_table, svg_table
from .report import (
    classification_report,
    classification_to_csv,
    classification_to_text,
    orbit_report,
    report_to_csv,
    report_to_json,
    report_to_text,
)
from .scroll import scroll_from_seed
from .slither import coslither_from_row, slither_from_row
from .sums import construct_period_lambda, sum_vector
from .tables import omega_table
from .verify import run_verification

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2


def _cmd_orbit(args) -> int:
    seed = args.seed
    if len(seed) != args.n or not is_independent(seed, args.n):
        print(f"seed {seed!r} is not an independent set of C_{args.n}", file=sys.stderr)
        return EXIT_INPUT
    report = orbit_report(seed, args.omega)
    if args.format == "json":
        print(report_to_json(report))
    elif args.format == "csv":
        print(report_to_csv(report), end="")
    elif args.format == "svg":
        print(svg_table(omega_table(scroll_from_seed(seed), args.omega)), end="")
    else:
        print(report_to_text(report), end="")
        print()
        print(ansi_table(omega_table(scroll_from_seed(seed), args.omega)), end="")
    return EXIT_OK


def _cmd_classify(args) -> int:
    report = classification_report(args.n)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    elif args.format == "csv":
        print(classification_to_csv(report), end="")
    else:
        print(classification_to_text(report), end="")
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
    sv = sum_vector(omega_table(s, 1))
    payload = {
        "lambda": args.lam,
        "k": args.k,
        "n": s.n,
        "seed": s.base.rows[0],
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
    back_s = slither_from_row(row).word
    back_c = coslither_from_row(row).word
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
