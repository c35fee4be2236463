"""Aggregated per-seed reports and their serializations.

`orbit_report` takes an orbit table as its scroll and omega, as the
renderers and `verify.check_tables` do: no table record is built.
"""

from __future__ import annotations

import json
from math import gcd
from typing import Any, Iterable, Iterator

from .classify import TapeClass, enumerate_ticker_tapes, feasible_quadruples, gf_count
from .cyclic import cyclically_equal
from .scroll import Scroll, lifted_counts
from .sums import col_scale, sum_vector
from .tables import (
    color_preserving,
    group_factors,
    nontrivial,
    predicted_counts,
    swallow_shift,
    table_words,
)


def _cycle_type(shift: int, labels: int) -> list[int]:
    """A shift k of L labels in their cyclic order has gcd(k, L) cycles,
    each of length L / gcd(k, L)."""
    cycles = gcd(shift, labels)
    return [labels // cycles] * cycles


def orbit_report(s: Scroll, omega: int) -> dict[str, Any]:
    """Everything the library can say about the seed of s and its omega-fold
    table, in one record.

    Closed-form values are embedded next to their simulated counterparts
    with explicit agreement flags.  The table is its scalars, read as
    `verify.check_tables` reads them: size omega*m*n, live count eta,
    counts (bar_alpha, bar_beta) lifted from the windings and degrees
    alpha/bar_alpha, beta/bar_beta; its per-table values are read off
    `tables`' scalar cores in the order `check_tables` reads them: swallow,
    co-swallow, group factors, then the colour-preserving conditions.
    """
    if omega < 1:
        raise ValueError("omega must be a positive integer")
    size, eta = omega * s.size, omega * s.live_count
    alpha, beta = lifted_counts(s, size // len(s.unit))
    met = s.metrics
    snakes = s.snakes
    shifts = swallow_shift(s, 0, size), swallow_shift(s, 1, size)
    factors = group_factors(s, eta, alpha, beta)
    sv = sum_vector(s)
    words = table_words(s, alpha, beta)

    return {
        "n": s.n,
        "seed": s.seed,
        "omega": omega,
        "rows": list(s.rows),
        "orbitLength": s.m,
        "slither": met.slither,
        "coslither": met.coslither,
        "deg": met.deg,
        "codeg": met.codeg,
        "p": met.p,
        "q": met.q,
        "sigma": met.sigma,
        "tapePeriod": met.T_tape,
        "scrollPeriod": met.T_scroll,
        "alpha": snakes.alpha,
        "beta": snakes.beta,
        "colScale": col_scale(s),
        "sumVector": list(sv.sums),
        "sumPeriod": sv.lam,
        "tableRows": omega * s.m,
        "eta": eta,
        "barAlpha": alpha,
        "barBeta": beta,
        "degP": snakes.alpha // alpha,
        "codegP": snakes.beta // beta,
        "tableSlither": words[0],
        "tableCoslither": words[1],
        "swallowShift": shifts[0],
        "coSwallowShift": shifts[1],
        "swallowCycles": _cycle_type(shifts[0], snakes.alpha),
        "coSwallowCycles": _cycle_type(shifts[1], snakes.beta),
        "invariantFactors": list(nontrivial(factors)) or [1],
        "colorPreserving": color_preserving(s, omega, size, alpha, beta, shifts),
        "agreement": {
            "scrollPeriodMatchesOrbit": met.T_scroll == s.m,
            "predictedCountsMatch": (alpha, beta) == predicted_counts(s, omega),
            # one simulated slither double-checks the row extraction
            "slitherMatchesSimulation": cyclically_equal(s.slither_walk[1], met.slither),
            "fundamentalDegreesCoprime": gcd(*s.fundamental_degrees) == 1,
            "groupOrderMatchesEta": factors[0] * factors[1] == eta,
        },
    }


def report_to_json(report: dict[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def _flatten(value: Any) -> str:
    if isinstance(value, list):
        return " ".join(str(v) for v in value)
    return str(value)


def report_to_csv(report: dict[str, Any]) -> str:
    lines = ["key,value"]
    for key, value in sorted(report.items()):
        if isinstance(value, dict):
            for sub, v in sorted(value.items()):
                lines.append(f"{key}.{sub},{_flatten(v)}")
        else:
            lines.append(f"{key},{_flatten(value)}")
    return "\n".join(lines) + "\n"


def report_to_text(report: dict[str, Any]) -> str:
    order = [k for k in report if k not in ("rows", "agreement")]
    width = max(len(k) for k in order)
    lines = [f"{k.ljust(width)}  {_flatten(report[k])}" for k in order]
    lines.append("agreement:")
    for sub, v in sorted(report["agreement"].items()):
        lines.append(f"  {sub}: {v}")
    return "\n".join(lines) + "\n"


def tape_row(rec: TapeClass) -> dict[str, Any]:
    """One class's entry of the classification report; `tapeCanonical`
    expands its full fundamental vector."""
    return {
        "quadruple": {
            "betaE": rec.quadruple.beta_e,
            "alphaS": rec.quadruple.alpha_s,
            "alphaL": rec.quadruple.alpha_l,
            "betaD": rec.quadruple.beta_d,
        },
        "slither": rec.slither,
        "coslither": rec.coslither,
        "firstRow": rec.first_row,
        "tapeCanonical": rec.tape,
    }


def _classification_header(n: int, records: list[TapeClass]) -> dict[str, int]:
    """The counts that head the classification report of these records (all
    the classes of n), in its key order: each writer of it reads them here."""
    return {
        "n": n,
        "quadrupleCount": len(feasible_quadruples(n)),
        "gfCount": gf_count(n),
        "tapeCount": len(records),
    }


def classification_report(n: int) -> dict[str, Any]:
    records = enumerate_ticker_tapes(n)
    return {**_classification_header(n, records), "tapes": [tape_row(rec) for rec in records]}


def classification_json_chunks(n: int, records: list[TapeClass]) -> Iterator[str]:
    """`classification_report` of these records (all the classes of n) as
    `print(json.dumps(report, indent=2))` writes it, in pieces: the header
    keys, then each class's entry (`tape_row`) as it is built.  An
    indented JSON value nests by prefixing every line of its own indented
    text, so each entry is dumped alone and indented two levels."""
    head = json.dumps(_classification_header(n, records), indent=2)
    yield head[: -len("\n}")] + ',\n  "tapes": ['
    separator = "\n    "
    for rec in records:
        yield separator + json.dumps(tape_row(rec), indent=2).replace("\n", "\n    ")
        separator = ",\n    "
    yield "\n  ]\n}\n" if records else "]\n}\n"


def classification_text_rows(n: int, records: list[TapeClass]) -> Iterator[str]:
    """The lines of the classification table of these records (all the
    classes of n), header first, each with its newline, built one at a
    time; no class's full tape is expanded."""
    yield (
        "n = {n}: {quadrupleCount} feasible quadruples (generating function: {gfCount}), "
        "{tapeCount} ticker tapes up to cyclic shift\n"
    ).format(**_classification_header(n, records))
    yield "\n"
    yield f"{'bE':>3} {'aS':>3} {'aL':>3} {'bD':>3}  {'slither':<16} {'co-slither':<10} first row\n"
    for rec in records:
        q = rec.quadruple
        yield (
            f"{q.beta_e:>3} {q.alpha_s:>3} {q.alpha_l:>3} {q.beta_d:>3}  "
            f"{rec.slither:<16} {rec.coslither:<10} {rec.first_row}\n"
        )


def classification_csv_rows(tapes: Iterable[dict[str, Any]]) -> Iterator[str]:
    """The CSV rows of these report entries (`tape_row`), header first, each
    with its newline, built one at a time."""
    yield "betaE,alphaS,alphaL,betaD,slither,coslither,firstRow,tapeCanonical\n"
    for rec in tapes:
        q = rec["quadruple"]
        yield (
            f"{q['betaE']},{q['alphaS']},{q['alphaL']},{q['betaD']},"
            f"{rec['slither']},{rec['coslither']},{rec['firstRow']},{rec['tapeCanonical']}\n"
        )


def classification_to_csv(report: dict[str, Any]) -> str:
    return "".join(classification_csv_rows(report["tapes"]))
