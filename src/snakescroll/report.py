"""Aggregated per-seed reports and their serializations."""

from __future__ import annotations

import json
from typing import Any

from .cyclic import cyclically_equal
from .scroll import scroll_from_seed, snakes_and_cosnakes
from .sums import col_scale, sum_vector
from .tables import (
    co_swallow,
    fundamental_degrees,
    group_invariants,
    is_color_preserving,
    omega_table,
    ouroboros_partition,
    predicted_counts,
    swallow,
    table_coslither,
    table_degrees,
    table_slither,
)


def orbit_report(seed: str, omega: int = 1) -> dict[str, Any]:
    """Everything the library can say about one seed, in one record.

    Closed-form values are embedded next to their simulated counterparts
    with explicit agreement flags.
    """
    s = scroll_from_seed(seed)
    met = s.metrics
    part = snakes_and_cosnakes(s)
    table = omega_table(s, omega)
    tab = ouroboros_partition(table)
    deg_p, codeg_p = table_degrees(s, omega)
    sw, cs = swallow(table), co_swallow(table)
    inv = group_invariants(table)
    sv = sum_vector(omega_table(s, 1))

    # simulate one slither to double-check the row extraction
    t0 = min(table.live)
    sim = []
    t = t0
    for _ in range(part.beta):
        t, letter = s.successor_step(t)
        sim.append(letter)

    return {
        "n": s.n,
        "seed": seed,
        "omega": omega,
        "rows": list(s.base.rows),
        "orbitLength": s.m,
        "slither": met.slither.word,
        "coslither": met.coslither.word,
        "deg": met.deg,
        "codeg": met.codeg,
        "p": met.p,
        "q": met.q,
        "sigma": met.sigma,
        "tapePeriod": met.T_tape,
        "scrollPeriod": met.T_scroll,
        "alpha": part.alpha,
        "beta": part.beta,
        "colScale": col_scale(s),
        "sumVector": list(sv.sums),
        "sumPeriod": sv.lam,
        "tableRows": table.r,
        "eta": table.eta,
        "barAlpha": tab.bar_alpha,
        "barBeta": tab.bar_beta,
        "degP": deg_p,
        "codegP": codeg_p,
        "tableSlither": table_slither(table),
        "tableCoslither": table_coslither(table),
        "swallowShift": sw.shift,
        "coSwallowShift": cs.shift,
        "swallowCycles": list(sw.cycle_type),
        "coSwallowCycles": list(cs.cycle_type),
        "invariantFactors": list(inv.nontrivial) or [1],
        "colorPreserving": is_color_preserving(s, omega),
        "agreement": {
            "scrollPeriodMatchesOrbit": met.T_scroll == s.m,
            "predictedCountsMatch": (tab.bar_alpha, tab.bar_beta)
            == predicted_counts(s, omega),
            "slitherMatchesSimulation": cyclically_equal("".join(sim), met.slither.word),
            "fundamentalDegreesCoprime": fundamental_degrees(s) is not None,
            "groupOrderMatchesEta": inv.order == table.eta,
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
    order = [
        "n", "seed", "omega", "orbitLength", "slither", "coslither",
        "deg", "codeg", "p", "q", "sigma", "tapePeriod", "scrollPeriod",
        "alpha", "beta", "colScale", "sumVector", "sumPeriod",
        "tableRows", "eta", "barAlpha", "barBeta", "degP", "codegP",
        "tableSlither", "tableCoslither", "swallowShift", "coSwallowShift",
        "swallowCycles", "coSwallowCycles", "invariantFactors",
        "colorPreserving",
    ]
    width = max(len(k) for k in order)
    lines = [f"{k.ljust(width)}  {_flatten(report[k])}" for k in order]
    lines.append("agreement:")
    for sub, v in sorted(report["agreement"].items()):
        lines.append(f"  {sub}: {v}")
    return "\n".join(lines) + "\n"


def classification_report(n: int) -> dict[str, Any]:
    from .classify import enumerate_ticker_tapes, feasible_quadruples, gf_count

    quads = feasible_quadruples(n)
    records = enumerate_ticker_tapes(n)
    return {
        "n": n,
        "quadrupleCount": len(quads),
        "gfCount": gf_count(n),
        "tapeCount": len(records),
        "tapes": [
            {
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
            for rec in records
        ],
    }


def classification_to_text(report: dict[str, Any]) -> str:
    lines = [
        f"n = {report['n']}: {report['quadrupleCount']} feasible quadruples "
        f"(generating function: {report['gfCount']}), "
        f"{report['tapeCount']} ticker tapes up to cyclic shift",
        "",
        f"{'bE':>3} {'aS':>3} {'aL':>3} {'bD':>3}  {'slither':<16} {'co-slither':<10} first row",
    ]
    for rec in report["tapes"]:
        q = rec["quadruple"]
        lines.append(
            f"{q['betaE']:>3} {q['alphaS']:>3} {q['alphaL']:>3} {q['betaD']:>3}  "
            f"{rec['slither']:<16} {rec['coslither']:<10} {rec['firstRow']}"
        )
    return "\n".join(lines) + "\n"


def classification_to_csv(report: dict[str, Any]) -> str:
    lines = ["betaE,alphaS,alphaL,betaD,slither,coslither,firstRow,tapeCanonical"]
    for rec in report["tapes"]:
        q = rec["quadruple"]
        lines.append(
            f"{q['betaE']},{q['alphaS']},{q['alphaL']},{q['betaD']},"
            f"{rec['slither']},{rec['coslither']},{rec['firstRow']},{rec['tapeCanonical']}"
        )
    return "\n".join(lines) + "\n"
