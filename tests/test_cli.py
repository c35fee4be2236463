"""Exit codes and output formats of the command-line entry point."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from snakescroll import classify, cli, necklaces, report, scroll, sums, verify
from snakescroll.cli import EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, main
from snakescroll.report import classification_report, classification_to_csv, tape_row


SEED11 = "00001010000"
# n = 11, omega = 2 lies outside the benchmark's frozen references (C_8..C_10);
# its SVG splits 8 edges that leave the table past its last row
ORBIT_11 = ("orbit", "--n", "11", "--seed", SEED11, "--omega", "2")
ORBIT_11_SHA256 = {
    "svg": "03c76d23e0f0eaccf348829cd54dbc1d12b588ed2304caa843f071a95d3ff5c2",
    "text": "e1345559184a796aa81b25c8ccfd6232d338c47f487bfbabb4a6d5f2f5b2f737",
    "json": "e48a5d6d40bf627f95bc5284ed56de10864651816993831bc65da8805a189ad6",
    "csv": "e2f911be984263ae2cf23dd7dfb05d6b982a0d2f15c1aa2e7289e0d543bcb188",
}

# `classify --n 13` in the default text format
CLASSIFY_13_TEXT_SHA256 = "4627a8d8ee0673376d0b48c57a6230d82b955b0ca70b9cf3407356f31d0b9e3d"

# stdout of requests that read no frozen reference: a constructed row from a
# non-necklace rotation, one from a necklace pair, and a sum-period scroll
CONSTRUCTION_SHA256 = {
    ("construct", "--slither", "DEDEDE", "--coslither", "SS", "--n", "11",
     "--format", "json"):
        "906e6bc2e0b2aab3b19aa785dc30a703e3e54af7a5db128c803da8191eb7033d",
    ("construct", "--slither", "DDEDDDE", "--coslither", "LSS", "--n", "13"):
        "9f9d9f79735e6d9ab8fd358dca035bee53b04c4462b8e6360cc384b6f7e2f598",
    ("sum-period", "--lambda", "7", "--k", "4", "--format", "json"):
        "33b66ea0ce8255b894c5b12e467bebfdc1e2376576f141f6c4646d844b88c34c",
}


# usage errors, help and edge cases of argument parsing, each parsed and
# reported as the top-level parser would
ARGV_BATTERY = [
    [],
    ["-h"],
    ["--help"],
    ["frob"],
    ["frob", "--n", "8"],
    ["--n", "8", "orbit"],
    ["orbit"],
    ["orbit", "-h"],
    ["orbit", "--n", "8", "--help"],
    ["orbit", "--n", "8"],
    ["orbit", "--n", "eight", "--seed", "00000000"],
    ["orbit", "--n", "8", "--seed", "00000000", "--bogus"],
    ["orbit", "--n", "8", "--seed", "00000000", "--format", "pdf"],
    ["orbit", "--n", "8", "--seed", "00000000", "stray", "--bogus=1"],
    ["orbit", "--", "--n", "8", "--seed", "00000000"],
    ["orbit", "--n=8", "--seed", "00100000"],
    ["orbit", "--n", "8", "--seed", "00100000", "--om", "2", "--format", "csv"],
    ["orbit", "--n", "8", "--seed", "11000000"],
    ["classify", "--n", "5", "--format", "xml"],
]
# one valid request per subcommand
VALID_ARGV = [
    ["orbit", "--n", "8", "--seed", "00100100", "--format", "json"],
    ["classify", "--n", "7", "--format", "csv"],
    ["verify", "--n-min", "2", "--n-max", "5", "--omega-max", "1"],
    ["sum-period", "--lambda", "3", "--k", "4"],
    ["construct", "--slither", "ED", "--coslither", "L", "--n", "5"],
]


def outcome(capsys, main, argv):
    """(exit code, stdout, stderr) of main(argv), returned or raised."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_orbit_text(capsys):
    code, out, _ = run(
        capsys, "orbit", "--n", "11", "--seed", "00001010000", "--format", "text"
    )
    assert code == EXIT_OK
    assert "sigma" in out and "42" in out
    assert "snakes:" in out  # colored table blocks follow the report


def test_orbit_json(capsys):
    code, out, _ = run(
        capsys, "orbit", "--n", "11", "--seed", "00001010000", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["orbitLength"] == 7
    assert payload["p"] == 14 and payload["q"] == 21
    assert payload["invariantFactors"] == [22]
    assert payload["coSwallowCycles"] == [3, 3]
    assert all(payload["agreement"].values())


def test_orbit_csv(capsys):
    code, out, _ = run(
        capsys, "orbit", "--n", "11", "--seed", "00001010000", "--format", "csv"
    )
    assert code == EXIT_OK
    assert out.startswith("key,value")
    assert "sigma,42" in out


def test_orbit_svg(capsys):
    code, out, _ = run(
        capsys, "orbit", "--n", "11", "--seed", "00001010000", "--format", "svg"
    )
    assert code == EXIT_OK
    assert out.startswith("<svg") and "</svg>" in out
    assert "circle" in out


def test_orbit_rejects_bad_seed(capsys):
    code, _, err = run(capsys, "orbit", "--n", "4", "--seed", "1100")
    assert code == EXIT_INPUT
    assert "independent" in err
    code, _, err = run(capsys, "orbit", "--n", "5", "--seed", "1100")
    assert code == EXIT_INPUT


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "--n", "13")
    assert code == EXIT_OK
    assert "7 feasible quadruples" in out
    assert "17 ticker tapes" in out


def test_classify_text_expands_no_tape(capsys, monkeypatch):
    # the text table is streamed from the records, as the CSV is: no report
    # is built and no class's full tape is read; the output keeps the
    # SHA-256 of the table the report used to give
    def unread(_rec):
        raise AssertionError("a full tape was expanded")

    monkeypatch.setattr(classify.TapeClass, "tape", property(unread))
    monkeypatch.setattr(report, "classification_report", None)
    code, out, _ = run(capsys, "classify", "--n", "13")
    assert code == EXIT_OK
    assert out.count("\n") == 3 + 17  # header, blank line, column names, rows
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_13_TEXT_SHA256


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--n", "13", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["tapeCount"] == 17
    assert len(payload["tapes"]) == 17


@pytest.mark.parametrize("n", range(2, 17))
def test_classify_json_is_the_report_dump(capsys, n):
    # the entries are dumped one at a time, and the bytes are those of the
    # whole report dumped at once
    code, out, err = run(capsys, "classify", "--n", str(n), "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    assert out == json.dumps(classification_report(n), indent=2) + "\n"


def test_classify_json_expands_each_tape_as_its_entry_is_written(monkeypatch):
    events = []

    class Out:
        def writelines(self, lines):
            for _ in lines:
                events.append("write")

        def flush(self):
            events.append("flush")

    def row(rec):
        events.append("expand")
        return tape_row(rec)

    monkeypatch.setattr(report, "tape_row", row)
    monkeypatch.setattr(report, "classification_report", None)  # no report is built
    monkeypatch.setattr(cli.sys, "stdout", Out())
    assert main(["classify", "--n", "13", "--format", "json"]) == EXIT_OK
    assert events == ["write"] + ["expand", "write"] * 17 + ["write", "flush"]


def test_classify_csv(capsys):
    code, out, _ = run(capsys, "classify", "--n", "13", "--format", "csv")
    assert code == EXIT_OK
    assert out.count("\n") == 18  # header + 17 rows
    # the rows written one at a time are the joined CSV text
    assert out == classification_to_csv(classification_report(13))


def test_classify_csv_expands_each_tape_as_its_row_is_written(monkeypatch):
    events = []

    class Out:
        def writelines(self, lines):
            for _ in lines:
                events.append("write")

        def flush(self):
            events.append("flush")

    def row(rec):
        events.append("expand")
        return tape_row(rec)

    monkeypatch.setattr(cli, "tape_row", row)
    monkeypatch.setattr(report, "classification_report", None)  # no report is built
    monkeypatch.setattr(cli.sys, "stdout", Out())
    assert main(["classify", "--n", "13", "--format", "csv"]) == EXIT_OK
    assert events == ["write"] + ["expand", "write"] * 17 + ["flush"]


def test_classify_rejects_too_few_vertices(capsys):
    for n in ("0", "1"):
        for fmt in ("text", "csv"):
            code, out, err = run(capsys, "classify", "--n", n, "--format", fmt)
            assert code == EXIT_INPUT
            assert out == ""
            assert "cycle graphs need at least 2 vertices" in err


def test_verify_subcommand(capsys):
    code, out, _ = run(
        capsys, "verify", "--n-min", "2", "--n-max", "6", "--omega-max", "2"
    )
    assert code == EXIT_OK
    assert "all checks passed" in out


def test_verify_rejects_bad_ranges(capsys):
    code, out, err = run(
        capsys, "verify", "--n-min", "2", "--n-max", "4", "--omega-max", "-1", "--core-only"
    )
    assert code == EXIT_INPUT
    assert out == "" and "omega_max" in err
    code, out, err = run(capsys, "verify", "--n-min", "5", "--n-max", "3")
    assert code == EXIT_INPUT
    assert out == "" and "n_min" in err


def test_sum_period_subcommand(capsys):
    code, out, _ = run(capsys, "sum-period", "--lambda", "3", "--k", "4")
    assert code == EXIT_OK
    assert "n: 12" in out
    code, out, _ = run(
        capsys, "sum-period", "--lambda", "7", "--k", "4", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["achievedPeriod"] == 7
    assert payload["sumVector"][:7] == [9, 8, 8, 8, 8, 8, 7]


def test_sum_period_rejects_even_lambda(capsys):
    code, _, err = run(capsys, "sum-period", "--lambda", "2", "--k", "4")
    assert code == EXIT_INPUT
    assert "input error" in err


def test_construct_subcommand(capsys):
    code, out, _ = run(
        capsys, "construct", "--slither", "EDEDED", "--coslither", "SS", "--n", "11"
    )
    assert code == EXIT_OK
    assert out.splitlines()[0].count("1") == 4

    code, out, _ = run(
        capsys,
        "construct", "--slither", "ED", "--coslither", "L", "--n", "5",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["roundTrip"]["matches"] is True


def test_construct_rejects_infeasible_pair(capsys):
    code, _, err = run(
        capsys, "construct", "--slither", "EDEDED", "--coslither", "SSS", "--n", "11"
    )
    assert code == EXIT_INPUT

    # 2 E + 3 S + 4 L = 3 is not n + 1 = 6
    code, _, err = run(
        capsys, "construct", "--slither", "D", "--coslither", "S", "--n", "5"
    )
    assert code == EXIT_INPUT
    assert "input error" in err


def test_construct_rejects_foreign_letters(capsys):
    code, _, err = run(
        capsys, "construct", "--slither", "D", "--coslither", "Q", "--n", "3"
    )
    assert code == EXIT_INPUT
    assert "input error" in err


@pytest.mark.parametrize("slither", ["", "D", "EDEDED"])
def test_construct_names_an_empty_coslither(capsys, slither):
    # every feasible pair has alpha >= 1: an empty co-slither is named as
    # such, before the slither's D count is held to its length
    code, out, err = run(
        capsys, "construct", "--slither", slither, "--coslither", "", "--n", "3"
    )
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "input error: co-slither is empty; it needs at least one S or L\n"


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_construct_rejects_too_few_vertices(capsys, n):
    # n < 2 is no cycle graph: construct says so, as classify, orbit and
    # verify do, before it reads the words' letter counts
    for slither, coslither in (("D", "S"), ("", "")):
        code, out, err = run(
            capsys, "construct", "--slither", slither, "--coslither", coslither, "--n", n
        )
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "input error: cycle graphs need at least 2 vertices\n"


@pytest.mark.parametrize("bounds", [["--n-min", "1", "--n-max", "1"], ["--n-min", "0"]])
def test_verify_rejects_too_few_vertices(capsys, bounds):
    # the range's first n < 2 is no cycle graph: verify says so before it
    # writes any law
    code, out, err = run(capsys, "verify", *bounds)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "input error: cycle graphs need at least 2 vertices\n"


@pytest.mark.parametrize("omega", ["0", "-1"])
@pytest.mark.parametrize("fmt", sorted(ORBIT_11_SHA256))
def test_orbit_rejects_a_non_positive_omega(capsys, fmt, omega):
    # every format rejects the omega before it writes anything
    code, out, err = run(
        capsys, "orbit", "--n", "11", "--seed", SEED11, "--omega", omega, "--format", fmt
    )
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "input error: omega must be a positive integer\n"


# each path to exit 2, a theorem violation, taken by breaking the one value
# its check compares: no request then reports all checks passed


def test_verify_reports_a_failing_law(capsys, monkeypatch):
    monkeypatch.setattr(verify, "_is_torsor", lambda *args: False)
    code, out, err = run(capsys, "verify", "--n-min", "2", "--n-max", "3", "--core-only")
    assert code == EXIT_VIOLATION
    assert err == (
        "2 violations:\n"
        "  torsor simple transitivity: n=2 seed=00\n"
        "  torsor simple transitivity: n=3 seed=000\n"
    )
    assert "PASS commutation" in out and "all checks passed" not in out


def test_classify_reports_a_wrong_burnside_count(capsys, monkeypatch):
    count = necklaces.binary_necklace_count
    monkeypatch.setattr(necklaces, "binary_necklace_count", lambda *args: count(*args) + 1)
    code, out, err = run(capsys, "classify", "--n", "5")
    assert code == EXIT_VIOLATION
    assert err == "theorem violation: necklace generator found 1, Burnside says 2\n"
    assert "all checks passed" not in out


def test_sum_period_reports_a_wrong_achieved_period(capsys, monkeypatch):
    monkeypatch.setattr(sums, "sum_vector", lambda s: sums.SumVector((), 1))
    code, out, err = run(capsys, "sum-period", "--lambda", "3", "--k", "4")
    assert (code, out) == (EXIT_VIOLATION, "")
    assert err == "theorem violation: construction for (lambda=3, k=4) achieved period 1\n"


def test_construct_reports_a_failed_round_trip(capsys, monkeypatch):
    monkeypatch.setattr(cli, "words_from_row", lambda row, n: ("DE", "S"))
    code, out, err = run(capsys, "construct", "--slither", "ED", "--coslither", "L", "--n", "5")
    assert code == EXIT_VIOLATION
    assert err == "round trip failed\n"
    assert out.splitlines()[1] == "round trip: slither DE, co-slither S"
    assert "all checks passed" not in out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("fmt", sorted(ORBIT_11_SHA256))
def test_orbit_output_bytes_are_pinned(capsys, fmt):
    code, out, err = run(capsys, *ORBIT_11, "--format", fmt)
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ORBIT_11_SHA256[fmt]


def test_orbit_svg_builds_no_report(capsys, monkeypatch):
    def no_report(table):
        raise AssertionError("orbit --format svg must not build a report")

    monkeypatch.setattr(cli, "orbit_report", no_report)
    code, out, err = run(capsys, *ORBIT_11, "--format", "svg")
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ORBIT_11_SHA256["svg"]


@pytest.mark.parametrize("fmt", sorted(ORBIT_11_SHA256))
def test_orbit_builds_no_table_size_array(capsys, monkeypatch, fmt):
    # the table's counts are lifted from the windings, walked mod the tape
    # period, and the labels mod sigma (42) are read off the same walk: the
    # maps are walked once, mod T (7), never at sigma or the table size
    # 2*m*n = 154
    moduli = []
    original = scroll.walk_cycles

    def recorded(advances, live):
        moduli.append(len(advances[0]))
        return original(advances, live)

    monkeypatch.setattr(scroll, "walk_cycles", recorded)
    code, out, err = run(capsys, *ORBIT_11, "--format", fmt)
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ORBIT_11_SHA256[fmt]
    assert moduli == [7]


@pytest.mark.parametrize("argv", sorted(CONSTRUCTION_SHA256))
def test_construction_output_bytes_are_pinned(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTRUCTION_SHA256[argv]


def test_main_reuses_one_parser_across_requests(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    request = (*ORBIT_11, "--format", "svg")
    code, first, err = run(capsys, *request)
    assert (code, err) == (EXIT_OK, "")
    assert run(capsys, *request) == (EXIT_OK, first, "")
    # a usage error, then help: neither changes the next request's output
    for argv, exit_code in ((["orbit", "--n", "4"], EXIT_INPUT), (["orbit", "--help"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == exit_code
        capsys.readouterr()
        assert run(capsys, *request) == (EXIT_OK, first, "")
    assert built == []


@pytest.mark.parametrize("argv", ARGV_BATTERY + VALID_ARGV, ids=" ".join)
def test_main_matches_the_two_pass_parse(capsys, argv):
    want = outcome(capsys, oracles.cli_main, argv)
    assert outcome(capsys, main, argv) == want


def test_an_orbit_request_is_parsed_once(capsys, monkeypatch):
    # the orbit parser parses the request; the top-level parser never does
    def no_top_level_parse(*args, **kwargs):
        raise AssertionError("an orbit request must not pass the top-level parser")

    monkeypatch.setattr(cli.PARSER, "parse_known_args", no_top_level_parse)
    code, out, err = run(capsys, *ORBIT_11, "--format", "svg")
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ORBIT_11_SHA256["svg"]


@pytest.mark.parametrize("fmt", sorted(ORBIT_11_SHA256))
def test_orbit_builds_no_inverse_step_letters(capsys, monkeypatch, fmt):
    # no orbit format reads the predecessor or co-predecessor, so no inverse
    # step table is built; the forward one is, both maps in one pass
    forward = []
    original = scroll._steps

    def recorded(unit, advance):
        forward.append(advance["E"] > 0)
        return original(unit, advance)

    monkeypatch.setattr(scroll, "_steps", recorded)
    code, out, err = run(capsys, *ORBIT_11, "--format", fmt)
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ORBIT_11_SHA256[fmt]
    assert forward == [True]


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--n", "20", "--format", "csv"),
        ("orbit", "--n", "16", "--seed", "0000000100100100", "--omega", "3", "--format", "svg"),
    ],
    ids=["classify", "orbit"],
)
def test_a_reader_closing_early_ends_the_command_quietly(argv):
    # the reader takes 10 bytes of an output far longer than a pipe holds
    # (190 kB and 529 kB) and closes its end: the command stops with exit 0
    # and nothing on stderr, not a BrokenPipeError traceback and exit 1.
    # Stdout is buffered, as by default: unbuffered (PYTHONUNBUFFERED), a
    # write the reader cuts short ends partial, with no error
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "snakescroll.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (len(head), proc.wait(), err) == (10, EXIT_OK, b"")
