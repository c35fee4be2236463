"""The pin manifest is well formed and the CI workflow runs every group."""

import json
import re

from snakescroll import cli

from pins import CHECKS, MANIFEST, ROOT, failures, run

WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _entries():
    return [entry for group in json.loads(MANIFEST.read_text()).values() for entry in group]


def test_entries_are_named_once_and_pin_something():
    entries = _entries()
    names = [entry["name"] for entry in entries]
    assert len(set(names)) == len(names)
    for entry in entries:
        assert set(entry) <= {"name", "argv", *CHECKS}, entry["name"]
        assert set(entry) & set(CHECKS), entry["name"]


def test_every_successful_argv_parses():
    for entry in _entries():
        if entry.get("exit", 0) != 0:
            continue
        command, *args = entry["argv"]
        try:
            cli.COMMANDS[command].parse_args(args)
        except SystemExit as exc:  # --help exits 0 once it has printed
            assert exc.code == 0, entry["name"]


def test_the_workflow_runs_each_group():
    called = re.findall(r"python tests/pins\.py (\S+)", WORKFLOW.read_text())
    assert len(set(called)) == len(called)
    assert set(called) == set(json.loads(MANIFEST.read_text()))


def test_the_driver_fails_each_wrong_pin():
    entry = {"name": "small", "argv": ["verify", "--n-min", "2", "--n-max", "4"]}
    # the run looks for the lines its entry pins
    got, _ = run({**entry, "lines": ["all checks passed", "all checks failed"]})
    assert got["total"] > 0
    right = {
        "exit": 0,
        "total": got["total"],
        "lines": ["all checks passed"],
        "stdout_sha256": got["stdout_sha256"],
        "stderr_sha256": got["stderr_sha256"],
        "rss_mib": 1024,
    }
    wrong = {
        "exit": 2,
        "total": got["total"] + 1,
        "lines": ["all checks failed"],
        "stdout_sha256": "0" * 64,
        "stderr_sha256": "0" * 64,
        "rss_mib": 1,
    }
    assert failures({**entry, **right}, got) == []
    for check in CHECKS:
        assert len(failures({**entry, **right, check: wrong[check]}, got)) == 1, check
