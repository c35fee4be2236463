"""The README's Python examples run as doctests, and its law table names
the laws a run reports."""

import doctest
import re
from itertools import takewhile
from pathlib import Path

from snakescroll.verify import run_verification

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert (result.failed, result.attempted) == (0, 17)


def test_readme_key_table_names_every_law():
    # the backticked keys in the first column of the `| Key | Scope |
    # Checks |` table, each escaped bar unescaped, are the keys a run with
    # every law reports, and the two skip keys, which no clean run reports
    lines = README.read_text().splitlines()
    rows = lines[lines.index("| Key | Scope | Checks |") + 2 :]
    keys = set()
    for row in takewhile(lambda line: line.startswith("|"), rows):
        cell = re.split(r"(?<!\\)\|", row)[1]
        keys.update(key.replace("\\|", "|") for key in re.findall(r"`([^`]+)`", cell))
    rep = run_verification(2, 10, omega_max=2, completeness=True)
    assert keys == {*rep.passed, "snake laws skipped", "table laws skipped"}
    assert len(keys) == 33
