"""The package's records: what they import, and what each one promises."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from snakescroll.classify import feasible_quadruples
from snakescroll.cycles import orbit
from snakescroll.scroll import Scroll
from snakescroll.verify import VerificationReport

SRC = Path(__file__).resolve().parent.parent / "src"


def test_the_package_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter without site: what the package and its CLI import,
    # and nothing a site hook brought in first
    code = (
        "import sys, snakescroll, snakescroll.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


def test_each_report_has_four_fresh_containers():
    first, second = VerificationReport(), VerificationReport()
    assert first == ({}, [], [], [])
    containers = [*map(id, first), *map(id, second)]
    assert len(set(containers)) == 8
    first.passed["law"] = 1
    first.violations.append("law: context")
    assert second == ({}, [], [], [])


@pytest.mark.parametrize(
    "field", ["passed", "violations", "same_side_degree_failures", "product_form_failures"]
)
def test_a_report_field_cannot_be_rebound(field):
    rep = VerificationReport()
    kept = getattr(rep, field)
    with pytest.raises(AttributeError):
        setattr(rep, field, type(kept)())
    assert getattr(rep, field) is kept


def test_quadruples_are_sorted_by_beta_e_then_alpha_s_alpha_l_beta_d():
    for n in range(2, 41):
        quads = feasible_quadruples(n)
        keys = [(q.beta_e, q.alpha_s, q.alpha_l, q.beta_d) for q in quads]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_scrolls_are_equal_and_hash_alike_by_period_and_n():
    period = bytes([0, 0, 1])
    s, same = Scroll(period, 2), Scroll(bytes([0, 0, 1]), 2)
    s.metrics, s.snakes  # cached values play no part
    assert s == same and hash(s) == hash(same)
    assert len({s, same, orbit("00")}) == 1
    assert s != Scroll(period, 3) and s != Scroll(bytes([0, 1, 0]), 2)
    assert s != (period, 2)
    assert repr(s) == "Scroll(period=b'\\x00\\x00\\x01', n=2)"
    # a scroll keeps its tape's least period: given twice, it is the same scroll
    twice = Scroll(period * 2, 2)
    assert twice == s and hash(twice) == hash(s)
    assert (twice.m, twice.rows, repr(twice)) == (s.m, s.rows, repr(s))



def test_a_scroll_cannot_be_changed_once_made():
    s = orbit("0001")
    key = hash(s)
    for change in (lambda: setattr(s, "n", 3), lambda: delattr(s, "unit")):
        with pytest.raises(AttributeError, match="immutable"):
            change()
    assert s == orbit("0001") and hash(s) == key
