"""The number formatter shared by traces and reports."""

from __future__ import annotations

import math

from qcs_sim.numtext import fmt_num


def test_fmt_num_prints_large_ints_exactly():
    assert fmt_num(2 ** 53 + 1) == "9007199254740993"
    assert fmt_num(10 ** 30 + 7) == str(10 ** 30 + 7)
    # floats still print as before: whole ones as integers, inf by name
    assert fmt_num(float(2 ** 53 + 1)) == "9007199254740992"
    assert fmt_num(3.0) == "3"
    assert fmt_num(2.5) == "2.5"
    assert fmt_num(math.inf, "Inf") == "Inf"


def test_fmt_num_bool_prints_as_a_number():
    assert fmt_num(True) == "1"
    assert fmt_num(False) == "0"
