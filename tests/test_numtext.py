"""The number and id-list formatters shared by traces and reports."""

from __future__ import annotations

import math

import pytest

from qcs_sim.numtext import fmt_ids, fmt_num


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


def test_fmt_ids_prints_ids_of_the_8_bit_src_field():
    assert fmt_ids(()) == "[]"
    assert fmt_ids((1,)) == "[1]"
    assert fmt_ids((1, 2, 255)) == "[1,2,255]"
    for bad in (0, 256):
        with pytest.raises(KeyError):
            fmt_ids((1, bad))
