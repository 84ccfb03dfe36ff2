"""Numbers as text: the one parser for scenario files, the one formatter
for traces and reports.

Scenario files hold only finite numbers.  Reports print a whole value
as an integer and anything else as Python's float repr; infinity (the
base station's supply) prints as ``inf`` unless the caller names
another spelling.  A list of node ids prints as ``[1,2,3]``.
"""

from __future__ import annotations

import math


def parse_num(raw: str, where: str) -> float:
    """A finite float from scenario text; where names the section and key
    or line in the error."""
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{where} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{where} must be finite, got {raw!r}")
    return value


def fmt_num(value: float, inf: str = "inf") -> str:
    """An integer if the value is whole, else the float; infinity as inf.

    An int prints exactly, however large; a float would round it.
    """
    if type(value) is int:
        return str(value)
    f = float(value)
    if f == math.inf:
        return inf
    return str(int(f)) if f.is_integer() else str(f)


def fmt_ids(seq) -> str:
    """Node ids as a bracketed, comma-separated list: ``[1,2,3]``."""
    return "[" + ",".join(map(str, seq)) + "]"
