"""The price table, the millijoule model, lifetime arithmetic, and the ledger."""

from __future__ import annotations

import math
import random

import pytest

from qcs_sim.energy import (
    PRICES,
    CostModel,
    EnergyLedger,
    draw_initial_energy,
    joules,
    lifetime,
)
from qcs_sim.node import NodeState


# the price table: short packets cost one unit, long packets two,
# both directions; one forwarding hop costs its holder 6 + (acks heard)

SHORT_CAUSES = ("query_send", "query_recv", "hop_query", "hop_query_recv",
                "ack_send", "ack_recv", "reset_send", "reset_recv")
LONG_CAUSES = ("flood_send", "flood_recv", "alert_recv")


def test_price_table_covers_every_cause():
    prices = PRICES
    assert len(prices) == 13
    assert all(prices[c] == 1 for c in SHORT_CAUSES)
    assert all(prices[c] == 2 for c in LONG_CAUSES)
    assert prices["source_send"] == 4   # the sender pays both radio ends
    assert prices["alert_send"] == 4    # twice the range, twice the price


def test_price_table_hop_costs_six_plus_acks():
    prices = PRICES
    for acks in (0, 3):
        hop = (prices["hop_query"] + acks * prices["ack_recv"]
               + prices["source_send"] + prices["reset_recv"])
        assert hop == 6 + acks


# physical model: mJ = seconds * mA * V, 40ms long frame = 2x 20ms short

def test_joules_reference_values():
    assert math.isclose(joules(24), 0.9724, rel_tol=1e-9)
    assert math.isclose(joules(64), 1.9448, rel_tol=1e-9)


def test_joules_long_frame_is_exactly_double():
    assert joules(64) == 2 * joules(24)


def test_joules_rejects_other_sizes():
    with pytest.raises(ValueError):
        joules(32)


def test_lifetime_reference_values():
    assert lifetime(3000, 1) == 3000
    assert lifetime(5000, 1, 0) == 5000
    assert lifetime(10, 3) == 3          # floor, not rounding
    assert lifetime(10, 1, ep=1) == 5
    assert lifetime(0, 1) == 0


def test_lifetime_rejects_free_running():
    with pytest.raises(ValueError):
        lifetime(100, 0, 0)
    with pytest.raises(ValueError):
        lifetime(100, 1, -2)
    for args, name in [((math.inf, 1, 0), "initial_energy"),
                       ((math.nan, 1, 0), "initial_energy"),
                       ((-5, 1, 0), "initial_energy"),
                       ((3000, math.inf, 0), "e1"),
                       ((100, 1, math.nan), "ep"),
                       ((10, -1, 3), "e1"),
                       ((10, 3, -1), "ep")]:
        with pytest.raises(ValueError, match=name):
            lifetime(*args)


def test_draw_initial_energy_bounds_and_determinism():
    lo, hi = CostModel().init_min, CostModel().init_max
    rng = random.Random(9)
    for _ in range(200):
        seed = rng.randint(0, 10 ** 6)
        nid = rng.randint(1, 255)
        e = draw_initial_energy(seed, nid, lo, hi)
        assert lo <= e <= hi
        assert e == draw_initial_energy(seed, nid, lo, hi)
    assert draw_initial_energy("7", 1, lo, hi) == draw_initial_energy(7, 1, lo, hi)
    assert draw_initial_energy(7, 1, lo=10, hi=10) == 10
    with pytest.raises(ValueError, match="empty energy range"):
        draw_initial_energy(0, 1, 5, 4)


def test_cost_model_validation():
    CostModel()  # defaults are consistent
    with pytest.raises(ValueError):
        CostModel(threshold=3000, init_min=3000)  # floor must undercut start
    with pytest.raises(ValueError):
        CostModel(init_min=400, init_max=300)


@pytest.mark.parametrize("kw, name", [({"init_min": 3000.0, "init_max": 5000.0}, "init_min"),
                                      ({"threshold": 499.5}, "threshold"),
                                      ({"init_min": 1, "init_max": True}, "init_max")],
                         ids=["whole_float", "fractional", "bool"])
def test_cost_model_takes_only_whole_int_units(kw, name):
    """A float or a bool fails at construction, naming its field, not
    later inside a run's energy draws."""
    with pytest.raises(ValueError, match=f"^{name} must be an int"):
        CostModel(**kw)


# ledger behavior: balances live on the nodes, the ledger records debits

def _ledger(balances: dict[int, float]) -> EnergyLedger:
    return EnergyLedger({nid: NodeState(nid, (0.0, 0.0), energy=e)
                         for nid, e in balances.items()})


def test_ledger_debit_and_rows():
    led = _ledger({1: 10, 2: math.inf})
    taken = led.debit(0, led.nodes[1], "source_send")
    assert taken == 4
    assert led.balance(1) == 6
    assert led.nodes[1].energy == 6
    assert led.entries[-1].cause == "source_send"
    assert led.entries[-1].balance == 6


def test_ledger_clamps_at_zero():
    led = _ledger({1: 2})
    taken = led.debit(0, led.nodes[1], "source_send")
    assert taken == 2
    assert led.balance(1) == 0
    assert led.nodes[1].energy <= 0
    # further debits take nothing and add no rows
    n_rows = len(led.entries)
    assert led.debit(1, led.nodes[1], "query_recv") == 0
    assert len(led.entries) == n_rows


def test_ledger_infinite_balance_untouched():
    led = _ledger({1: math.inf})
    assert led.debit(0, led.nodes[1], "alert_recv") == 0
    assert led.balance(1) == math.inf
    assert led.entries == []  # nothing of substance to record


def test_ledger_totals():
    led = _ledger({1: 10, 2: 10})
    led.debit(0, led.nodes[1], "query_send")
    led.debit(0, led.nodes[2], "query_recv")
    led.debit(1, led.nodes[1], "query_send")
    assert sum(e.debit for e in led.entries if e.node_id == 1) == 2
    assert {e.cause for e in led.entries if e.node_id == 1} == {"query_send"}
    assert led.total_consumed() == 3
