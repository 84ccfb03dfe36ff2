"""Engine invariants on random runs.

Random connected layouts run with packet loss, overlapping irregular
and devastating alarms, and batteries small enough that nodes drain and
die mid-run.  Every run must keep the ledger and the trace consistent:
initial minus final balance equals the summed debits, no balance goes
below zero, each node that empties dies exactly once, and every closed
incident says why and at which tick it closed, on these runs, the
pocket runs and the golden runs.  Its trace text must also agree with its
record of transmissions, deaths, base receipts, hop rounds, sense
events, reset-wave hops and the base's returns to listening, and the
record holds no text, on these runs or the golden runs.  The ledger's
entries view reads the same rows mid-run as at the end, and ledger.csv
equals a per-row formatting of them.  Pocket runs add a short chain of
nodes the base cannot reach, with an alarm in it, and no incident may
run more rounds than its attempt cap.  No node that the hop query's
price empties may answer it.  test_spec.py holds the same runs to the
plain reference simulator: which nodes act, hear, alert and swap.

Every report of the random runs, the pocket runs, a sweep-mode corpus
run through the CLI and one crafted run is pinned by sha256, and these
corpora together reach every note, close reason, hop outcome and death
cause, and a flood that closes an open alarm.

No run and none of its reports builds a reference cycle, so reference
counting frees them all, as the CLI's pause of the cyclic garbage
collector assumes.

Every packet the engine builds in this module, the golden runs' too,
must come back from the wire codec unchanged.
"""

from __future__ import annotations

import argparse
import ast
import gc
import hashlib
import itertools
import math
import random
import re
from collections import Counter

import pytest

from qcs_sim import (
    CostModel, Simulation, Topology, cli, default16_scenario_text, engine, metrics, node,
)
from qcs_sim.energy import PRICES, ROW_CELLS, EnergyLedger, LedgerEntry
from qcs_sim.metrics import render_summary, render_trace
from qcs_sim.numtext import fmt_num
from qcs_sim.packet import PacketKind, decode, encode
from qcs_sim.record import (
    NOTES, BaseListening, BaseReceipt, Death, HopAttempt, PacketEvent, ResetStep, Sense,
)
from qcs_sim.scenario import (
    Scenario, SenseEvent, load_scenario, parse_scenario, sweep_scenario,
)

from conftest import GRID, ledger_csv_reference, make_scenario, random_connected_topology
from test_golden import (
    GOLDEN_GRID225, GOLDEN_RUN16, GOLDEN_SWEEP16, REPO, _grid225_text, _reports, _write,
)

RUNS = 60
#: sha256 over the trace text of the RUNS random runs, in order
RANDOM_TRACES_SHA256 = "8d979fb6bf6e49578db17afb9a1e0c97e19b2e58ef117ec4a251d2cf1ab9e02c"
#: sha256 over each other report of the RUNS random runs, in order
RANDOM_REPORTS_SHA256 = {
    "energy_diff.csv": "efcdf0260a07f029fbb848b4454e1501dc31ad4c64ceaad03003def4aa04de81",
    "ledger.csv": "0d7d583998054f14e12769111236db71c357161f2f6b8dac5b4bd18263a1fe86",
    "paths.csv": "5165fd8916d0150f48dfc0c23a82422f2f9d7ea0a0089e7bc660ef8181852166",
    "summary.txt": "64793487300cecbbc9ed9324d3899a3d5b1061b3e00ccf36bf3081585f9efe05",
}
#: sha256 over each report of the POCKET_RUNS pocket runs, in order
POCKET_REPORTS_SHA256 = {
    "energy_diff.csv": "71559f4c4eded04fd722e08d5627a2fda89afd6eb5a0023eaabbb677ca48b7ec",
    "ledger.csv": "ad6d6d1ea325058af1692d5ffea18af5593f932ca9909778428a38b39023aa60",
    "paths.csv": "4b16a323733e4798fd4115a14f3dafdfabd233cd641b81f1832d0d7438aa2b70",
    "summary.txt": "77db04269785eb3ad922afafc1e1e18ee55bc2c523686527f4b8e5803d75c6e4",
    "trace.txt": "04b4f02ca1167737840dc482ef22e11b376d8bcc8f7bc17b43f2354ced9b203b",
}
#: sha256 over each report file of the SWEEPS sweep-mode CLI calls, in
#: order, over the calls that wrote it
SWEEP_REPORTS_SHA256 = {
    "energy_diff.csv": "9a7f7fa374456be2d6f0e7d41140ed5704c9a7b490337a2b1d5ac021571aafe8",
    "ledger_irregular1.csv": "5407a2ae6b65936a568dde2ade1d82be9b757eaba854bcc2f5854d50cd6247e2",
    "ledger_irregular2.csv": "2041815e42f7843b9676c13176e5a92a87020e1bd49ea0d45877d11ca79cf62d",
    "ledger_irregular3.csv": "74e91cfe9d205ad0b559ae48dd5aa40eb90fa8efebb85598684576ff690465d9",
    "ledger_irregular4.csv": "07e4f304e592bdfa7a3dcf1d027c42adb7117c7c7e67c9546b6ef94e6e770373",
    "paths.csv": "2749a80dc7ba1c10d72b95d944c2291ce315fad200e150be3887831582ce6ad6",
    "summary.txt": "13855229a81061a5058c24dd7c2ddfd50e5081003fb1cae9cb3ca098e3950f4e",
    "trace.txt": "188364507fc74421509a6b2c070c0979d571e0427fafdedd4ef1b2897ff8d1be",
}
#: sha256 of each report of RESET_SEND_DEATH, the crafted run in which
#: the accepting node's reset_send empties it
RESET_SEND_DEATH_SHA256 = {
    "energy_diff.csv": "78ff07fdb187925ba03beb22c823a90d5b777c04b55e3ddba84248f70ec075ca",
    "ledger.csv": "59a9f9f67c0c29c1b21915a10528b010d4339c164b8f4f7d3fb46aaaedb51358",
    "paths.csv": "124c88f78b9264c2d1ef53649f81f9e81f1944b843490c8aef587e8533fddc77",
    "summary.txt": "ec64144b62189af58356eb70f869c8bbbfcbfebb97da0787669bdaa17de05f83",
    "trace.txt": "8eb0423bb8dd84583ba0532a6e89006cdef7b840607e83753d2d07b14f9fc135",
}


#: the notes whose packets each builder makes, and the module the
#: engine looks the builder up in
_BUILT_FOR = {"make_query": (engine, ("hop_query",)), "make_ack": (node, ("ack",)),
              "make_source": (engine, ("source", "flood"))}


@pytest.fixture(autouse=True)
def wire_built(monkeypatch):
    """Check that decode(encode(p)) == p for every packet the engine
    builds, that its kind and flags are those of a NOTES row for a note
    it is built for, and that every source packet, a handover or a
    flood, carries a message; count the packets built by kind."""
    built = Counter()

    def checked(make, notes):
        rows = {(n.kind, n.flag1, n.flag2) for n in map(NOTES.get, notes)}

        def build(*args, **kwargs):
            p = make(*args, **kwargs)
            assert decode(encode(p)) == p, p
            assert (p.kind, p.flags.flag1, p.flags.flag2) in rows, (notes, p)
            assert p.message or p.kind != PacketKind.SOURCE, p
            built[p.kind] += 1
            return p
        return build

    for name, (module, notes) in _BUILT_FOR.items():
        monkeypatch.setattr(module, name, checked(getattr(module, name), notes))
    return built


def _random_scenario(rng: random.Random) -> Scenario:
    topo = random_connected_topology(rng, n_max=20)
    sensors = topo.sensor_ids()
    horizon = rng.randint(30, 60)
    events = tuple(
        SenseEvent(rng.randrange(12), rng.choice(sensors), rng.choice((70.0, 95.0)))
        for _ in range(rng.randint(1, 4))
    )
    lo = rng.randint(20, 60)
    costs = CostModel(threshold=rng.randrange(lo), init_min=lo,
                      init_max=rng.randint(lo, 60))
    return make_scenario(topo, seed=rng.randrange(10_000), horizon=horizon,
                         loss_prob=rng.uniform(0.0, 0.3), events=events, costs=costs)


def _random_scenarios():
    rng = random.Random(311)
    for _ in range(RUNS):
        yield _random_scenario(rng)


def _random_runs():
    for sc in _random_scenarios():
        sim = Simulation(sc)
        sim.run()
        yield sim


def test_invariants_hold_on_random_runs(wire_built):
    seen = Counter()
    notes = set()
    for sim in _random_runs():
        trace, ledger = sim.trace, sim.ledger

        spent = Counter()
        for e in ledger.entries:
            assert e.balance >= 0
            spent[e.node_id] += e.debit
        died = Counter(nid for _, nid in trace.deaths)
        # a node dies at the debit that empties it, and only there
        assert trace.deaths == [
            (e.tick, e.node_id) for e in ledger.entries if e.balance == 0]
        for nid in sim.topology.sensor_ids():
            final = ledger.balance(nid)
            assert final >= 0
            assert trace.initial_energy[nid] - final == spent[nid]
            assert died[nid] == (1 if final == 0 else 0), nid
        assert sim.base_id not in died

        for rec in trace.incidents:
            if rec.closed:
                assert rec.close_reason
                seen[rec.close_reason] += 1
            else:  # an alarm still open at the end has a live holder
                assert sim.nodes[rec.path[-1]].energy > 0, rec
        seen["deaths"] += len(trace.deaths)
        seen["floods"] += len(trace.floods)
        notes |= {ev.note for ev in trace.packet_events}

    # the random inputs reach the states the invariants are about
    assert seen["deaths"] and seen["floods"]
    assert {"delivered", "escalated", "holder_died", "hop_cap", "base_reset"} <= set(seen)
    assert set(wire_built) == set(PacketKind)  # every kind went through the codec
    assert notes == set(NOTES)  # each note sent is a NOTES row, and each row is sent


def test_random_runs_print_their_pinned_trace_text():
    """The random runs reach every hop-line outcome, which the golden
    runs do not, so their trace text is pinned as a whole."""
    digest = hashlib.sha256()
    for sim in _random_runs():
        digest.update(render_trace(sim.trace).encode())
    assert digest.hexdigest() == RANDOM_TRACES_SHA256


def _digests(outs) -> dict[str, str]:
    """sha256 over each report file of the directories outs, in turn, by
    file name."""
    digests = {}
    for out in outs:
        for path in sorted(out.iterdir()):
            digests.setdefault(path.name, hashlib.sha256()).update(path.read_bytes())
    return {name: d.hexdigest() for name, d in digests.items()}


def _written(out, sims):
    """Write the five reports of each of sims into the directory out, as
    a single run writes them, and yield out after each."""
    for sim in sims:
        trace = sim.trace
        metrics.write_trace(out / "trace.txt", trace)
        metrics.write_ledger_csv(out / "ledger.csv", sim.ledger)
        metrics.write_energy_diff_csv(out / "energy_diff.csv",
                                      metrics.energy_diff_rows("run", trace))
        metrics.write_paths_csv(out / "paths.csv", metrics.paths_rows(trace.incidents))
        metrics.write_text(out / "summary.txt", render_summary("simulation summary", trace))
        yield out


def test_random_runs_write_their_pinned_reports(tmp_path):
    """Every report of the random runs, written as a single run writes
    them, pinned one digest per report kind."""
    assert _digests(_written(tmp_path, _random_runs())) == {
        "trace.txt": RANDOM_TRACES_SHA256, **RANDOM_REPORTS_SHA256}


_PACKET_LINE = re.compile(
    r"t= *(\d+) (query|flood|isolation alert) src=(\d+)(?: hop=(\d+))? recv=\[([\d,]*)\]")
_NOTE_OF = {"query": "regular", "flood": "flood", "isolation alert": "alert"}


def _packet_lines(text: str) -> list[tuple]:
    """(tick, note, src, hop, receivers) of every packet line in trace text."""
    out = []
    for line in text.splitlines():
        m = _PACKET_LINE.fullmatch(line)
        if m:
            tick, label, src, hop, recv = m.groups()
            out.append((int(tick), _NOTE_OF[label], int(src), int(hop or 0),
                        tuple(int(r) for r in recv.split(",") if r)))
    return out


_DEATH_LINE = re.compile(r"t= *(\d+) node (\d+) died \((\w+)\)")
_RECEIPT_LINE = re.compile(
    r"t= *(\d+) base(?: received (alarm|flood alarm): (.+)"
    r"|: (node number '\d+' became disconnected))")


def _fact_lines(text: str) -> list[tuple]:
    """("death", tick, node, cause) of every death line and
    ("receipt", tick, via, text) of every base-receipt line in trace text."""
    out = []
    for line in text.splitlines():
        if m := _DEATH_LINE.fullmatch(line):
            tick, nid, cause = m.groups()
            out.append(("death", int(tick), int(nid), cause))
        elif m := _RECEIPT_LINE.fullmatch(line):
            tick, label, quoted, alert = m.groups()
            if label:
                via = label.split()[0]  # "alarm" or "flood"
                out.append(("receipt", int(tick), via, ast.literal_eval(quoted)))
            else:
                out.append(("receipt", int(tick), "alert", alert))
    return out


_HOP_LINE = re.compile(
    r"t= *(?P<tick>\d+) hop src=(?P<holder>\d+) (?:"
    r"replies=(?P<stalled_n>\d+) -> stalled \((?P<stalled>holder died|no eligible replier)\)"
    r"|-> (?P<chosen>\d+) (?:(?P<lost>lost), retrying|\((?P<unconfirmed>confirmation lost)\)"
    r"|replies=(?P<replies>\d+) path=\[(?P<path>[\d,]*)\]))")
_HANDED_ON = ("confirmation lost", "confirmed")


def _hop_lines(text: str) -> list[tuple]:
    """(tick, holder, replies, chosen, outcome, path) of every hop line in
    trace text; replies and path are None where the line does not print
    them, chosen where the round stalled."""
    out = []
    for line in text.splitlines():
        if " hop src=" not in line:
            continue
        m = _HOP_LINE.fullmatch(line)
        assert m, line
        g = m.groupdict()
        replies = g["stalled_n"] or g["replies"]
        out.append((
            int(g["tick"]), int(g["holder"]),
            None if replies is None else int(replies),
            None if g["chosen"] is None else int(g["chosen"]),
            g["stalled"] or g["lost"] or g["unconfirmed"] or "confirmed",
            None if g["path"] is None else [int(n) for n in g["path"].split(",")],
        ))
    return out


def _hop_rounds(sim: Simulation) -> list[tuple]:
    """_hop_lines's tuple for every HopAttempt in the record, in order; a
    confirmed round's path is its incident's origin and every node the
    alarm was handed on to so far."""
    out = []
    path = {rec.incident_id: [rec.origin] for rec in sim.trace.incidents}
    for r in sim.trace.records:
        if type(r) is not HopAttempt:
            continue
        if r.outcome in _HANDED_ON:
            path[r.incident].append(r.chosen)
        shows_replies = r.outcome not in ("lost", "confirmation lost")
        out.append((r.tick, r.holder, r.replies if shows_replies else None, r.chosen,
                    r.outcome, list(path[r.incident]) if r.outcome == "confirmed" else None))
    return out


_STATE_LINE = re.compile(
    r"t= *(?P<tick>\d+) (?:sense node=(?P<node>\d+) reading=(?P<reading>\S+)"
    r" (?:ignored \(dead\)|-> flags=\(1,(?P<flag2>[01])\) mode=S)"
    r"|reset-wave depth=(?P<depth>\d+) reset=\[(?P<reset>[\d,]*)\]"
    r"|reset-wave cleanup reset=\[(?P<cleanup>[\d,]*)\]"
    r"|(?P<complete>reset-wave complete)"
    r"|(?P<listening>base: 'Network is fine')"
    r"|incident (?P<capped>\d+) undelivered \(hop cap\))")


def _ids(text: str) -> tuple[int, ...]:
    return tuple(int(n) for n in text.split(",") if n)


def _state_lines(text: str) -> list:
    """The record each sense, reset-wave, base-listening and hop-cap line
    of trace text stands for, in order: a Sense, a ResetStep, whose
    leftovers a later cleanup line and complete line of its tick fill
    in, a BaseListening, or ("hop cap", tick, incident)."""
    out = []
    cleanup = ()
    for line in text.splitlines():
        m = _STATE_LINE.fullmatch(line)
        if not m:
            continue
        g = m.groupdict()
        tick = int(g["tick"])
        if g["node"]:
            flag2 = None if g["flag2"] is None else g["flag2"] == "1"
            out.append(Sense(tick, int(g["node"]), float(g["reading"]), flag2))
        elif g["depth"]:
            out.append(ResetStep(tick, int(g["depth"]), _ids(g["reset"]), None))
        elif g["listening"]:
            out.append(BaseListening(tick))
        elif g["capped"]:
            out.append(("hop cap", tick, int(g["capped"])))
        else:  # a cleanup or complete line closes the step just printed
            assert type(out[-1]) is ResetStep and out[-1].tick == tick, line
            if g["complete"]:
                out[-1] = out[-1]._replace(leftovers=cleanup)
                cleanup = ()
            else:
                cleanup = _ids(g["cleanup"])
    return out


def _state_records(sim: Simulation) -> list:
    """_state_lines's item for every Sense, ResetStep and BaseListening in
    the record and for the last round of each incident closed hop_cap,
    in order."""
    out = []
    for r in sim.trace.records:
        if type(r) in (Sense, ResetStep, BaseListening):
            out.append(r)
        elif type(r) is HopAttempt:
            rec = sim.trace.incidents[r.incident - 1]
            if rec.close_reason == "hop_cap" and r is rec.hops[-1]:
                out.append(("hop cap", r.tick, r.incident))
    return out


def _variant(item) -> str | None:
    """Which kind of state line an item of _state_records prints."""
    if type(item) is Sense:
        return "raised sense" if item.flag2 is not None else "dead sense"
    if type(item) is ResetStep:
        if item.leftovers is not None:
            return "wave with leftovers" if item.leftovers else "wave without leftovers"
        return None
    return "base listening" if type(item) is BaseListening else "hop cap"


def test_trace_text_agrees_with_the_record():
    """Each query, flood and isolation alert line stands for one recorded
    transmission, in the same order, with the same tick, sender, hop
    count and receivers; the hop plane prints no line of its own, and
    records each hop query before the acks it drew.  Each death and
    base-receipt line stands for one Death or BaseReceipt record, in
    the same order, with the same fields.  Each hop line stands for one
    HopAttempt, the very object its incident keeps, in the same order,
    with the same tick, holder, replies, chosen node and outcome; each
    delivered incident matches one alarm receipt at the base, and each
    alarm receipt one delivered incident.  Each sense, reset-wave and
    base-listening line stands for one Sense, ResetStep or
    BaseListening, and each hop-cap line for the last round of an
    incident closed hop_cap, in the same order, with the same fields."""
    notes = Counter()
    facts = Counter()
    outcomes = Counter()
    variants = Counter()
    for sim in _random_runs():
        record = sim.trace.packet_events
        events = [(ev.tick, ev.note, ev.src, ev.hop, ev.receivers) for ev in record]
        text = render_trace(sim.trace)
        assert _packet_lines(text) == [
            ev for ev in events if ev[1] in _NOTE_OF.values()]
        notes.update(ev[1] for ev in events)
        want = [("death", *r) if type(r) is Death else ("receipt", *r)
                for r in sim.trace.records if type(r) in (Death, BaseReceipt)]
        assert _fact_lines(text) == want
        facts.update(f[0] if f[0] == "death" else f[2] for f in want)

        rounds = _hop_rounds(sim)
        assert _hop_lines(text) == rounds
        outcomes.update(r[4] for r in rounds)
        hops = [r for r in sim.trace.records if type(r) is HopAttempt]
        for rec in sim.trace.incidents:
            kept = [h for h in hops if h.incident == rec.incident_id]
            assert len(kept) == len(rec.hops)
            assert all(h is k for h, k in zip(rec.hops, kept))
        delivered = Counter(
            BaseReceipt(rec.delivery_tick, "alarm", rec.message)
            for rec in sim.trace.incidents if rec.delivery_tick is not None)
        assert delivered == Counter(
            r for r in sim.trace.records if type(r) is BaseReceipt and r.via == "alarm")
        for prev, ev in zip(record, record[1:]):
            if ev.note == "ack":
                assert prev.note in ("hop_query", "ack") and prev.tick == ev.tick
                assert (prev.src if prev.note == "hop_query" else prev.dst) == ev.dst

        states = _state_records(sim)
        assert _state_lines(text) == states
        variants.update(map(_variant, states))
    # the runs print every kind of packet line, and send hop-plane packets
    assert all(notes[n] for n in ("regular", "flood", "alert", "hop_query", "ack"))
    # ...and every kind of death and base-receipt line
    assert all(facts[f] for f in ("death", "alarm", "flood", "alert"))
    # ...and every hop outcome
    assert set(outcomes) == {"holder died", "no eligible replier", "lost",
                             "confirmation lost", "confirmed"}
    # ...and every kind of sense, reset-wave, base-listening and hop-cap line
    assert all(variants[v] for v in (
        "raised sense", "dead sense", "wave with leftovers", "wave without leftovers",
        "base listening", "hop cap"))


def test_records_hold_no_text(tmp_path, monkeypatch):
    """Every item in Trace.records, on the random runs and the golden
    runs, is one of the record types, so metrics.render_trace is the one
    writer of trace text."""
    run = engine.Simulation.run
    traces = []

    def kept(sim):
        traces.append(run(sim))
        return traces[-1]

    monkeypatch.setattr(engine.Simulation, "run", kept)
    for _ in _random_runs():
        pass
    run16 = default16_scenario_text(seed=7, horizon=20,
                                    events=((2, 10, 70), (5, 4, 95)))
    assert _reports(tmp_path / "run16", _write(tmp_path, run16)) == GOLDEN_RUN16
    assert _reports(tmp_path / "sweep", REPO / "scenarios" / "default16.scn",
                    "--sweep", "13,12,15,2,14,8,9") == GOLDEN_SWEEP16
    grid = _write(tmp_path, _grid225_text())
    assert _reports(tmp_path / "grid", grid) == GOLDEN_GRID225
    assert len(traces) == RUNS + 1 + 7 + 1
    kinds = (PacketEvent, Death, BaseReceipt, HopAttempt, Sense, ResetStep, BaseListening)
    assert {type(r) for t in traces for r in t.records} == set(kinds)


def test_golden_runs_build_only_wire_exact_packets(tmp_path, wire_built):
    """The golden runs' reports, with every packet checked on the wire."""
    run16 = default16_scenario_text(seed=7, horizon=20,
                                    events=((2, 10, 70), (5, 4, 95)))
    assert _reports(tmp_path / "run16", _write(tmp_path, run16)) == GOLDEN_RUN16
    assert _reports(tmp_path / "sweep", REPO / "scenarios" / "default16.scn",
                    "--sweep", "13,12,15,2,14,8,9") == GOLDEN_SWEEP16
    grid = _write(tmp_path, _grid225_text())
    assert _reports(tmp_path / "grid", grid) == GOLDEN_GRID225
    assert set(wire_built) == set(PacketKind)


def test_ledger_csv_matches_a_per_row_formatting(tmp_path):
    """The chunked ledger writer's bytes equal one formatted line per
    LedgerEntry on the random runs; test_golden checks the golden runs
    and the sweep the same way."""
    for i, sim in enumerate(_random_runs()):
        path = tmp_path / f"random{i}.csv"
        metrics.write_ledger_csv(path, sim.ledger)
        assert path.read_bytes() == ledger_csv_reference(sim.ledger), i


def test_entries_read_mid_run_equal_one_read_at_the_end(monkeypatch):
    """Reading the entries view after every step gives the rows that one
    read of the same cells at the end gives: each a LedgerEntry, five
    cells to a row, their debits summing to total_consumed()."""
    step = engine.Simulation.step
    reads: dict[Simulation, list] = {}

    def read_after(sim):
        step(sim)
        rows = sim.ledger.entries
        reads.setdefault(sim, []).append((len(rows), rows[-1:]))

    monkeypatch.setattr(engine.Simulation, "step", read_after)
    for _ in _random_runs():
        pass
    assert len(reads) == RUNS
    for sim, seen in reads.items():
        ledger = sim.ledger
        once = EnergyLedger(sim.nodes, list(ledger.cells)).entries
        assert ledger.entries == once
        assert all(type(e) is LedgerEntry for e in once)
        assert len(ledger.cells) == ROW_CELLS * len(once)
        assert ledger.total_consumed() == sum(e.debit for e in once)
        assert [n for n, _ in seen] == sorted(n for n, _ in seen)
        assert all(once[max(n - 1, 0):n] == last for n, last in seen)


def test_summary_units_total_is_the_summed_debits():
    for sim in _random_runs():
        text = render_summary("run", sim.trace)
        total = sum(e.debit for e in sim.ledger.entries)
        assert f"\n  total units consumed: {total}\n" in text


POCKET_RUNS = 100


def _pocket_topology(rng: random.Random) -> tuple[Topology, list[int]]:
    """A random connected layout plus a chain of 2-4 nodes, each in range
    of the one before, that no node of the layout hears: an alarm raised
    in the chain can never reach the base.  Returns the chain's ids too."""
    while True:
        topo = random_connected_topology(rng, n_max=20)
        rr = topo.radio_range * topo.radio_range
        w, h = topo.field_size

        def heard_by_layout(x, y):
            return any((x - a) ** 2 + (y - b) ** 2 <= rr for a, b in topo.nodes.values())

        for _ in range(50):
            chain = [(rng.randint(0, int(w) // GRID) * GRID, rng.randint(0, int(h) // GRID) * GRID)]
            while len(chain) < rng.randint(2, 4):
                ax, ay = chain[-1]
                ang = rng.uniform(0, 2 * math.pi)
                rad = rng.uniform(0.3, 0.9) * topo.radio_range
                chain.append((round((ax + rad * math.cos(ang)) / GRID) * GRID,
                              round((ay + rad * math.sin(ang)) / GRID) * GRID))
            if all(0 <= x <= w and 0 <= y <= h and not heard_by_layout(x, y)
                   for x, y in chain):
                break
        else:
            continue
        first = max(topo.nodes) + 1
        ids = list(range(first, first + len(chain)))
        nodes = {**topo.nodes, **{i: (float(x), float(y)) for i, (x, y) in zip(ids, chain)}}
        pocket = Topology(nodes=nodes, base_id=topo.base_id,
                          radio_range=topo.radio_range, field_size=topo.field_size)
        assert not set(ids) & set(pocket.base_hops)
        assert all(b in pocket.neighbors(a) for a, b in zip(ids, ids[1:]))
        return pocket, ids


def _pocket_scenarios():
    """The POCKET_RUNS pocket scenarios, each with its chain's ids."""
    rng = random.Random(1611)
    for _ in range(POCKET_RUNS):
        topo, chain = _pocket_topology(rng)
        sensors = topo.sensor_ids()
        events = (SenseEvent(rng.randrange(12), rng.choice(chain), 70.0),) + tuple(
            SenseEvent(rng.randrange(12), rng.choice(sensors), rng.choice((70.0, 95.0)))
            for _ in range(rng.randint(0, 3)))
        # batteries that often outlast attempt_cap rounds of bouncing
        lo = rng.randint(20, 200)
        costs = CostModel(threshold=rng.randrange(min(lo, 30)), init_min=lo,
                          init_max=rng.randint(lo, 200))
        yield make_scenario(topo, seed=rng.randrange(10_000), horizon=rng.randint(30, 60),
                            loss_prob=rng.uniform(0.0, 0.3), events=events,
                            costs=costs), chain


def _pocket_runs():
    for sc, chain in _pocket_scenarios():
        sim = Simulation(sc)
        sim.run()
        yield sim, chain


def test_pocket_runs_write_their_pinned_reports(tmp_path):
    """Every report of the pocket runs, pinned one digest per report kind."""
    pockets = (sim for sim, _ in _pocket_runs())
    assert _digests(_written(tmp_path, pockets)) == POCKET_REPORTS_SHA256


def test_no_incident_runs_more_rounds_than_attempt_cap():
    """An alarm raised out of the base's reach bounces inside its pocket
    until attempt_cap rounds close it, however those rounds ended."""
    capped_on_handover = 0
    for sim in _random_runs():
        assert all(len(rec.hops) <= sim.attempt_cap for rec in sim.trace.incidents)
    for sim, chain in _pocket_runs():
        for rec in sim.trace.incidents:
            assert len(rec.hops) <= sim.attempt_cap, rec
            if rec.close_reason == "hop_cap":
                assert len(rec.hops) == sim.attempt_cap
                capped_on_handover += rec.origin in chain and rec.hops[-1].outcome == "confirmed"
    # the pockets' alarms reach the cap on a handover, the case a cap that
    # counted only stalled and lost rounds never closed
    assert capped_on_handover


def _golden_scenarios():
    """The golden runs: run16, the paper sweep's seven runs and grid225."""
    yield parse_scenario(default16_scenario_text(seed=7, horizon=20,
                                                 events=((2, 10, 70), (5, 4, 95))))
    paper = load_scenario(REPO / "scenarios" / "default16.scn")
    for i, nid in enumerate((13, 12, 15, 2, 14, 8, 9), start=1):
        yield sweep_scenario(paper, i, nid)
    yield parse_scenario(_grid225_text())


def _golden_traces():
    for sc in _golden_scenarios():
        yield Simulation(sc).run()


def test_each_closed_incident_records_its_close_tick():
    """A closed incident's close_tick lies in [start_tick, horizon) and
    an open one has none; a delivered incident closes at its delivery
    tick, and one closed hop_cap at its last round's tick."""
    traces = itertools.chain((sim.trace for sim in _random_runs()),
                             (sim.trace for sim, _ in _pocket_runs()), _golden_traces())
    reasons = Counter()
    for trace in traces:
        for rec in trace.incidents:
            reasons[rec.close_reason] += 1
            if not rec.closed:
                assert rec.close_tick is None, rec
                continue
            assert rec.start_tick <= rec.close_tick < trace.scenario.horizon, rec
            if rec.close_reason == "delivered":
                assert rec.close_tick == rec.delivery_tick, rec
            elif rec.close_reason == "hop_cap":
                assert rec.close_tick == rec.hops[-1].tick, rec
    # open incidents, and closes for every reason
    assert set(reasons) == {"", "delivered", "escalated", "holder_died", "hop_cap", "base_reset"}


def test_no_dead_node_answers_a_hop_query():
    """A neighbour the hop query's receive price empties still heard the
    query, but a dead node sends no ack: no replier reports an empty
    battery."""
    replies = 0
    for sim in _random_runs():
        for rec in sim.trace.incidents:
            for hop in rec.hops:
                assert all(e > 0 for _, e in hop.repliers), hop
                replies += hop.replies
    assert replies


SWEEPS = 8


def _scenario_text(topo: Topology, costs: CostModel, seed: int, horizon: int,
                   loss_prob: float) -> str:
    w, h = topo.field_size
    return "\n".join([
        "[field]", f"width = {fmt_num(w)}", f"height = {fmt_num(h)}",
        f"radio_range = {fmt_num(topo.radio_range)}",
        "[nodes]", *(f"{nid} {fmt_num(x)} {fmt_num(y)}" + (" base" if nid == topo.base_id else "")
                     for nid, (x, y) in sorted(topo.nodes.items())),
        "[costs]", f"threshold = {costs.threshold}", f"init_min = {costs.init_min}",
        f"init_max = {costs.init_max}",
        "[sim]", f"seed = {seed}", f"horizon = {horizon}", f"loss_prob = {fmt_num(loss_prob)}",
        "",
    ])


def _sweep_calls():
    """(scenario text, sweep ids) of each of SWEEPS sweep-mode calls: 2-4
    sensors of a random connected layout, with small batteries and loss."""
    rng = random.Random(2711)
    for _ in range(SWEEPS):
        topo = random_connected_topology(rng, n_max=16)
        ids = rng.sample(topo.sensor_ids(), rng.randint(2, 4))
        lo = rng.randint(10, 40)
        costs = CostModel(threshold=rng.randrange(lo), init_min=lo, init_max=rng.randint(lo, 40))
        yield _scenario_text(topo, costs, rng.randrange(10_000), rng.randint(10, 30),
                             rng.choice((0, 0.05, 0.1, 0.2))), ids


def _sweep_corpus(tmp_path):
    """Run the CLI's sweep mode on each of _sweep_calls; yield each call's
    output directory."""
    for i, (text, ids) in enumerate(_sweep_calls()):
        out = tmp_path / f"sweep{i}"
        out.mkdir()
        path = _write(out, text)
        assert cli.main(["--scenario", str(path), "--sweep", ",".join(map(str, ids)),
                         "--out", str(out / "out")]) == 0
        yield out / "out"


def test_sweep_corpus_writes_its_pinned_reports(tmp_path):
    """Every report file of the sweep-mode corpus, pinned one digest per
    file name over the calls that wrote it."""
    assert _digests(_sweep_corpus(tmp_path)) == SWEEP_REPORTS_SHA256


#: a holder, its one neighbour and the base in a line; node 2 takes node
#: 3's alarm on its last units, and the reset_send it owes empties it
RESET_SEND_DEATH = """\
[field]
width = 300
height = 100
radio_range = 110
[nodes]
1 0 0 base
2 100 0
3 200 0
[costs]
threshold = 0
init_min = 4
init_max = 4
[events]
0 3 70
[sim]
seed = 1
horizon = 4
"""


def test_reset_send_death_writes_its_pinned_reports(tmp_path):
    assert _reports(tmp_path, _write(tmp_path, RESET_SEND_DEATH)) == RESET_SEND_DEATH_SHA256


def test_pinned_corpora_reach_every_note_reason_outcome_and_death(tmp_path, monkeypatch):
    """The random runs, the pocket runs, the sweep corpus and the crafted
    reset_send run together send every note, close incidents for every
    reason, end hop rounds in every outcome, lose a node to each priced
    cause, and flood over a sensor that holds an open alarm."""
    run = engine.Simulation.run
    sims = []

    def kept(sim):
        sims.append(sim)
        return run(sim)

    monkeypatch.setattr(engine.Simulation, "run", kept)
    for _ in _random_runs():
        pass
    for _ in _pocket_runs():
        pass
    for _ in _sweep_corpus(tmp_path):
        pass
    Simulation(parse_scenario(RESET_SEND_DEATH)).run()

    notes, reasons, outcomes, deaths, swept = set(), set(), set(), set(), 0
    for sim in sims:
        trace = sim.trace
        notes |= {ev.note for ev in trace.packet_events}
        outcomes |= {r.outcome for r in trace.records if type(r) is HopAttempt}
        deaths |= {r.cause for r in trace.records if type(r) is Death}
        raised = [r for r in trace.records if type(r) is Sense and r.flag2]
        for rec in trace.incidents:
            reasons.add(rec.close_reason)
            if rec.close_reason != "escalated":
                continue
            # no devastating reading reached the holder after it took
            # the alarm, so a flood rebroadcast closed it
            holder, since = rec.path[-1], rec.hops[-1].tick if rec.hops else rec.start_tick
            if not any(r.node == holder and r.tick >= since for r in raised):
                assert any(holder in f.infected_at for f in trace.floods), rec
                swept += 1
    assert notes == set(NOTES)
    assert reasons - {""} == {"delivered", "escalated", "holder_died", "hop_cap", "base_reset"}
    assert outcomes == {"holder died", "no eligible replier", "lost",
                        "confirmation lost", "confirmed"}
    assert deaths == set(PRICES)
    assert swept


def test_runs_and_reports_build_no_reference_cycles(tmp_path, capsys):
    """The three golden CLI calls past their argument parsing, and the
    random and pocket runs with all five of their reports written, leave
    nothing for the cyclic garbage collector to find."""
    (tmp_path / "grid").mkdir()
    goldens = {
        "run16": (_write(tmp_path, default16_scenario_text(
            seed=7, horizon=20, events=((2, 10, 70), (5, 4, 95)))), None, GOLDEN_RUN16),
        "sweep16": (REPO / "scenarios" / "default16.scn", "13,12,15,2,14,8,9", GOLDEN_SWEEP16),
        "grid225": (_write(tmp_path / "grid", _grid225_text()), None, GOLDEN_GRID225),
    }
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        for name, (scenario, sweep, _) in goldens.items():
            args = argparse.Namespace(scenario=str(scenario), sweep=sweep,
                                      out=str(tmp_path / name))
            assert cli._cmd_scenario(args) == 0
        for _ in _written(tmp_path, _random_runs()):
            pass
        for _ in _written(tmp_path, (sim for sim, _ in _pocket_runs())):
            pass
        unreachable = gc.collect()
    finally:
        if collecting:
            gc.enable()
    assert unreachable == 0
    for name, (_, _, golden) in goldens.items():
        assert _digests([tmp_path / name]) == golden, name
