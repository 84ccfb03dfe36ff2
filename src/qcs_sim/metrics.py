"""Report writers: trace text, ledger/energy/path CSVs, run summary,
each rendered from a run's ``record.Trace``; no other module formats them.

All outputs are deterministic byte for byte: fixed column order, LF
line endings, and number formatting that never depends on locale.

The CSVs are written as plain comma-joined rows, streamed one row at a
time, or for ``ledger.csv`` one chunk of rows per format call: no field
can need quoting, since causes, labels and numbers never hold a comma,
a quote or a newline.  CSV energy is whole units; only the summary
prints the base's infinite supply, as ``Inf``.
"""

from __future__ import annotations

from pathlib import Path

from .energy import ROW_CELLS, EnergyLedger, joules
from .node import MODE_C, MODE_Q, NodeState
from .numtext import fmt_ids, fmt_num
from .record import (
    HANDED_ON, NETWORK_FINE, NOTES, BaseReceipt, Death, HopAttempt, IncidentRecord,
    PacketEvent, ResetStep, Sense, Trace,
)


def _write_csv(path: str | Path, header: str, rows) -> None:
    """The header line, then each already formatted row."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(header + "\n")
        f.writelines(rows)


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def write_trace(path: str | Path, trace: Trace) -> None:
    write_text(path, render_trace(trace))


#: the trace label of a broadcast line, by its note; the hop plane's
#: transmissions print none, since their HopAttempt line tells the round
_BROADCAST_LABEL = {"regular": "query", "flood": "flood", "alert": "isolation alert"}
#: the trace line of a base receipt, by the way the base heard it
_RECEIPT_LINE = {"alarm": "base received alarm: {!r}",
                 "flood": "base received flood alarm: {!r}", "alert": "base: {}"}
#: the trace line of a hop round, by its outcome, given the round and the
#: incident's path so far
_HOP_LINE = {
    "holder died": "hop src={0.holder} replies={0.replies} -> stalled ({0.outcome})",
    "no eligible replier": "hop src={0.holder} replies={0.replies} -> stalled ({0.outcome})",
    "lost": "hop src={0.holder} -> {0.chosen} lost, retrying",
    "confirmation lost": "hop src={0.holder} -> {0.chosen} (confirmation lost)",
    "confirmed": "hop src={0.holder} -> {0.chosen} replies={0.replies} path={1}",
}


def render_trace(trace: Trace) -> str:
    """The text of ``trace.txt``: three ``init:`` lines, then the
    ``t=NNN`` lines of the records in order (query, flood and
    isolation-alert broadcasts, deaths, base receipts, hop rounds,
    senses, reset-wave steps, the base's return to listening; the
    hop plane's transmissions print none), then ``end: balances``
    from the final node states.

    The ``t=NNN`` head is formatted once per tick.  A broadcast
    line's text after it is formatted once per (note, src, hop,
    receivers) and reused within this call, since a sender with the
    same audience repeats it tick after tick.
    """
    sc = trace.scenario
    topo = sc.topology
    w, h = topo.field_size
    q = sorted(n for n, m in trace.modes.items() if m == MODE_Q)
    c = sorted(n for n, m in trace.modes.items() if m == MODE_C)
    lines = [
        f"init: field={fmt_num(w)}x{fmt_num(h)} range={fmt_num(topo.radio_range)}"
        f" nodes={len(topo.nodes)} base={topo.base_id} seed={sc.seed}"
        f" loss={fmt_num(sc.loss_prob)}",
        f"init: modes Q={fmt_ids(q)} C={fmt_ids(c)}",
        "init: energy "
        + " ".join(f"{n}={fmt_num(e)}" for n, e in trace.initial_energy.items()),
    ]
    paths = [[rec.origin] for rec in trace.incidents]  # each incident's path so far
    tails: dict[tuple[str, int, int, tuple[int, ...]], str] = {}
    tick = None
    for r in trace.records:
        if r.tick != tick:  # records come in tick order: once per tick
            tick = r.tick
            head = f"t={tick:>3} "
        # most records are transmissions, and most of those print nothing
        if type(r) is PacketEvent:
            label = _BROADCAST_LABEL.get(r.note)
            if label is not None:
                key = (r.note, r.src, r.hop, r.receivers)
                tail = tails.get(key)
                if tail is None:
                    hop = f" hop={r.hop}" if r.note == "flood" else ""
                    tail = tails[key] = f"{label} src={r.src}{hop} recv={fmt_ids(r.receivers)}"
                lines.append(head + tail)
            continue
        if type(r) is Death:
            lines.append(f"{head}node {r.node} died ({r.cause})")
        elif type(r) is BaseReceipt:
            lines.append(head + _RECEIPT_LINE[r.via].format(r.text))
        elif type(r) is HopAttempt:  # incidents are numbered from 1
            rec = trace.incidents[r.incident - 1]
            path = paths[r.incident - 1]
            if r.outcome in HANDED_ON:
                path.append(r.chosen)
            lines.append(head + _HOP_LINE[r.outcome].format(r, fmt_ids(path)))
            if rec.close_reason == "hop_cap" and r is rec.hops[-1]:
                lines.append(f"{head}incident {r.incident} undelivered (hop cap)")
        elif type(r) is Sense:
            sensed = f"{head}sense node={r.node} reading={fmt_num(r.reading)}"
            if r.flag2 is None:
                lines.append(f"{sensed} ignored (dead)")
            else:
                lines.append(f"{sensed} -> flags=(1,{int(r.flag2)}) mode=S")
        elif type(r) is ResetStep:
            lines.append(f"{head}reset-wave depth={r.depth} reset={fmt_ids(r.reset)}")
            if r.leftovers:
                lines.append(f"{head}reset-wave cleanup reset={fmt_ids(r.leftovers)}")
            if r.leftovers is not None:
                lines.append(f"{head}reset-wave complete")
        else:  # BaseListening
            lines.append(f"{head}base: {NETWORK_FINE!r}")
    lines.append("end: balances " + " ".join(
        f"{n}={fmt_num(s.energy)}" for n, s in trace.nodes.items()))
    return "\n".join(lines) + "\n"


#: ledger rows formatted by one % call; a bound on the writer's transient
#: memory, which one call over every row would double
_LEDGER_CHUNK = 2048
_LEDGER_ROW = "%s,%s,%s,%s,%s\n"


def write_ledger_csv(path: str | Path, ledger: EnergyLedger) -> None:
    """One row per debit: tick, node_id, cause, debit, balance.  Every cell
    but the cause is an int, so one % formats each chunk of rows."""
    cells, step = ledger.cells, ROW_CELLS * _LEDGER_CHUNK
    chunks = (tuple(cells[i:i + step]) for i in range(0, len(cells), step))
    _write_csv(path, "tick,node_id,cause,debit,balance",
               (_LEDGER_ROW * (len(c) // ROW_CELLS) % c for c in chunks))


def energy_diff_rows(label: str, trace: Trace) -> list[tuple[str, int, int]]:
    """Per-sensor consumption over a full pass, initial minus final, in
    ascending id order."""
    return [
        (label, nid, trace.initial_energy[nid] - n.energy)
        for nid, n in trace.nodes.items() if not n.is_base
    ]


def write_energy_diff_csv(path: str | Path,
                          rows: list[tuple[str, int, int]]) -> None:
    _write_csv(path, "run,node_id,consumed_units", (
        f"{label},{nid},{consumed}\n" for label, nid, consumed in rows
    ))


def paths_rows(incidents: list[IncidentRecord],
               labels: list[str] | None = None) -> list[tuple[str, int, int]]:
    """(incident, path node count, comparisons) rows, one per incident."""
    out = []
    for i, rec in enumerate(incidents):
        label = labels[i] if labels is not None else str(rec.incident_id)
        out.append((label, len(rec.path), rec.comparisons))
    return out


def write_paths_csv(path: str | Path, rows: list[tuple[str, int, int]]) -> None:
    _write_csv(path, "incident,path_nodes,comparisons", (
        f"{label},{nodes},{comparisons}\n" for label, nodes, comparisons in rows
    ))


#: millijoules for one send or receive, by note: the price of its packet kind
_MJ_PER_EVENT = {note: joules(n.kind.size) for note, n in NOTES.items()}


def total_radio_millijoules(events: list[PacketEvent]) -> float:
    """Physical cost of every send and receive in the packet log."""
    mj = _MJ_PER_EVENT
    total = 0.0
    for ev in events:
        total += (1 + len(ev.receivers)) * mj[ev.note]
    return total


def render_base_record(base: NodeState) -> list[str]:
    """The base station's state as labeled lines."""
    x, y = base.pos
    return [
        "    id: 'BASE STATION'",
        f"    energy: {fmt_num(base.energy, 'Inf')}",
        f"    loc: [{fmt_num(x)} {fmt_num(y)}]",
        f"    flag1: {int(base.flag1)}",
        f"    flag2: {int(base.flag2)}",
        f"    mode: '{base.mode}'",
        f"    msg: '{base.message}'",
    ]


def render_incident(rec: IncidentRecord) -> str:
    status = (
        f"delivered t={rec.delivery_tick}" if rec.delivery_tick is not None
        else f"undelivered ({rec.close_reason or 'open'})"
    )
    return (
        f"  {rec.incident_id}: origin={rec.origin} start=t{rec.start_tick}"
        f" path={fmt_ids(rec.path)} nodes={len(rec.path)}"
        f" comparisons={rec.comparisons} {status}"
    )


def render_sweep_entry(label: str, nid: int, trace: Trace) -> str:
    """One sweep run's part of summary.txt: its incident and the base."""
    return "\n".join([f"{label}: source node {nid}", render_incident(trace.incidents[0]),
                      *render_base_record(trace.base), ""])


def render_summary(title: str, trace: Trace) -> str:
    """Human-readable run summary including the base station record."""
    lines = [title, "=" * len(title), ""]
    lines.append("base station")
    lines.extend(render_base_record(trace.base))
    lines.append("")

    lines.append("base inbox")
    inbox = [f"  t={tick} '{msg}'" for tick, msg in trace.base_inbox]
    lines.extend(inbox or ["  (empty)"])
    lines.append("")

    lines.append("incidents")
    if trace.incidents:
        for rec in trace.incidents:
            lines.append(render_incident(rec))
    else:
        lines.append("  (none)")
    lines.append("")

    if trace.floods:
        lines.append("floods")
        for fl in trace.floods:
            origins = ",".join(f"{n}@t{t}" for t, n in fl.origins)
            receipt = (
                f"base_receipt=t{fl.base_receipt_tick}"
                if fl.base_receipt_tick is not None else "base_receipt=never"
            )
            done = (
                f"reset_complete=t{fl.completed_tick}"
                if fl.completed_tick is not None else "reset_complete=never"
            )
            lines.append(
                f"  origins=[{origins}] infected={len(fl.infected_at)}"
                f" {receipt} {done}"
            )
        lines.append("")

    # initial minus final is each sensor's summed debits, so the units
    # total needs no walk over the ledger's rows
    per_node = energy_diff_rows("", trace)
    lines.append("energy")
    lines.append(f"  total units consumed: {sum(units for _, _, units in per_node)}")
    mj = total_radio_millijoules(trace.packet_events)
    lines.append(f"  total radio energy: {mj:.4f} mJ")
    consumed = " ".join(f"{nid}={units}" for _, nid, units in per_node)
    lines.append(f"  consumed per node: {consumed}")
    lines.append("")

    deaths = " ".join(f"{nid}@t{t}" for t, nid in trace.deaths)
    lines.append(f"deaths: {deaths or 'none'}")
    lines.append("")
    return "\n".join(lines)
