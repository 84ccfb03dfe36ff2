"""Report writers: trace text, ledger/energy/path CSVs, run summary.

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
from .node import NodeState
from .numtext import fmt_ids, fmt_num
from .record import NOTES, IncidentRecord, PacketEvent, Trace


def _write_csv(path: str | Path, header: str, rows) -> None:
    """The header line, then each already formatted row."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(header + "\n")
        f.writelines(rows)


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def write_trace(path: str | Path, trace: Trace) -> None:
    write_text(path, render_trace(trace))


def render_trace(trace: Trace) -> str:
    """One run's trace.txt text; every CLI path renders a trace here."""
    return trace.render()


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
