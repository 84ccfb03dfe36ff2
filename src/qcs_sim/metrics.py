"""Report writers: trace text, ledger/energy/path CSVs, run summary.

All outputs are deterministic byte for byte: fixed column order, LF
line endings, and number formatting that never depends on locale.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .energy import EnergyLedger, joules
from .engine import IncidentRecord, PacketEvent, Trace, _ids
from .node import NodeState
from .numtext import fmt_num


def _open_csv(path: Path):
    return open(path, "w", encoding="utf-8", newline="")


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def write_trace(path: str | Path, trace: Trace) -> None:
    write_text(path, trace.render())


def write_ledger_csv(path: str | Path, ledger: EnergyLedger) -> None:
    """One row per debit: tick, node_id, cause, debit, balance."""
    with _open_csv(Path(path)) as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["tick", "node_id", "cause", "debit", "balance"])
        for e in ledger.entries:
            w.writerow([e.tick, e.node_id, e.cause, e.debit, fmt_num(e.balance, "Inf")])


def energy_diff_rows(label: str, initial_energy: dict[int, float],
                     ledger: EnergyLedger,
                     sensor_ids: list[int]) -> list[tuple[str, int, int]]:
    """Per-sensor consumption over a full pass: initial minus final."""
    rows = []
    for nid in sensor_ids:
        consumed = int(initial_energy[nid] - ledger.balance(nid))
        rows.append((label, nid, consumed))
    return rows


def write_energy_diff_csv(path: str | Path,
                          rows: list[tuple[str, int, int]]) -> None:
    with _open_csv(Path(path)) as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["run", "node_id", "consumed_units"])
        for label, nid, consumed in rows:
            w.writerow([label, nid, consumed])


def paths_rows(incidents: list[IncidentRecord],
               labels: list[str] | None = None) -> list[tuple[str, int, int]]:
    """(incident, path node count, comparisons) rows, one per incident."""
    out = []
    for i, rec in enumerate(incidents):
        label = labels[i] if labels is not None else str(rec.incident_id)
        out.append((label, rec.path_nodes, rec.comparisons))
    return out


def write_paths_csv(path: str | Path, rows: list[tuple[str, int, int]]) -> None:
    with _open_csv(Path(path)) as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["incident", "path_nodes", "comparisons"])
        for label, nodes, comparisons in rows:
            w.writerow([label, nodes, comparisons])


def total_radio_millijoules(events: list[PacketEvent]) -> float:
    """Physical cost of every send and receive in the packet log."""
    total = 0.0
    for ev in events:
        total += (1 + len(ev.receivers)) * joules(ev.kind.size)
    return total


def render_base_record(base: NodeState) -> list[str]:
    """The base station's state as labeled lines."""
    x, y = base.pos
    return [
        "    id: 'BASE STATION'",
        f"    energy: {fmt_num(base.energy, 'Inf')}",
        f"    loc: [{fmt_num(x, 'Inf')} {fmt_num(y, 'Inf')}]",
        f"    flag1: {int(base.flag1)}",
        f"    flag2: {int(base.flag2)}",
        f"    mode: '{base.mode}'",
        f"    msg: '{base.message}'",
    ]


def render_incident(rec: IncidentRecord) -> str:
    status = (
        f"delivered t={rec.delivery_tick}" if rec.delivered
        else f"undelivered ({rec.close_reason or 'open'})"
    )
    return (
        f"  {rec.incident_id}: origin={rec.origin} start=t{rec.start_tick}"
        f" path={_ids(rec.path)} nodes={rec.path_nodes}"
        f" comparisons={rec.comparisons} {status}"
    )


def render_summary(title: str, trace: Trace, ledger: EnergyLedger,
                   sensor_ids: list[int]) -> str:
    """Human-readable run summary including the base station record."""
    lines = [title, "=" * len(title), ""]
    lines.append("base station")
    lines.extend(render_base_record(trace.base))
    lines.append("")

    lines.append("base inbox")
    if trace.base_inbox:
        for tick, msg in trace.base_inbox:
            lines.append(f"  t={tick} '{msg}'")
    else:
        lines.append("  (empty)")
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

    lines.append("energy")
    lines.append(f"  total units consumed: {ledger.total_consumed()}")
    mj = total_radio_millijoules(trace.packet_events)
    lines.append(f"  total radio energy: {mj:.4f} mJ")
    consumed = " ".join(
        f"{nid}={int(trace.initial_energy[nid] - ledger.balance(nid))}"
        for nid in sensor_ids
    )
    lines.append(f"  consumed per node: {consumed}")
    lines.append("")

    if trace.deaths:
        lines.append(
            "deaths: " + " ".join(f"{nid}@t{t}" for t, nid in trace.deaths)
        )
    else:
        lines.append("deaths: none")
    lines.append("")
    return "\n".join(lines)
