"""Command-line entry point.

Run a scenario file and export reports:

    qcs-sim --scenario network.scn --out results/

The seed, horizon and loss probability come only from the scenario's
[sim] section.

Sweep mode runs one fresh irregular incident per listed node, each on
its own derived seed, and collects the per-run energy and path reports
side by side:

    qcs-sim --scenario network.scn --sweep 13,12,15,2,14,8,9 --out results/

A quick analytic check without any scenario:

    qcs-sim --lifetime 3000 1 0

A scenario call pauses the cyclic garbage collector from the scenario
load to the last report written, and restores the caller's setting
after: nothing a run builds is cyclic, so reference counting frees it
all, and the collector's passes over the kept records are pure cost.

Set QCS_SIM_LOG=DEBUG (or INFO, WARNING, ...) for engine logging: at
DEBUG, after each run, the log names incidents opening and closing,
floods starting and reaching the base, reset waves completing, and node
deaths, in tick order.  The simulation writes no text: these lines are
rendered from its record.  Any other value is an error.
"""

from __future__ import annotations

import argparse
import gc
import logging
import os
import sys
from pathlib import Path

from . import metrics
from .energy import joules, lifetime
from .engine import Simulation
from .numtext import fmt_num
from .packet import QUERY_ACK_SIZE, SOURCE_SIZE
from .record import Death, PacketEvent, ResetStep, Trace
from .scenario import Scenario, load_scenario, sweep_scenario


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qcs-sim",
        description="Deterministic simulator for a query/checked duty-cycled "
                    "sensor network with greedy alarm forwarding and flood broadcast.",
    )
    p.add_argument("--scenario", metavar="PATH", help="scenario file to run")
    p.add_argument("--out", metavar="DIR", default="out",
                   help="output directory for reports (default: out)")
    p.add_argument("--sweep", metavar="ID,ID,...",
                   help="comma-separated node ids; run one irregular "
                        "incident per node on fresh derived seeds")
    p.add_argument("--lifetime", nargs=3, type=float,
                   metavar=("E", "E1", "EP"),
                   help="print the analytic node lifetime for initial energy "
                        "E at per-period cost E1 + EP and exit")
    return p


def _setup_logging() -> None:
    """Log at the level QCS_SIM_LOG names, if set; a name logging does
    not know is an error."""
    name = os.environ.get("QCS_SIM_LOG", "")
    if name:
        level = logging.getLevelName(name.upper())
        if not isinstance(level, int):
            raise ValueError(f"QCS_SIM_LOG={name!r} is not a logging level name"
                             " (DEBUG, INFO, WARNING, ERROR or CRITICAL)")
        logging.basicConfig(
            level=level, format="%(levelname)s %(name)s: %(message)s"
        )


def _log_run(trace: Trace) -> None:
    """At DEBUG, log the events README "Logging" lists, rendered from a
    finished run's record in tick order.  Within a tick come incidents
    opening and floods starting, then deaths, reset waves completing and
    floods reaching the base in the order the record holds them, then
    incidents closing."""
    # the engine's logger, whatever name this module runs under
    log = logging.getLogger("qcs_sim.engine")
    if not log.isEnabledFor(logging.DEBUG):
        return
    lines = [(rec.start_tick, f"incident {rec.incident_id} opened at node {rec.origin}")
             for rec in trace.incidents]
    receipts = set()
    for flood in trace.floods:
        tick, origin = flood.origins[0]
        lines.append((tick, f"flood started at node {origin}"))
        receipts.add(flood.base_receipt_tick)
    base_id = trace.scenario.topology.base_id
    for r in trace.records:
        kind = type(r)
        if kind is Death:
            lines.append((r.tick, f"node {r.node} died ({r.cause})"))
        elif kind is ResetStep and r.leftovers is not None:
            lines.append((r.tick, "reset wave complete"))
        elif (kind is PacketEvent and r.note == "flood" and r.tick in receipts
              and base_id in r.receivers):
            # the first flood the base heard at its receipt tick delivered it
            receipts.remove(r.tick)
            lines.append((r.tick, f"flood reached the base from node {r.src}"))
    lines += [(rec.close_tick, f"incident {rec.incident_id} closed ({rec.close_reason})")
              for rec in trace.incidents if rec.close_tick is not None]
    lines.sort(key=lambda line: line[0])  # stable: the order above within a tick
    for tick, text in lines:
        log.debug("t=%d %s", tick, text)


def _cmd_lifetime(values: list[float]) -> int:
    e, e1, ep = values
    try:
        ticks = lifetime(e, e1, ep)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"initial energy: {fmt_num(e)} units")
    print(f"per-period cost: {fmt_num(e1)} radio + {fmt_num(ep)} processing units")
    print(f"lifetime: {ticks} periods")
    print(f"unit equivalents: {QUERY_ACK_SIZE}B event = "
          f"{joules(QUERY_ACK_SIZE)} mJ, {SOURCE_SIZE}B event = "
          f"{joules(SOURCE_SIZE)} mJ")
    return 0


def _sweep_ids(arg: str, sc: Scenario) -> list[int]:
    try:
        ids = [int(tok) for tok in arg.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--sweep expects comma-separated integers, got {arg!r}")
    if not ids:
        raise ValueError("--sweep lists no node ids")
    for nid in ids:
        if nid not in sc.topology.nodes:
            raise ValueError(f"--sweep names unknown node {nid}")
        if nid == sc.topology.base_id:
            raise ValueError("--sweep cannot target the base station")
    return ids


def _cmd_run(sc: Scenario, out: Path) -> int:
    sim = Simulation(sc)
    trace = sim.run()
    _log_run(trace)
    metrics.write_trace(out / "trace.txt", trace)
    metrics.write_ledger_csv(out / "ledger.csv", sim.ledger)
    metrics.write_energy_diff_csv(
        out / "energy_diff.csv",
        metrics.energy_diff_rows("run", trace),
    )
    metrics.write_paths_csv(out / "paths.csv", metrics.paths_rows(trace.incidents))
    summary = metrics.render_summary("simulation summary", trace)
    metrics.write_text(out / "summary.txt", summary)
    print(f"ran {sc.horizon} ticks, {len(trace.incidents)} incident(s), "
          f"{len(trace.floods)} flood(s)")
    print(f"base: {trace.base.message!r}")
    print(f"reports written to {out}")
    return 0


def _cmd_sweep(sc: Scenario, ids: list[int], out: Path) -> int:
    energy_rows = []
    path_rows = []
    trace_parts = []
    summary_parts = ["incident sweep", "==============", ""]
    for i, nid in enumerate(ids, start=1):
        label = f"irregular{i}"
        sim = Simulation(sweep_scenario(sc, i, nid))
        trace = sim.run()
        _log_run(trace)
        rec = trace.incidents[0]
        energy_rows.extend(metrics.energy_diff_rows(label, trace))
        path_rows.extend(metrics.paths_rows([rec], labels=[label]))
        metrics.write_ledger_csv(out / f"ledger_{label}.csv", sim.ledger)
        trace_parts.append(f"== {label} (source node {nid}) ==")
        trace_parts.append(metrics.render_trace(trace))
        summary_parts.append(metrics.render_sweep_entry(label, nid, trace))
        status = (
            f"delivered in {len(rec.path)} nodes" if rec.delivery_tick is not None
            else f"undelivered ({rec.close_reason or 'open'})"
        )
        print(f"{label}: node {nid} -> {status}, "
              f"comparisons={rec.comparisons}")

    metrics.write_energy_diff_csv(out / "energy_diff.csv", energy_rows)
    metrics.write_paths_csv(out / "paths.csv", path_rows)
    metrics.write_text(out / "trace.txt", "\n".join(trace_parts))
    metrics.write_text(out / "summary.txt", "\n".join(summary_parts) + "\n")
    print(f"reports written to {out}")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    try:
        sc = load_scenario(args.scenario)
        ids = _sweep_ids(args.sweep, sc) if args.sweep is not None else None
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"error: cannot create output directory {out}: "
              f"{err.strerror or err}", file=sys.stderr)
        return 1
    try:
        if ids is not None:
            return _cmd_sweep(sc, ids, out)
        return _cmd_run(sc, out)
    except OSError as err:  # a report file that cannot be written
        print(f"error: cannot write {err.filename or out}: "
              f"{err.strerror or err}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    try:
        _setup_logging()
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.lifetime is not None:
        return _cmd_lifetime(args.lifetime)

    if not args.scenario:
        parser.print_usage(sys.stderr)
        print("error: --scenario is required (or use --lifetime)", file=sys.stderr)
        return 2

    collecting = gc.isenabled()
    gc.disable()
    try:
        return _cmd_scenario(args)
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
