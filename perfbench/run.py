"""qcs-sim benchmark: host time and memory end to end, and a layer trace.

    python3 perfbench/run.py --workload grid225_lifetime --seed 1 --seconds 50 --trace 0

The benchmark drives the public API in this one process and thread: it
calls ``qcs_sim.cli.main`` on scenario files it generates from the seed
(see workloads.py), one call at a time (closed loop, one client) until
the time is up, cycling through the seed's realizations.  Light hooks on
the names ``cli.main`` looks up (``load_scenario`` and ``Simulation``)
split each call into set-up and tick loop, time each tick, and keep the
returned ``Trace`` and ``EnergyLedger`` for the output checks.

Other tenants of a shared machine slow whole stretches of a run, by half
at times, so a realization's cost is its best repeat: its fastest call,
and tick by tick the fastest repeat of each tick.  Each metric is taken
per realization and reported as the median over realizations.

--trace 0 reports the end-to-end metrics:
    wall_s         host seconds of one cli.main call, scenario read to
                   last report closed (on sweep16_paper one call is one
                   --sweep of the paper's 15 incidents)
    setup_s        load_scenario plus every Simulation(...) construction
                   of one call (15 on sweep16_paper), up to tick 0
    debits_per_s   ledger rows / tick-loop seconds, the loop timed tick
                   by tick (each tick at its best repeat)
    peak_rss_mb    peak resident memory of a fresh process running one
                   realization once (rss_child.py), without tracemalloc;
                   one process per realization, the first four at most
    tick_p50_ms    median host latency of the simulated ticks of a call
    tick_tail_ms   the highest percentile of those tick latencies with at
                   least ten ticks beyond it; the percentile and the tick
                   count are printed above the result line.  Garbage-
                   collector pauses land on different ticks in each
                   repeat, so they drop out here and count in wall_s.
Each call's timings go to .perfbench-work/<workload>/calls.json.

--trace 1 reports the per-layer metrics from separate passes: untraced
and traced calls in pairs on realization 0 (outputs must match byte for
byte), then one tracemalloc call.  End-to-end numbers never come from
traced calls.  The spans go to .perfbench-work/<workload>/spans.bin.

Every call is checked: its exit code, the engine invariants, and the
sha256 of all its reports against digests.json, which pins every
realization of workload seeds 0..31 (pin.py); an unpinned realization
must repeat the digest of its first call.  A call that fails any check
counts in ``failed``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without the program (src/qcs_sim) or its scenarios the benchmark exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from contextlib import ExitStack, contextmanager
from pathlib import Path

from tracer import RunRollup, Tracer, layer_targets, patched, public_functions
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench-work"
DIGESTS = BENCH / "digests.json"
TAIL_BEYOND = 10
TRACED_PAIRS = 3  # untraced/traced pairs per --trace 1 run, time allowing
RSS_PROCESSES = 4  # fresh processes per run for peak_rss_mb, one realization each

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "debits_per_s": "1/s",
    "peak_rss_mb": "MB",
    "tick_p50_ms": "ms",
    "tick_tail_ms": "ms",
}

# layer: which of calls / s (inclusive) / self_s to report.  The groups
# say which end-to-end metric each layer should move, and where.
_TIMED_LAYERS = {
    # regular polling and the ledger: debits_per_s, wall_s and tick_p50_ms,
    # most on grid225_lifetime, then sweep16_paper
    "energy.debit": ("calls", "s"),
    "engine.step": ("self_s",),
    "engine.step_regular": ("calls", "self_s"),
    "node.handle_query": ("calls", "s"),
    "packet.make_query": ("calls",),
    "node.isolation_check": ("s",),
    "node.tick_transition": ("s",),
    # floods and reset waves (with engine.flood_yield_ratio): wall_s and
    # tick_tail_ms on grid225_lifetime (one flood); none on sweep16_paper
    "engine.run_petrol_flow": ("calls", "self_s"),
    "engine.base_reset": ("calls", "self_s"),
    "node.handle_source": ("calls", "s"),
    "packet.make_source": ("calls",),
    # forwarding (with engine.hop_accept_ratio): wall_s on sweep16_paper
    "engine.run_irregular_transfer": ("calls", "self_s"),
    # set-up (with topology.edges): setup_s everywhere, wall_s on
    # sweep16_paper
    "scenario.load_scenario": ("self_s",),
    "topology.load_layout": ("s",),
    "node.init_modes": ("s",),
    "energy.draw_initial_energy": ("s",),
    "engine.init": ("self_s",),
    # report writers (with metrics.other_writers.s, metrics.bytes_written):
    # wall_s on grid225_lifetime (ledger.csv) and sweep16_paper (18 files)
    "metrics.write_ledger_csv": ("s",),
    "metrics.write_trace": ("s",),
    "metrics.render_summary": ("s",),
}
# The counts and tracemalloc peaks below are for peak_rss_mb.
_UNITS = {"calls": "count", "s": "s", "self_s": "s"}

PER_LAYER = {f"{layer}.{kind}": _UNITS[kind]
             for layer, kinds in _TIMED_LAYERS.items() for kind in kinds}
PER_LAYER.update({
    "engine.flood_yield_ratio": "ratio",
    "engine.hop_accept_ratio": "ratio",
    "topology.edges": "count",
    "metrics.other_writers.s": "s",
    "metrics.bytes_written": "bytes",
    "engine.packet_events": "count",
    "engine.trace_lines": "count",
    "engine.deaths": "count",
    "energy.ledger_rows": "count",
    "engine.packet_events_per_s": "1/s",
    "engine.run.peak_alloc_mb": "MB",
    "metrics.peak_alloc_mb": "MB",
    "trace.overhead_ratio": "ratio",
})


class MissingProgram(Exception):
    """The checkout holds no runnable qcs-sim."""


def import_program():
    """The qcs_sim modules from src/ of this checkout."""
    if not (ROOT / "src" / "qcs_sim" / "cli.py").is_file():
        raise MissingProgram(f"no qcs-sim sources under {ROOT / 'src'}")
    if not (ROOT / "scenarios" / "default16.scn").is_file():
        raise MissingProgram("scenarios/default16.scn is missing")
    sys.path.insert(0, str(ROOT / "src"))
    from qcs_sim import cli, energy, engine, metrics, scenario
    return cli, scenario, engine, energy, metrics


# ---------------------------------------------------------------- checks

def invariant_errors(trace, ledger) -> list[str]:
    """The engine invariants, checked on the returned Trace and EnergyLedger:
    initial minus final equals the summed debits, no balance below zero,
    each node dies at most once, every closed incident has a reason."""
    errors = []
    spent: dict[int, int] = {}
    low = math.inf
    for e in ledger.entries:
        spent[e.node_id] = spent.get(e.node_id, 0) + e.debit
        low = min(low, e.balance)
    if low < 0:
        errors.append(f"a ledger balance fell to {low}")
    for nid, initial in trace.initial_energy.items():
        final = ledger.balance(nid)
        if final < 0:
            errors.append(f"node {nid} ends below zero ({final})")
        if initial != math.inf and initial - final != spent.get(nid, 0):
            errors.append(f"node {nid}: initial - final = {initial - final}"
                          f" but debits sum to {spent.get(nid, 0)}")
    dead = [nid for _, nid in trace.deaths]
    if len(dead) != len(set(dead)):
        errors.append("a node died more than once")
    for rec in trace.incidents:
        if rec.closed and not rec.close_reason:
            errors.append(f"incident {rec.incident_id} closed without a reason")
    return errors


def report_digest(out: Path) -> str:
    """sha256 over the name and the sha256 of every report in out."""
    h = hashlib.sha256()
    for p in sorted(out.glob("*")):
        h.update(f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n".encode())
    return h.hexdigest()


# ----------------------------------------------------------------- hooks

class Capture:
    """Hooks on the two names cli.main calls to set up a run.

    They time load_scenario and every Simulation construction, time each
    tick loop (and each tick, when given a list), and keep every run's
    Trace and EnergyLedger.  With ``alloc`` they read tracemalloc's peak
    over each tick loop.
    """

    def __init__(self, cli, ticks: list[float] | None = None, alloc: bool = False):
        self.cli = cli
        self.ticks = ticks
        self.alloc = alloc
        self.setup_s = 0.0
        self.loop_s = 0.0
        self.run_peak = 0
        self.scenarios = []
        self.results = []  # (trace, ledger) per Simulation

    @contextmanager
    def active(self):
        load, make = self.cli.load_scenario, self.cli.Simulation

        def load_scenario(path):
            t0 = time.perf_counter()
            sc = load(path)
            self.setup_s += time.perf_counter() - t0
            self.scenarios.append(sc)
            return sc

        def simulation(*args, **kwargs):
            t0 = time.perf_counter()
            sim = make(*args, **kwargs)
            self.setup_s += time.perf_counter() - t0
            self._hook(sim)
            return sim

        with patched(self.cli, "load_scenario", load_scenario), \
                patched(self.cli, "Simulation", simulation):
            yield self

    def _hook(self, sim) -> None:
        run, step = sim.run, sim.step

        def timed_run():
            if self.alloc:
                tracemalloc.reset_peak()
            t0 = time.perf_counter()
            trace = run()
            self.loop_s += time.perf_counter() - t0
            if self.alloc:
                self.run_peak = max(self.run_peak, tracemalloc.get_traced_memory()[1])
            self.results.append((trace, sim.ledger))
            return trace

        sim.run = timed_run
        if self.ticks is not None:
            ticks = self.ticks

            def timed_step():
                t0 = time.perf_counter()
                step()
                ticks.append(time.perf_counter() - t0)

            sim.step = timed_step


@contextmanager
def writer_peaks(metrics, peaks: list[int]):
    """Record tracemalloc's peak over each outermost qcs_sim.metrics call."""
    depth = [0]

    def watch(fn):
        def watched(*args, **kwargs):
            if depth[0] == 0:
                tracemalloc.reset_peak()
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    peaks.append(tracemalloc.get_traced_memory()[1])
        return watched

    with ExitStack() as stack:
        for name in public_functions(metrics):
            stack.enter_context(patched(metrics, name, watch(vars(metrics)[name])))
        yield


# ------------------------------------------------------------------- run

class Op:
    """What one cli.main call measured; keeps numbers, not the run's data."""

    def __init__(self, wall_s: float, cap: Capture, out: Path):
        traces = [t for t, _ in cap.results]
        topo = cap.scenarios[0].topology if cap.scenarios else None
        self.wall_s = wall_s
        self.setup_s = cap.setup_s
        self.loop_s = cap.loop_s
        self.rows = sum(len(ledger.entries) for _, ledger in cap.results)
        self.packet_events = sum(len(t.packet_events) for t in traces)
        self.deaths = sum(len(t.deaths) for t in traces)
        self.accepted_hops = sum(len(r.path) - 1 for t in traces for r in t.incidents)
        self.flood_infections = sum(
            len(set(fl.infected_at) - {n for _, n in fl.origins})
            for t in traces for fl in t.floods
        )
        self.edges = sum(len(topo.neighbors(n)) for n in topo.nodes) // 2 if topo else 0
        self.bytes_written = sum(p.stat().st_size for p in out.glob("*"))
        trace_txt = out / "trace.txt"
        self.trace_lines = trace_txt.read_bytes().count(b"\n") if trace_txt.is_file() else 0


class Bench:
    """One workload seed: its scenario files, expected digests and tallies."""

    def __init__(self, workload: Workload, seed: int, program):
        self.w = workload
        self.cli, self.scenario, self.engine, self.energy, self.metrics = program
        self.work = WORK / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.seeds = workload.scenario_seeds(seed)
        self.paths = []
        for s in self.seeds:
            p = self.work / f"{s}.scn"
            p.write_text(workload.scenario_text(s, ROOT), encoding="utf-8")
            self.paths.append(p)
        pinned = json.loads(DIGESTS.read_text()).get(workload.name, {})
        self.expected = {s: pinned[str(s)] for s in self.seeds if str(s) in pinned}
        self.attempted = 0
        self.failed = 0

    def args(self, j: int, out: Path) -> list[str]:
        return self.w.cli_args(self.paths[j], out)

    def check(self, j: int, out: Path, code, results) -> None:
        """Count one call as attempted and, if any check fails, as failed."""
        s = self.seeds[j]
        errors = [] if code == 0 else [f"exit code {code}"]
        if results is not None and not results:
            errors.append("no simulation ran")
        digest = report_digest(out)
        want = self.expected.setdefault(s, digest)
        if digest != want:
            errors.append(f"reports in {out} have digest {digest}, want {want}")
        for trace, ledger in results or ():
            errors += invariant_errors(trace, ledger)
        self.attempted += 1
        if errors:
            self.failed += 1
            for e in errors:
                print(f"check failed ({self.w.name}, scenario seed {s}): {e}",
                      file=sys.stderr)

    def call(self, j: int, ticks=None, tracer=None, alloc_peaks=None) -> Op:
        """One checked cli.main call on realization j."""
        out = self.work / f"out{j}"
        shutil.rmtree(out, ignore_errors=True)
        cap = Capture(self.cli, ticks, alloc=alloc_peaks is not None)
        gc.collect()
        with ExitStack() as stack:
            if tracer is not None:
                targets = layer_targets(self.cli, self.scenario, self.engine,
                                        self.energy, self.metrics)
                stack.enter_context(tracer.active(targets))
            stack.enter_context(cap.active())
            if alloc_peaks is not None:
                tracemalloc.start()
                stack.callback(tracemalloc.stop)
                stack.enter_context(writer_peaks(self.metrics, alloc_peaks))
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            t0 = time.perf_counter()
            try:
                code = self.cli.main(self.args(j, out))
            except Exception:  # a crash is a failed call, not a failed benchmark
                traceback.print_exc(file=sys.stderr)
                code = "exception"
            wall = time.perf_counter() - t0
        if alloc_peaks is not None:
            alloc_peaks.append(cap.run_peak)
        self.check(j, out, code, cap.results)
        return Op(wall, cap, out)

    def rss_child(self, j: int) -> float:
        """Peak RSS (MB) of a fresh process running realization j once."""
        out = self.work / f"rss{j}"
        shutil.rmtree(out, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "rss_child.py"), *self.args(j, out)],
            capture_output=True, text=True, timeout=60, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            self.check(j, out, f"child exit {proc.returncode}", None)
            return 0.0
        result = json.loads(proc.stdout.splitlines()[-1])
        self.check(j, out, result["exit"], None)
        return result["maxrss_kib"] / 1024

    # ------------------------------------------------------------ passes

    def end_to_end(self, seconds: float) -> dict[str, float]:
        """Repeat calls, cycling through the realizations, until time is up;
        each realization's cost is its best repeat (see the module doc)."""
        deadline = time.perf_counter() + seconds
        reals = len(self.paths)
        peak_rss_mb = statistics.median(
            self.rss_child(j) for j in range(min(RSS_PROCESSES, reals)))
        best_wall: dict[int, float] = {}
        best_setup: dict[int, float] = {}
        best_ticks: dict[int, list[float]] = {}
        rows: dict[int, int] = {}
        spent: list[float] = []
        log = []
        while (len(log) < 2 * reals  # every realization at least twice
               or time.perf_counter() + statistics.median(spent) <= deadline):
            t0 = time.perf_counter()
            j = len(log) % reals
            ticks: list[float] = []
            op = self.call(j, ticks=ticks)
            spent.append(time.perf_counter() - t0)
            best_wall[j] = min(op.wall_s, best_wall.get(j, math.inf))
            best_setup[j] = min(op.setup_s, best_setup.get(j, math.inf))
            rows[j] = op.rows
            prev = best_ticks.get(j)
            best_ticks[j] = ticks if prev is None else list(map(min, prev, ticks))
            log.append({"start_s": t0 + seconds - deadline, "realization": j,
                        "wall_s": op.wall_s, "setup_s": op.setup_s,
                        "loop_s": op.loop_s, "rows": op.rows, "ticks_s": ticks})
        (self.work / "calls.json").write_text(json.dumps(log))

        p50s, tails = [], []
        for ticks in best_ticks.values():
            lat_ms = sorted(1000 * t for t in ticks)
            beyond = min(TAIL_BEYOND, len(lat_ms) - 1)
            p50s.append(statistics.median(lat_ms))
            tails.append(lat_ms[-1 - beyond])
        print(f"tick_tail_ms: p{100 * (len(lat_ms) - beyond) / len(lat_ms):.2f} of the "
              f"{len(lat_ms)} ticks of one call ({beyond} beyond it)")
        print(f"calls: {len(log)} over {reals} realizations")
        return {
            "wall_s": statistics.median(best_wall.values()),
            "setup_s": statistics.median(best_setup.values()),
            "debits_per_s": statistics.median(
                _ratio(rows[j], sum(ticks)) for j, ticks in best_ticks.items()),
            "peak_rss_mb": peak_rss_mb,
            "tick_p50_ms": statistics.median(p50s),
            "tick_tail_ms": statistics.median(tails),
        }

    def per_layer(self, seconds: float) -> dict[str, float]:
        deadline = time.perf_counter() + seconds
        tracer = Tracer()
        pairs: list[tuple[Op, Op]] = []
        while len(pairs) < TRACED_PAIRS:
            j = len(pairs)
            t0 = time.perf_counter()
            # every pair runs realization 0, so counts repeat exactly; the
            # untraced call fixes its digest (unless digests.json pins it),
            # so check() holds the traced call to the same bytes
            plain = self.call(0)
            tracer.run_id = j
            traced = self.call(0, tracer=tracer)
            pairs.append((plain, traced))
            pair_s = time.perf_counter() - t0
            # leave room for one more pair and the tracemalloc call (about 3x)
            if time.perf_counter() + pair_s + 3 * plain.wall_s > deadline:
                break
        peaks: list[int] = []
        self.call(0, alloc_peaks=peaks)
        run_peak, writer_peak = peaks[-1], max(peaks[:-1], default=0)

        rollups = tracer.rollup()
        tracer.write(self.work / "spans.bin")
        rows = [layer_values(rollups.get(j, RunRollup()), plain, traced)
                for j, (plain, traced) in enumerate(pairs)]
        out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
        out["engine.run.peak_alloc_mb"] = run_peak / 2**20
        out["metrics.peak_alloc_mb"] = writer_peak / 2**20
        print(f"trace: {len(pairs)} untraced/traced pairs, {len(tracer.start)} spans"
              f" written to {self.work / 'spans.bin'}")
        return out


def layer_values(roll: RunRollup, plain: Op, traced: Op) -> dict[str, float]:
    """Per-layer metrics of one traced call, with counts from its untraced twin."""
    out: dict[str, float] = {}
    for layer, kinds in _TIMED_LAYERS.items():
        for kind in kinds:
            if kind == "calls":
                out[f"{layer}.calls"] = roll.calls[layer]
            elif kind == "s":
                out[f"{layer}.s"] = roll.total_ns[layer] / 1e9
            else:
                out[f"{layer}.self_s"] = roll.self_ns[layer] / 1e9
    named = {"metrics.write_ledger_csv", "metrics.write_trace", "metrics.render_summary"}
    out["metrics.other_writers.s"] = sum(
        ns for layer, ns in roll.top_ns.items()
        if layer.startswith("metrics.") and layer not in named) / 1e9
    rebroadcasts = roll.pair_calls[("engine.run_petrol_flow", "packet.make_source")]
    hop_attempts = roll.pair_calls[("engine.run_irregular_transfer", "packet.make_query")]
    out["engine.flood_yield_ratio"] = _ratio(traced.flood_infections, rebroadcasts)
    out["engine.hop_accept_ratio"] = _ratio(traced.accepted_hops, hop_attempts)
    out["topology.edges"] = plain.edges
    out["metrics.bytes_written"] = plain.bytes_written
    out["engine.packet_events"] = plain.packet_events
    out["engine.trace_lines"] = plain.trace_lines
    out["engine.deaths"] = plain.deaths
    out["energy.ledger_rows"] = plain.rows
    out["engine.packet_events_per_s"] = _ratio(plain.packet_events, plain.loop_s)
    out["trace.overhead_ratio"] = _ratio(traced.wall_s, plain.wall_s)
    return out


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 where there is nothing to divide by."""
    return num / den if den else 0.0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        program = import_program()
    except (MissingProgram, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    bench = Bench(WORKLOADS[args.workload], args.seed, program)
    if args.trace:
        values, units = bench.per_layer(args.seconds), PER_LAYER
    else:
        values, units = bench.end_to_end(args.seconds), END_TO_END
    for name, unit in units.items():
        print(f"{name} = {values[name]} {unit}")
    print(f"failed_ops = {bench.failed}/{bench.attempted} calls")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
