"""Outside-in span tracer for qcs-sim.

The tracer replaces public functions and methods with wrappers from the
outside: it patches the name a caller looks up (``qcs_sim.engine.handle_query``
is the name the engine calls), never the program's own code.  Each call
records one span: layer name, start and end in nanoseconds, the span
open when it began (its parent) and the id of the run it belongs to.
Spans live in flat arrays while the run goes on and are written out
once at the end; the roll-up then derives calls, inclusive time and
self time (a span's time minus the time of its child spans).
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from contextlib import ExitStack, contextmanager
from pathlib import Path


@contextmanager
def patched(owner, attr: str, new):
    """Set owner.attr to new for the duration of the block."""
    old = vars(owner)[attr]
    setattr(owner, attr, new)
    try:
        yield
    finally:
        setattr(owner, attr, old)


def layer_targets(cli, scenario, engine, energy, metrics) -> list[tuple[str, object, str]]:
    """(layer name, owner, attribute) for every boundary the tracer wraps."""
    sim = engine.Simulation
    targets = [
        ("cli.main", cli, "main"),
        ("scenario.load_scenario", cli, "load_scenario"),
        ("topology.load_layout", scenario, "load_layout"),
        ("engine.init", sim, "__init__"),
        ("node.init_modes", engine, "init_modes"),
        ("energy.draw_initial_energy", engine, "draw_initial_energy"),
        ("engine.run", sim, "run"),
        ("engine.step", sim, "step"),
        ("engine.step_regular", sim, "step_regular"),
        ("engine.run_irregular_transfer", sim, "run_irregular_transfer"),
        ("engine.run_petrol_flow", sim, "run_petrol_flow"),
        ("engine.base_reset", sim, "base_reset"),
        ("node.sense_and_classify", engine, "sense_and_classify"),
        ("node.handle_query", engine, "handle_query"),
        ("node.handle_source", engine, "handle_source"),
        ("node.reset_node", engine, "reset_node"),
        ("node.isolation_check", engine, "isolation_check"),
        ("node.tick_transition", engine, "tick_transition"),
        ("packet.make_query", engine, "make_query"),
        ("packet.make_source", engine, "make_source"),
        ("energy.debit", energy.EnergyLedger, "debit"),
    ]
    targets += [(f"metrics.{name}", metrics, name) for name in public_functions(metrics)]
    return targets


def public_functions(module) -> list[str]:
    """Names of the public functions a module defines itself."""
    return sorted(
        name for name, fn in vars(module).items()
        if callable(fn) and not name.startswith("_")
        and getattr(fn, "__module__", None) == module.__name__
    )


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.name = array("H")
        self.parent = array("q")
        self.run = array("H")
        self.run_id = 0
        self._open: list[int] = []

    def wrap(self, layer: str, fn):
        if layer not in self.names:
            self.names.append(layer)
        idx = self.names.index(layer)
        start, end, name, parent, run = self.start, self.end, self.name, self.parent, self.run
        open_spans = self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(open_spans[-1] if open_spans else -1)
            name.append(idx)
            run.append(self.run_id)
            end.append(0)
            open_spans.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                open_spans.pop()

        return traced

    @contextmanager
    def active(self, targets):
        """Wrap every target for the duration of the block."""
        with ExitStack() as stack:
            for layer, owner, attr in targets:
                fn = vars(owner)[attr]
                stack.enter_context(patched(owner, attr, self.wrap(layer, fn)))
            yield self

    def rollup(self) -> dict[int, "RunRollup"]:
        """Per run id: calls, inclusive and self nanoseconds per layer,
        and call counts per (parent layer, layer) pair."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[int, RunRollup] = {}
        names = self.names
        for i in range(n):
            r = out.get(self.run[i])
            if r is None:
                r = out[self.run[i]] = RunRollup()
            layer = names[self.name[i]]
            r.calls[layer] += 1
            r.total_ns[layer] += dur[i]
            r.self_ns[layer] += dur[i] - child[i]
            p = self.parent[i]
            r.pair_calls[(names[self.name[p]] if p >= 0 else "", layer)] += 1
            if p < 0 or not names[self.name[p]].startswith("metrics."):
                r.top_ns[layer] += dur[i]
        return out

    def write(self, path: Path) -> None:
        """Spans as raw columns in native byte order, described by a JSON header."""
        columns = [("start_ns", self.start), ("end_ns", self.end), ("name", self.name),
                   ("parent", self.parent), ("run", self.run)]
        header = {
            "count": len(self.start),
            "names": self.names,
            "columns": [[c, a.typecode, a.itemsize] for c, a in columns],
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for _, a in columns:
                a.tofile(f)


class RunRollup:
    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.top_ns: Counter[str] = Counter()  # spans not nested in a metrics span
        self.pair_calls: Counter[tuple[str, str]] = Counter()
