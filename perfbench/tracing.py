"""Span recording for the traced benchmark run.

The traced run replaces the public entry points of every scdkit module with
wrappers, from here, at the names their callers look up: a method on its
class, a function in the module that calls it (`purge_blocked` in scd_mp,
`format_id_set` in sim, `load_run` in both check and cli).  Each call records
one span (name, start, end, parent, run id) into flat arrays held in memory;
the spans are written out once, when the run ends.  A span's self time is its
duration minus the durations of its direct children.

Some wrappers also feed counters from the call's arguments and result, so
that ratios are taken where the work happens.  `uninstall` restores every
original attribute; the untraced run never installs anything, which
`assert_unwrapped` checks.
"""
from __future__ import annotations

import gzip
import importlib
import time
from array import array
from collections import Counter

MARK = "_perfbench_span"

# (module, class or None for a module-level function, attribute, span name)
TARGETS = [
    ("scdkit.sim", "Simulator", "__init__", "sim.init"),
    ("scdkit.sim", "Simulator", "run", "sim.run"),
    ("scdkit.sim", "Simulator", "enabled_events", "sim.enabled_events"),
    ("scdkit.sim", "Simulator", "schedule_next", "sim.schedule_next"),
    ("scdkit.sim", "Simulator", "execute", "sim.execute"),
    ("scdkit.sim", None, "render_trace", "sim.render_trace"),
    ("scdkit.sim", None, "parse_trace", "sim.parse_trace"),
    ("scdkit.sim", None, "explore_rw", "sim.explore_rw"),
    ("scdkit.sim", "RwWorld", "clone", "sim.explore.clone"),
    ("scdkit.sim", "RwWorld", "state_key", "sim.explore.state_key"),
    ("scdkit.sim", "RwWorld", "choices", "sim.explore.choices"),
    ("scdkit.sim", "RwWorld", "step", "sim.explore.step"),
    ("scdkit.sim", "SharedSnapshotMemory", "execute", "sim.memory.execute"),
    ("scdkit.sim", None, "format_id_set", "core.format_id_set"),
    ("scdkit.scd_mp", "ScdProcess", "on_forward", "scd_mp.on_forward"),
    ("scdkit.scd_mp", "ScdProcess", "try_deliver", "scd_mp.try_deliver"),
    ("scdkit.scd_mp", None, "purge_blocked", "scd_mp.purge_blocked"),
    ("scdkit.shared_objects", "SnapshotObject", "on_set_delivered",
     "shared_objects.on_set_delivered"),
    ("scdkit.shared_objects", "SwmrRegister", "on_set_delivered",
     "shared_objects.on_set_delivered"),
    ("scdkit.shared_objects", "SnapshotObject", "begin_snapshot", "shared_objects.begin"),
    ("scdkit.shared_objects", "SnapshotObject", "begin_write", "shared_objects.begin"),
    ("scdkit.shared_objects", "SwmrRegister", "begin_read", "shared_objects.begin"),
    ("scdkit.shared_objects", "SwmrRegister", "begin_write", "shared_objects.begin"),
    ("scdkit.scd_from_snapshot", "RwProcess", "start_broadcast",
     "scd_from_snapshot.start_broadcast"),
    ("scdkit.scd_from_snapshot", "RwProcess", "complete_memop",
     "scd_from_snapshot.complete_memop"),
    ("scdkit.scd_from_snapshot", "RwProcess", "clone", "scd_from_snapshot.clone"),
    ("scdkit.check", None, "load_run", "check.load_run"),
    ("scdkit.cli", None, "load_run", "check.load_run"),
    ("scdkit.check", None, "extract_history", "check.extract_history"),
    ("scdkit.check", None, "timestamp_metadata", "check.timestamp_metadata"),
    ("scdkit.check", None, "check_validity", "check.validity"),
    ("scdkit.check", None, "check_integrity", "check.integrity"),
    ("scdkit.check", None, "check_ms_ordering", "check.ms_ordering"),
    ("scdkit.check", None, "check_containment", "check.containment"),
    ("scdkit.check", None, "check_termination", "check.termination"),
    ("scdkit.check", None, "check_crash_silence", "check.crash_silence"),
    ("scdkit.check", None, "check_fifo", "check.fifo"),
    ("scdkit.check", None, "check_message_bound", "check.message_bound"),
    ("scdkit.check", None, "check_linearizable_witness", "check.witness"),
    ("scdkit.check", None, "check_linearizable_bruteforce", "check.bruteforce"),
    ("scdkit.check", None, "check_sequentially_consistent", "check.sc"),
    ("scdkit.check", None, "parse_id_set", "core.parse_id_set"),
    ("scdkit.cli", None, "evaluate", "cli.evaluate"),
]

RUN_SPAN = "bench.run"


def _owner(module: str, cls):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def assert_unwrapped() -> None:
    """Raise if any traced entry point is currently replaced by a wrapper."""
    for module, cls, attr, _ in TARGETS:
        if hasattr(getattr(_owner(module, cls), attr), MARK):
            raise RuntimeError(f"{module}.{cls or ''}.{attr} is wrapped in an untraced run")


# ---------------------------------------------------------------------------
# counters fed by wrapped calls: hook(counts, args, result)


def _on_enabled_events(c, args, result):
    c["sim.choice_width"] += len(result)


def _on_sim_run(c, args, result):
    c["sim.steps"] += result.steps
    c["sim.trace_records"] += len(result.events)
    if result.config.workload == "rw_equivalence":
        return
    open_ops = {}
    for ev in result.events:
        kind = ev.kind
        if kind == "send":
            c["scd_mp.sends"] += 1
        elif kind == "bcast":
            c["scd_mp.bcasts"] += 1
            if ev.proc in open_ops:
                open_ops[ev.proc][1] += 1
        elif kind == "op_invoke" and ev.payload["op"] != "bcast":
            open_ops[ev.proc] = [ev.payload["op"], 0]
        elif kind == "op_return" and ev.proc in open_ops:
            op, bcasts = open_ops.pop(ev.proc)
            side = "write" if op == "write" else "read"  # snapshots count as reads
            c[f"shared_objects.{side}s"] += 1
            c[f"shared_objects.{side}_bcasts"] += bcasts


def _on_render_trace(c, args, result):
    c["sim.trace_bytes"] += len(result)


def _on_explore_rw(c, args, result):
    c["sim.explore.runs"] += 1
    c["sim.explore.states"] += result[1]


def _on_try_deliver(c, args, result):
    size = len(args[0].buffer)
    if result is not None:
        c["scd_mp.delivered_sets"] += 1
        c["scd_mp.delivered_msgs"] += len(result)
        size += len(result)
    c["scd_mp.buffer_sum"] += size
    if size > c["scd_mp.buffer_high_water"]:
        c["scd_mp.buffer_high_water"] = size


def _on_purge_blocked(c, args, result):
    c["scd_mp.purge_candidates"] += len(args[0])
    c["scd_mp.purge_kept"] += len(result)


def _on_bruteforce(c, args, result):
    c["check.bruteforce_skips"] += result.status == "skip"


def _on_sc(c, args, result):
    c["check.sc_skips"] += result.status == "skip"


HOOKS = {
    "sim.enabled_events": _on_enabled_events,
    "sim.run": _on_sim_run,
    "sim.render_trace": _on_render_trace,
    "sim.explore_rw": _on_explore_rw,
    "scd_mp.try_deliver": _on_try_deliver,
    "scd_mp.purge_blocked": _on_purge_blocked,
    "check.bruteforce": _on_bruteforce,
    "check.sc": _on_sc,
}


# ---------------------------------------------------------------------------


class Tracer:
    """Flat in-memory span store plus the wrappers that fill it.

    `clock` is injectable so that tests can drive exact timestamps.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run_id = array("l")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._run = -1
        self._saved: list = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, hook=None):
        nid = self._intern(name)
        clock, stack, counts = self.clock, self._stack, self.counts
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, runs = self.parent, self.run_id

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self._run)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        for module, cls, attr, name in TARGETS:
            owner = _owner(module, cls)
            original = owner.__dict__[attr] if cls else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, HOOKS.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run(self, run_id: int, fn, *args):
        """Call fn(*args) as run `run_id`, under a root span."""
        self._run = run_id
        try:
            return self.wrap(fn, RUN_SPAN)(*args)
        finally:
            self._run = -1

    # -- aggregation --------------------------------------------------------

    def totals(self) -> dict:
        """name -> [calls, inclusive seconds, self seconds]."""
        n = len(self.start)
        child = [0.0] * n
        starts, ends, parents = self.start, self.end, self.parent
        for k in range(n):
            p = parents[k]
            if p >= 0:
                child[p] += ends[k] - starts[k]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for k in range(n):
            row = out[self.names[self.name_id[k]]]
            dur = ends[k] - starts[k]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[k]
        return out

    def write(self, path) -> None:
        """All spans, one per line: name, start, end, parent index, run id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\trun\n")
            names = self.names
            for k in range(len(self.start)):
                fh.write(f"{names[self.name_id[k]]}\t{self.start[k]:.9f}\t"
                         f"{self.end[k]:.9f}\t{self.parent[k]}\t{self.run_id[k]}\n")


# ---------------------------------------------------------------------------
# per-layer metrics: per-run means over the traced window unless noted


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(totals: dict, counts: Counter, runs: int) -> dict:
    """Metric name -> value for every PER_LAYER name but the overhead, which
    the caller measures."""
    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    c = counts
    per_run = {
        "sim.enabled_events.self_s": self_s("sim.enabled_events"),
        "sim.schedule_next.self_s": self_s("sim.schedule_next"),
        "sim.execute.self_s": self_s("sim.execute"),
        "sim.init_s": incl("sim.init"),
        "sim.steps": c["sim.steps"],
        "sim.trace_records": c["sim.trace_records"],
        "sim.render_trace_s": incl("sim.render_trace"),
        "sim.parse_trace_s": incl("sim.parse_trace"),
        "sim.trace_bytes": c["sim.trace_bytes"],
        "sim.explore.clone.self_s": self_s("sim.explore.clone"),
        "sim.explore.state_key.self_s": self_s("sim.explore.state_key"),
        "sim.explore.choices.self_s": self_s("sim.explore.choices"),
        "sim.explore.step.self_s": self_s("sim.explore.step"),
        "sim.memory.execute.self_s": self_s("sim.memory.execute"),
        "scd_mp.on_forward.self_s": self_s("scd_mp.on_forward"),
        "scd_mp.on_forward.calls": calls("scd_mp.on_forward"),
        "scd_mp.try_deliver.self_s": self_s("scd_mp.try_deliver"),
        "scd_mp.purge_blocked.self_s": self_s("scd_mp.purge_blocked"),
        "scd_mp.purge_blocked.calls": calls("scd_mp.purge_blocked"),
        "shared_objects.on_set_delivered.self_s": self_s("shared_objects.on_set_delivered"),
        "shared_objects.on_set_delivered.calls": calls("shared_objects.on_set_delivered"),
        "shared_objects.begin.self_s": self_s("shared_objects.begin"),
        "scd_from_snapshot.complete_memop.self_s": self_s("scd_from_snapshot.complete_memop"),
        "scd_from_snapshot.complete_memop.calls": calls("scd_from_snapshot.complete_memop"),
        "scd_from_snapshot.clone.self_s": self_s("scd_from_snapshot.clone"),
        "check.load_run_s": self_s("check.load_run"),
        "check.extract_history_s": self_s("check.extract_history"),
        "check.timestamp_metadata_s": self_s("check.timestamp_metadata"),
        "check.validity_s": self_s("check.validity"),
        "check.integrity_s": self_s("check.integrity"),
        "check.ms_ordering_s": self_s("check.ms_ordering"),
        "check.containment_s": self_s("check.containment"),
        "check.termination_s": self_s("check.termination"),
        "check.crash_silence_s": self_s("check.crash_silence"),
        "check.fifo_s": self_s("check.fifo"),
        "check.message_bound_s": self_s("check.message_bound"),
        "check.witness_s": self_s("check.witness"),
        "check.bruteforce_s": self_s("check.bruteforce"),
        "check.sc_s": self_s("check.sc"),
        "check.bruteforce_skips": c["check.bruteforce_skips"],
        "check.sc_skips": c["check.sc_skips"],
        "core.format_id_set_s": self_s("core.format_id_set"),
        "core.parse_id_set_s": self_s("core.parse_id_set"),
        "cli.evaluate_s": incl("cli.evaluate"),
    }
    out = {k: v / runs for k, v in per_run.items()}
    out.update({
        "sim.choice_width_mean": _ratio(c["sim.choice_width"], calls("sim.enabled_events")),
        "sim.steps_per_s": _ratio(c["sim.steps"], incl("sim.run")),
        "sim.explore.dedup_ratio": _ratio(c["sim.explore.states"] - c["sim.explore.runs"],
                                          calls("sim.explore.clone")),
        "scd_mp.purge_kept_ratio": _ratio(c["scd_mp.purge_kept"], c["scd_mp.purge_candidates"]),
        "scd_mp.deliver_hit_ratio": _ratio(c["scd_mp.delivered_sets"], calls("scd_mp.try_deliver")),
        "scd_mp.buffer_mean": _ratio(c["scd_mp.buffer_sum"], calls("scd_mp.try_deliver")),
        "scd_mp.buffer_high_water": c["scd_mp.buffer_high_water"],
        "scd_mp.set_size_mean": _ratio(c["scd_mp.delivered_msgs"], c["scd_mp.delivered_sets"]),
        "scd_mp.sends_per_bcast": _ratio(c["scd_mp.sends"], c["scd_mp.bcasts"]),
        "shared_objects.bcasts_per_write": _ratio(c["shared_objects.write_bcasts"],
                                                  c["shared_objects.writes"]),
        "shared_objects.bcasts_per_read": _ratio(c["shared_objects.read_bcasts"],
                                                 c["shared_objects.reads"]),
        "scd_from_snapshot.memops_per_bcast": _ratio(
            calls("scd_from_snapshot.complete_memop"), calls("scd_from_snapshot.start_broadcast")),
    })
    return out


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s/run"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "sim.steps_per_s":
        return "1/s"
    if name == "sim.trace_bytes":
        return "B/run"
    if name.endswith(("_mean", "high_water", "_per_bcast", "_per_write", "_per_read")):
        return "count"
    return "count/run"


def _better(name: str) -> str:
    higher = ("sim.steps_per_s", "sim.explore.dedup_ratio", "scd_mp.purge_kept_ratio",
              "scd_mp.deliver_hit_ratio", "scd_mp.set_size_mean")
    return "higher" if name in higher else "lower"


PER_LAYER = [
    {"name": n, "unit": _unit(n), "better": _better(n)}
    for n in sorted([*layer_metrics({}, Counter(), 1), "trace.overhead_ratio"])
]


def dominant(totals: dict, wall: float, top: int = 6) -> list:
    """The spans with the most self time: (name, share of the traced wall)."""
    ranked = sorted(((row[2], name) for name, row in totals.items() if name != RUN_SPAN),
                    reverse=True)
    return [(name, self_s / wall) for self_s, name in ranked[:top]]
