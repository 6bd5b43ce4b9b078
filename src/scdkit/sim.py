"""Deterministic discrete-event simulator with fault injection.

A scenario is a scalar config (process count, crash budget, seed, workload,
schedule policy, crash schedule, step budget).  One run executes one enabled
event per step, chosen by the schedule policy from a deterministic RNG, so a
config maps to a byte-identical trace every time.  Asynchrony is modeled
purely by adversarial event choice; there are no clocks.

Things the simulator injects or enforces:

  * FIFO reliable channels for the message-passing protocol; per-channel
    delivery order always equals send order.  The simulator keeps the sorted
    indices of the non-empty channels (a crashed receiver's channels are
    cleared and never refilled, so non-empty means deliverable), updated
    only when a channel empties or fills, so choosing an event costs no
    scan over the n*n channels.
  * Crashes at chosen steps.  A crash can also interrupt the victim's next
    handler and truncate the point-to-point sends of its fifo-broadcast to a
    prefix, which is strictly more adversarial than whole-handler crashes.
    A crashed process emits nothing afterwards; its in-flight messages stay
    deliverable; messages addressed to it are dropped.
  * For the shared-memory construction: a linearizable snapshot memory, or a
    sequentially consistent one that delays the visibility of writes behind
    per-process queues (flushed when the owner snapshots, applied to others
    at scheduler-chosen points).
  * Background progress rounds, generated lazily only while some process can
    still see undelivered messages, which makes quiescence decidable.

Runs end quiescent (nothing enabled, no operation pending), stalled (nothing
enabled but operations pending, the signature of a lost majority), or out of
step budget.  Trace records are line-oriented: step|kind|proc|key=value...
A FORWARD's trace fields are formatted once, when it is fifo-broadcast, and
shared by its n send records and its recv records (each record still owns its
dict).  The trace codec keeps that sharing: render_trace sorts each distinct
key list once per call, and parse_trace splits each distinct field text, and
each distinct payload text before its last field, once per call, so the
parsed records share equal field strings too.  The processes that may start
an operation are kept in a sorted list, updated on invoke, op return and
crash, so choosing an event asks no process.

The exhaustive interleaving explorer for the shared-memory construction
(explore_rw) drives the same world object as the simulator, enumerating every
schedule by DFS and deduplicating identical global states.  A successor copies
only the process that steps, and a state is keyed by interned per-component
ids, so a transition pays only for what it changes.
"""
from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

from .core import AppMessage, MsgId, UsageError, format_id_set
from .scd_from_snapshot import RwProcess
from .scd_mp import ForwardMsg, ScdProcess
from .shared_objects import SnapshotObject, SwmrRegister

MP_WORKLOADS = (
    "raw_broadcast",
    "snapshot_ops",
    "register_ops",
    "swmr_register_ops",
    "sc_register_ops",
    "sc_snapshot_ops",
)
RW_WORKLOADS = ("rw_equivalence",)
WORKLOADS = MP_WORKLOADS + RW_WORKLOADS


# ---------------------------------------------------------------------------
# config

# fields stored under a shorter key in config records
_PAYLOAD_KEYS = {"op_count": "ops", "step_budget": "budget"}


@dataclass
class ScenarioConfig:
    n: int
    t: int
    workload: str
    op_count: int
    crash: str = "none"            # none | random:K | explicit:p@s[:keep],...
    delay: str = "uniform"         # uniform | fifo | slow:p,p,...
    seed: int = 0
    step_budget: int = 10**6
    nregs: int = 1                 # snapshot workloads only
    mem: str = "atomic"            # rw_equivalence only: atomic | sc
    writer: int = 1                # swmr workload only

    def validate(self) -> None:
        if self.n < 1:
            raise UsageError("n must be >= 1")
        if not 0 <= self.t < self.n:
            raise UsageError("t must be in 0..n-1")
        if self.workload not in WORKLOADS:
            raise UsageError(f"unknown workload {self.workload!r}")
        if self.op_count < 0:
            raise UsageError("op count must be >= 0")
        if self.step_budget < 1:
            raise UsageError("step budget must be >= 1")
        if self.nregs < 1:
            raise UsageError("nregs must be >= 1")
        if self.mem not in ("atomic", "sc"):
            raise UsageError(f"unknown memory mode {self.mem!r}")
        if not 1 <= self.writer <= self.n:
            raise UsageError("writer must be a process id")
        parse_crash_schedule(self.crash, self.n, self.t)
        parse_delay_policy(self.delay, self.n)

    @property
    def slots(self) -> int:
        """Width of the shared object: a register is the one-slot snapshot."""
        return self.nregs if "snapshot" in self.workload else 1

    def crash_count(self) -> int:
        plan = parse_crash_schedule(self.crash, self.n, self.t)
        if plan == []:
            return 0
        if isinstance(plan, tuple):
            return plan[1]
        return len(plan)

    def expected_nonterminating(self) -> bool:
        """Message-passing workloads lose liveness once crashes reach a
        majority; such configs are labeled rather than treated as failures."""
        return self.workload in MP_WORKLOADS and 2 * self.crash_count() >= self.n

    def to_payload(self) -> dict:
        return {_PAYLOAD_KEYS.get(f.name, f.name): str(getattr(self, f.name))
                for f in fields(self)}

    @staticmethod
    def from_payload(p: dict) -> "ScenarioConfig":
        cast = {"int": int, "str": str}  # field annotations are strings here
        return ScenarioConfig(**{
            f.name: cast[f.type](p[_PAYLOAD_KEYS.get(f.name, f.name)])
            for f in fields(ScenarioConfig)
        })


def parse_crash_schedule(text: str, n: int, t: int):
    if text == "none":
        return []
    # t is the resilience assumption, not a hard cap: boundary experiments
    # deliberately crash a majority; only sparing at least one process is
    # required for a run to mean anything
    if text.startswith("random:"):
        k = _spec_int(text.split(":", 1)[1], text)
        if not 0 <= k <= n - 1:
            raise UsageError(f"random crash count {k} must leave a survivor")
        return ("random", k)
    if text.startswith("explicit:"):
        out = []
        for item in text.split(":", 1)[1].split(","):
            if not item:
                continue
            head, _, keep = item.partition(":")
            proc, _, step = head.partition("@")
            if not step:
                raise UsageError(f"bad crash item {item!r}, want p@step[:keep]")
            proc_i = _spec_int(proc, text)
            if not 1 <= proc_i <= n:
                raise UsageError(f"crash process {proc_i} out of range")
            keep_i = _spec_int(keep, text) if keep else None
            out.append((_spec_int(step, text), proc_i, keep_i))
        if len({p for _, p, _ in out}) != len(out):
            raise UsageError("duplicate crash process")
        if len(out) > n - 1:
            raise UsageError(f"{len(out)} crashes must leave a survivor")
        return sorted(out)
    raise UsageError(f"unknown crash schedule {text!r}")


def _spec_int(part: str, text: str) -> int:
    try:
        return int(part)
    except ValueError:
        raise UsageError(f"bad number {part!r} in {text!r}") from None


def parse_delay_policy(text: str, n: int):
    if text in ("uniform", "fifo"):
        return (text, frozenset())
    if text.startswith("slow:"):
        procs = frozenset(_spec_int(p, text) for p in text.split(":", 1)[1].split(",") if p)
        if not procs or any(not 1 <= p <= n for p in procs):
            raise UsageError(f"bad slow process set in {text!r}")
        return ("slow", procs)
    raise UsageError(f"unknown delay policy {text!r}")


# ---------------------------------------------------------------------------
# trace records


class TraceEvent(NamedTuple):
    step: int
    kind: str
    proc: int
    payload: dict


class TraceParseError(Exception):
    pass


def render_trace(events) -> str:
    """One line per record: step|kind|proc|key=value..., keys sorted.

    Records whose payloads list the same keys in the same order share one
    format string, built (and its keys sorted) once per call."""
    formats = {}
    lines = []
    for ev in events:
        payload = ev.payload
        keys = tuple(payload)
        fmt = formats.get(keys)
        if fmt is None:
            fmt = formats[keys] = _line_format(keys)
        lines.append(fmt(*ev[:3], *payload.values()))
    return "".join(lines)


def _line_format(keys: tuple):
    """str.format of a record line, taking step, kind, proc and then the
    payload values in the order of keys, and writing the fields by sorted key."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    fields = " ".join(
        f"{keys[i]}".replace("{", "{{").replace("}", "}}") + f"={{{i + 3}}}" for i in order)
    return ("{0}|{1}|{2}|" + fields + "\n").format


class _Memo(dict):
    """A table that computes each missing entry once, with make(key)."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def parse_trace(text: str) -> list:
    """The records of a rendered trace, equal to the ones rendered.

    Each distinct field text is split once per call, and each distinct
    payload text before the last field is turned into a dict once: later
    records with that head copy the dict and add their last field (a
    FORWARD's send records differ only in their last field, its recv records
    not at all).  So equal field texts, and equal kinds, are one string
    object, as they are in the simulator's records, and each record still
    owns its dict."""
    lines = text.splitlines()
    if text and not text.endswith("\n"):
        # render_trace ends every record with a newline
        raise TraceParseError(f"line {len(lines)}: trace ends mid-record")
    events = []
    append, new = events.append, tuple.__new__
    fields = _Memo(lambda chunk: chunk.partition("=")[::2])
    heads = _Memo(lambda head: dict(map(fields.__getitem__, head.split(" "))))
    kinds = {}
    step_text = step = None
    for lineno, line in enumerate(lines, start=1):
        parts = line.split("|", 3)
        if len(parts) != 4:
            if not line.strip():
                continue  # a blank line holds no "|"
            raise TraceParseError(f"line {lineno}: want step|kind|proc|payload")
        s, kind, p, body = parts
        try:
            if s != step_text:  # the records of one step are adjacent
                step, step_text = int(s), s
            proc = int(p)
        except ValueError as e:
            raise TraceParseError(f"line {lineno}: {e}") from None
        kind = kinds.setdefault(kind, kind)
        payload = {}
        if body:
            head, sep, last = body.rpartition(" ")
            if sep:  # the head may be empty: " x=1" has the field "" too
                payload = heads[head].copy()
            k, v = fields[last]
            payload[k] = v
        append(new(TraceEvent, (step, kind, proc, payload)))
    return events


def value_str(v: bytes) -> str:
    return v.hex() if v else "-"


def value_parse(s: str) -> bytes:
    return b"" if s == "-" else bytes.fromhex(s)


# ---------------------------------------------------------------------------
# shared snapshot memory (for the rw construction)


class SharedSnapshotMemory:
    """SENT/SETSEQ arrays of single-writer entries.

    atomic mode applies writes at invocation.  sc mode queues each process's
    writes and applies them later (apply_one), except that a snapshot by the
    owner first flushes its own queue; per-process order is preserved, so the
    result is sequentially consistent but deliberately not linearizable.
    """

    def __init__(self, n: int, mode: str = "atomic"):
        self.n = n
        self.mode = mode
        self.store = {}
        for obj in ("SENT", "SETSEQ"):
            for i in range(1, n + 1):
                self.store[(obj, i)] = frozenset() if obj == "SENT" else ()
        self.queues = {i: deque() for i in range(1, n + 1)}

    def execute(self, pid: int, op):
        if op[0] == "write":
            _, obj, idx, val = op
            if idx != pid:
                raise UsageError(f"p{pid} writing single-writer entry of p{idx}")
            if self.mode == "sc":
                self.queues[pid].append((obj, idx, val))
            else:
                self.store[(obj, idx)] = val
            return None
        _, obj = op
        self.flush(pid)
        pad = () if obj == "SETSEQ" else frozenset()
        return (pad,) + tuple(self.store[(obj, i)] for i in range(1, self.n + 1))

    def flush(self, pid: int) -> None:
        while self.queues[pid]:
            self.apply_one(pid)

    def apply_one(self, pid: int):
        obj, idx, val = self.queues[pid].popleft()
        self.store[(obj, idx)] = val
        return obj, idx

    def pending_count(self, pid: int) -> int:
        return len(self.queues[pid])

    def drop_pending(self, pid: int) -> None:
        self.queues[pid].clear()

    def visible_sent_union(self) -> frozenset:
        out = frozenset()
        for i in range(1, self.n + 1):
            out |= self.store[("SENT", i)]
        return out

    def clone(self) -> "SharedSnapshotMemory":
        c = SharedSnapshotMemory.__new__(SharedSnapshotMemory)
        c.n, c.mode = self.n, self.mode
        c.store = dict(self.store)
        c.queues = {i: deque(q) for i, q in self.queues.items()}
        return c

    def state_key(self):
        # store and queues keep their insertion order (SENT 1..n, then
        # SETSEQ 1..n; queues 1..n) through writes and clones
        return (
            tuple(self.store.values()),
            tuple(map(tuple, self.queues.values())),
        )


# ---------------------------------------------------------------------------
# the shared-memory world (driven by the simulator or by the explorer)


class RwWorld:
    """Processes of the shared-memory construction plus their memory and the
    per-process scripts of messages still to broadcast.

    For the explorer, a world keys its state by interned ids: `interned` maps
    each component's nested state (a process's or the memory's) to a small
    int and is shared by every world cloned from one root; `key_ids[0]` caches
    the memory's id and `key_ids[i]` process i's, None once stale.
    """

    def __init__(self, n: int, scripts: dict, mem_mode: str = "atomic"):
        self.n = n
        self.procs = {i: RwProcess(i, n) for i in range(1, n + 1)}
        self.memory = SharedSnapshotMemory(n, mem_mode)
        self.scripts = {i: list(scripts.get(i, ())) for i in range(1, n + 1)}
        self.next_op = {i: 0 for i in range(1, n + 1)}
        self.alive = {i: True for i in range(1, n + 1)}
        self.inflight = {i: None for i in range(1, n + 1)}
        self.interned = {}
        self.key_ids = [None] * (n + 1)

    def choices(self) -> list:
        out = []
        visible = self.memory.visible_sent_union()
        for i in range(1, self.n + 1):
            if not self.alive[i]:
                continue
            p = self.procs[i]
            if p.frame is not None:
                out.append(("mem", i))
            else:
                if self.next_op[i] < len(self.scripts[i]):
                    out.append(("invoke", i))
                if visible - p.delivered:
                    out.append(("tick", i))
            if self.memory.pending_count(i):
                out.append(("apply", i))
        return out

    def step(self, choice, trace=None) -> None:
        tag, i = choice
        p = self.procs[i]
        self.key_ids[i] = None
        if tag == "mem" or tag == "apply":
            self.key_ids[0] = None
        if tag == "invoke":
            k = self.next_op[i]
            self.next_op[i] = k + 1
            m = self.scripts[i][k]
            if trace:
                trace("op_invoke", i, op="bcast", seq=str(k))
                trace("bcast", i, id=str(m.id), data=value_str(m.payload))
            p.start_broadcast(m)
            self.inflight[i] = (m.id, k)
        elif tag == "tick":
            p.start_tick()
        elif tag == "mem":
            op = p.pending_memop()
            if trace:
                if op[0] == "write":
                    trace("mem_write", i, obj=op[1], index=str(op[2]))
                else:
                    trace("mem_snapshot", i, obj=op[1])
            result = self.memory.execute(i, op)
            delivered = p.complete_memop(result)
            if delivered is not None and trace:
                trace("scd_deliver", i, set=format_id_set(m.id for m in delivered))
            if p.frame is None and self.inflight[i] is not None:
                mid, k = self.inflight[i]
                self.inflight[i] = None
                if trace:
                    trace("broadcast_complete", i, id=str(mid))
                    trace("op_return", i, op="bcast", seq=str(k), ok="1")
        elif tag == "apply":
            obj, idx = self.memory.apply_one(i)
            if trace:
                trace("mem_apply", i, obj=obj, index=str(idx))
        else:
            raise AssertionError(choice)

    def crash(self, i: int) -> None:
        self.alive[i] = False
        self.memory.drop_pending(i)
        self.key_ids[0] = None

    def clone(self, i: int) -> "RwWorld":
        """A copy to run one step of process i on.  Only process i, the memory
        and the per-process dicts are copied: a step of i mutates no other
        process, so the copy shares them, and the intern table, with self."""
        c = RwWorld.__new__(RwWorld)
        c.n = self.n
        c.procs = dict(self.procs)
        c.procs[i] = self.procs[i].clone()
        c.memory = self.memory.clone()
        c.scripts = self.scripts  # scripts are never mutated
        c.next_op = dict(self.next_op)
        c.alive = dict(self.alive)
        c.inflight = dict(self.inflight)
        c.interned = self.interned
        c.key_ids = list(self.key_ids)
        return c

    def state_key(self) -> tuple:
        """The global state as a flat tuple of small ints: the interned ids of
        the memory and of processes 1..n, then next_op and alive.  Two worlds
        of one exploration get equal keys exactly when their memories,
        processes, next_op and alive are equal.  Only stale ids are
        recomputed, which after a step is the memory's and the stepped
        process's."""
        ids, interned = self.key_ids, self.interned
        for j, k in enumerate(ids):
            if k is None:
                part = self.memory if j == 0 else self.procs[j]
                ids[j] = interned.setdefault(part.state_key(), len(interned))
        return (*ids, *self.next_op.values(), *self.alive.values())


def explore_rw(n: int, scripts: dict, mem_mode: str = "atomic", state_limit: int = 2_000_000):
    """Enumerate every schedule of the shared-memory construction by DFS,
    deduplicating identical global states.

    Every run of the world is a path through a finite acyclic state graph
    (each step strictly consumes script items, queue entries, frame progress
    or undelivered messages), so the distinct terminal states cover every
    interleaving's observable outcome.  Each successor is a copy-on-write
    clone that copies only the stepped process (RwWorld.clone), and two
    states are the same when their interned keys are (RwWorld.state_key),
    that is when every process, the memory, next_op and alive are equal.
    Returns (terminal worlds in discovery order, states visited); raises
    UsageError once more than state_limit states are seen.
    """
    root = RwWorld(n, scripts, mem_mode)
    seen = {root.state_key()}
    terminals = {}
    stack = [root]
    while stack:
        w = stack.pop()
        choices = w.choices()
        if not choices:
            terminals.setdefault(w.state_key(), w)
            continue
        for c in choices:
            w2 = w.clone(c[1])
            w2.step(c)
            k = w2.state_key()
            if k not in seen:
                if len(seen) >= state_limit:
                    raise UsageError(f"state limit {state_limit} exceeded")
                seen.add(k)
                stack.append(w2)
    return list(terminals.values()), len(seen)


# ---------------------------------------------------------------------------
# workload planning


def plan_ops(config: ScenarioConfig, rng: random.Random) -> dict:
    """Per-process operation scripts; op_count is the total across processes."""
    per_proc = {i: [] for i in range(1, config.n + 1)}
    counts = {i: config.op_count // config.n for i in per_proc}
    for i in range(1, config.op_count % config.n + 1):
        counts[i] += 1
    w = config.workload
    for i in per_proc:
        for k in range(counts[i]):
            val = f"{i}.{k}".encode("ascii")
            if w in ("raw_broadcast", "rw_equivalence"):
                per_proc[i].append(("bcast", val))
            elif w in ("snapshot_ops", "sc_snapshot_ops"):
                if rng.random() < 0.5:
                    per_proc[i].append(("snapshot",))
                else:
                    per_proc[i].append(("write", rng.randint(1, config.nregs), val))
            elif w in ("register_ops", "sc_register_ops"):
                if rng.random() < 0.5:
                    per_proc[i].append(("read",))
                else:
                    per_proc[i].append(("write", 1, val))
            elif w == "swmr_register_ops":
                if i == config.writer and rng.random() < 0.7:
                    per_proc[i].append(("write", 1, val))
                else:
                    per_proc[i].append(("read",))
            else:
                raise AssertionError(w)
    return per_proc


def _estimated_steps(config: ScenarioConfig) -> int:
    if config.workload in RW_WORKLOADS:
        per_op = 6 * config.n
    else:
        rounds = 2 if config.workload in ("snapshot_ops", "register_ops", "swmr_register_ops") else 1
        per_op = rounds * (2 * config.n * config.n + 4)
    return config.op_count * per_op + 10


def plan_crashes(config: ScenarioConfig, rng: random.Random) -> list:
    sched = parse_crash_schedule(config.crash, config.n, config.t)
    if isinstance(sched, list):
        return sched
    kind, k = sched
    assert kind == "random"
    procs = rng.sample(range(1, config.n + 1), k)
    horizon = max(20, _estimated_steps(config) // 2)
    out = []
    for p in procs:
        step = rng.randrange(horizon)
        keep = rng.randint(0, config.n) if rng.random() < 0.5 else None
        out.append((step, p, keep))
    return sorted(out)


# ---------------------------------------------------------------------------
# message-passing process stack


def make_object(pid: int, config: ScenarioConfig):
    w = config.workload
    if w == "raw_broadcast":
        return None
    if w == "swmr_register_ops":
        return SwmrRegister(pid, config.writer)
    return SnapshotObject(pid, config.slots, synchronized=not w.startswith("sc_"))


class _CrashCut(Exception):
    """Internal: aborts the handler a mid-handler crash interrupts."""


class MpStack:
    """One process of a message-passing workload: the broadcast layer, an
    optional object layer, and the script of operations to perform."""

    def __init__(self, sim, pid: int, config: ScenarioConfig, script: list):
        self.sim = sim
        self.pid = pid
        self.scd = ScdProcess(pid, config.n)
        self.obj = make_object(pid, config)
        self.script = script
        self.next_op = 0
        self.cur = None  # (kind, seq, raw msgid or None)
        self.msg_seq = 0

    def can_invoke(self) -> bool:
        return self.cur is None and self.next_op < len(self.script)

    def invoke(self) -> None:
        self.sim.invokes.remove(("invoke", self.pid))
        op = self.script[self.next_op]
        seq = self.next_op
        self.next_op += 1
        kind = op[0]
        inv = {"op": kind, "seq": str(seq)}
        if kind == "write":
            inv["r"], inv["v"] = str(op[1]), value_str(op[2])
        self.sim.trace("op_invoke", self.pid, **inv)
        if kind == "bcast":
            m = self._new_msg(op[1])
            self.cur = (kind, seq, m.id)
            self.sim.trace("bcast", self.pid, id=str(m.id), data=value_str(m.payload))
            self._emit(self.scd.scbroadcast(m))
            return
        self.cur = (kind, seq, None)
        if kind == "snapshot":
            step = self.obj.begin_snapshot()
        elif kind == "read":
            step = self.obj.begin_read()
        else:
            step = self.obj.begin_write(op[1], op[2])
        self._obj_step(step)

    def on_network(self, fmsg: ForwardMsg) -> None:
        outs, sets = self.scd.on_forward(fmsg)
        self._emit(outs)
        for ms in sets:
            self.sim.trace(
                "scd_deliver", self.pid, set=format_id_set(m.id for m in ms)
            )
        done = self.scd.broadcast_complete()
        if done is not None:
            self.sim.trace("broadcast_complete", self.pid, id=str(done))
            if self.cur is not None and self.cur[2] == done:
                kind, seq, _ = self.cur
                self._op_returned()
                self.sim.trace("op_return", self.pid, op=kind, seq=str(seq), ok="1")
        if self.obj is not None:
            for ms in sets:
                self._obj_step(self.obj.on_set_delivered(ms))

    def pending_work(self) -> bool:
        return self.cur is not None or self.scd.pending_broadcast is not None

    def _obj_step(self, step) -> None:
        if step.broadcast is not None:
            m = self._new_msg(step.broadcast)
            self.sim.trace("bcast", self.pid, id=str(m.id), data=value_str(m.payload))
            self._emit(self.scd.scbroadcast(m))
        if step.result is not None:
            res = step.result
            kind, seq, _ = self.cur
            self._op_returned()
            out = {"op": kind, "seq": str(seq)}
            if res.kind == "write":
                out["ts"] = str(res.ts)
            elif res.kind == "read":
                out["v"] = value_str(res.values[0])
                out["ts"] = str(res.ts)
                out["tsa"] = ",".join(str(t) for t in res.tsa)
            else:
                out["vals"] = ",".join(value_str(v) for v in res.values)
                out["tsa"] = ",".join(str(t) for t in res.tsa)
            self.sim.trace("op_return", self.pid, **out)

    def _op_returned(self) -> None:
        self.cur = None
        if self.next_op < len(self.script):
            insort(self.sim.invokes, ("invoke", self.pid))

    def _new_msg(self, payload: bytes) -> AppMessage:
        m = AppMessage(MsgId(self.pid, self.msg_seq), payload)
        self.msg_seq += 1
        return m

    def _emit(self, fmsgs) -> None:
        for f in fmsgs:
            self.sim.fifo_broadcast(self.pid, f)


# ---------------------------------------------------------------------------
# the simulator


@dataclass
class RunResult:
    config: ScenarioConfig
    events: list
    status: str      # quiescent | stalled | budget
    steps: int

    @property
    def text(self) -> str:
        return render_trace(self.events)


def _forward_fields(fmsg: ForwardMsg) -> dict:
    """Trace fields of one FORWARD message, shared by send and recv records."""
    return {
        "m": str(fmsg.m.id),
        "sd": str(fmsg.sd),
        "sn": str(fmsg.sn_sd),
        "f": str(fmsg.f),
        "snf": str(fmsg.sn_f),
    }


class _Enabled:
    """The enabled events of a message-passing run, in the order the
    scheduler picks from: deliveries by channel index (sender-major), then
    invocations by process.  Delivery events are built only when picked."""

    __slots__ = ("n", "ready", "invokes")

    def __init__(self, n: int, ready: list, invokes: list):
        self.n, self.ready, self.invokes = n, ready, invokes

    def __len__(self) -> int:
        return len(self.ready) + len(self.invokes)

    def __getitem__(self, k: int):
        if k < len(self.ready):
            return _deliver_event(self.ready[k], self.n)
        return self.invokes[k - len(self.ready)]


def _deliver_event(idx: int, n: int):
    s, d = divmod(idx, n)
    return ("deliver", s + 1, d + 1)


# fifo policy without deliveries: finish work before starting new work
_WORK_ORDER = {"mem": 0, "apply": 1, "invoke": 2, "tick": 3}


class Simulator:
    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.events: list[TraceEvent] = []
        self.step = 0
        plan_rng = random.Random(f"{config.seed}:plan")
        self.sched_rng = random.Random(f"{config.seed}:sched")
        self.scripts = plan_ops(config, plan_rng)
        self.crash_plan = plan_crashes(config, random.Random(f"{config.seed}:crash"))
        self.alive = {i: True for i in range(1, config.n + 1)}
        self.policy, self.slow_set = parse_delay_policy(config.delay, config.n)
        self._cut = None  # (proc, sends remaining) during an interrupted handler
        self._send_seq = 0
        if config.workload in RW_WORKLOADS:
            msgs = {
                i: [
                    AppMessage(MsgId(i, k), op[1])
                    for k, op in enumerate(self.scripts[i])
                ]
                for i in self.scripts
            }
            self.world = RwWorld(config.n, msgs, config.mem)
            self.stacks = None
        else:
            self.world = None
            self.stacks = {
                i: MpStack(self, i, config, self.scripts[i])
                for i in range(1, config.n + 1)
            }
            # channel s -> d at index (s-1)*n + (d-1)
            self.channels = [deque() for _ in range(config.n * config.n)]
            self._ready = []  # sorted indices of the non-empty channels
            # sorted invoke events of the live processes that can_invoke()
            self.invokes = [("invoke", i) for i in self.stacks if self.scripts[i]]
            self._pid_text = [str(i) for i in range(config.n + 1)]
        self.trace("config", 0, **config.to_payload())

    # -- trace / transport hooks -----------------------------------------

    def trace(self, kind: str, proc: int, **payload) -> None:
        self.events.append(TraceEvent(self.step, kind, proc, payload))

    def fifo_broadcast(self, src: int, fmsg: ForwardMsg) -> None:
        """Send fmsg to every process, src included.  Its trace fields are
        formatted once here; each send record copies them, and each channel
        entry carries them for the recv record."""
        forward = _forward_fields(fmsg)
        n = self.config.n
        events, to_text = self.events, self._pid_text
        for dst in range(1, n + 1):
            if self._cut is not None and self._cut[0] == src:
                if self._cut[1] <= 0:
                    raise _CrashCut()
                self._cut = (src, self._cut[1] - 1)
            self._send_seq += 1
            events.append(TraceEvent(self.step, "send", src, {"to": to_text[dst], **forward}))
            if self.alive[dst]:
                idx = (src - 1) * n + dst - 1
                q = self.channels[idx]
                q.append((self._send_seq, fmsg, forward))
                if len(q) == 1:
                    insort(self._ready, idx)

    # -- event machinery --------------------------------------------------

    def enabled_events(self):
        if self.world is not None:
            return self.world.choices()
        return _Enabled(self.config.n, self._ready, self.invokes)

    def schedule_next(self, events):
        if self.policy == "fifo":
            if self.world is None and self._ready:
                # the oldest message at the head of a channel
                idx = min(self._ready, key=lambda i: self.channels[i][0][0])
                return _deliver_event(idx, self.config.n)
            # work starts (or continues) only when no delivery is ready
            return min(events, key=lambda ev: (_WORK_ORDER[ev[0]], ev[-1]))
        if self.policy == "slow":
            # an event ends with the process that acts on it (a delivery's receiver)
            if self.world is None:
                n = self.config.n
                fast = _Enabled(n, [i for i in self._ready if i % n + 1 not in self.slow_set],
                                [e for e in events.invokes if e[1] not in self.slow_set])
            else:
                fast = [e for e in events if e[-1] not in self.slow_set]
            if fast and self.sched_rng.random() < 0.9375:
                return fast[self.sched_rng.randrange(len(fast))]
        return events[self.sched_rng.randrange(len(events))]

    def execute(self, ev) -> None:
        if self.world is not None:
            self.world.step(ev, trace=self.trace)
        elif ev[0] == "deliver":
            _, s, d = ev
            idx = (s - 1) * self.config.n + d - 1
            q = self.channels[idx]
            _, fmsg, forward = q.popleft()
            if not q:
                del self._ready[bisect_left(self._ready, idx)]
            self.events.append(TraceEvent(
                self.step, "recv", d, {"from": self._pid_text[s], **forward}))
            self.stacks[d].on_network(fmsg)
        elif ev[0] == "invoke":
            self.stacks[ev[1]].invoke()
        else:
            raise AssertionError(ev)

    def execute_crash(self, proc: int, keep: Optional[int]) -> None:
        if self.world is not None:
            self.world.crash(proc)
        elif keep is not None:
            victim_ev = self._victim_event(proc)
            if victim_ev is not None:
                self._cut = (proc, keep)
                try:
                    self.execute(victim_ev)
                except _CrashCut:
                    pass
                finally:
                    self._cut = None
        self.alive[proc] = False
        if self.stacks is not None:
            if ("invoke", proc) in self.invokes:
                self.invokes.remove(("invoke", proc))
            n = self.config.n
            for idx in range(proc - 1, n * n, n):
                if self.channels[idx]:
                    self.channels[idx].clear()
                    del self._ready[bisect_left(self._ready, idx)]
        self.trace("crash", proc)

    def _victim_event(self, proc: int):
        """The event a mid-handler crash interrupts: the victim's oldest
        deliverable message, else its next invocation."""
        n = self.config.n
        heads = [(q[0][0], idx) for idx in range(proc - 1, n * n, n)
                 if (q := self.channels[idx])]
        if heads:
            return _deliver_event(min(heads)[1], n)
        if self.stacks[proc].can_invoke():
            return ("invoke", proc)
        return None

    def pending_work(self) -> bool:
        if self.world is not None:
            return False  # an empty choice set means every round finished
        return any(
            self.alive[i] and self.stacks[i].pending_work()
            for i in range(1, self.config.n + 1)
        )

    # -- the run loop ------------------------------------------------------

    def run(self) -> RunResult:
        while True:
            if self.step >= self.config.step_budget:
                status = "budget"
                break
            if self.crash_plan and self.crash_plan[0][0] <= self.step:
                _, proc, keep = self.crash_plan.pop(0)
                self.step += 1
                if self.alive[proc]:
                    self.execute_crash(proc, keep)
                continue
            events = self.enabled_events()
            if not events:
                status = "stalled" if self.pending_work() else "quiescent"
                break
            ev = self.schedule_next(events)
            self.step += 1
            self.execute(ev)
        self.trace(
            "end",
            0,
            status=status,
            steps=str(self.step),
            expected="1" if self.config.expected_nonterminating() else "0",
        )
        return RunResult(self.config, self.events, status, self.step)


def run_scenario(config: ScenarioConfig) -> RunResult:
    return Simulator(config).run()
