"""Deterministic discrete-event simulator with fault injection.

A scenario is a scalar config (process count, crash budget, seed, workload,
schedule policy, crash schedule, step budget).  One run executes one enabled
event per step, chosen by the schedule policy from a deterministic RNG, so a
config maps to a byte-identical trace every time.  Asynchrony is modeled
purely by adversarial event choice; there are no clocks.

Things the simulator injects or enforces:

  * FIFO reliable channels for the message-passing protocol; per-channel
    delivery order always equals send order.  A crashed receiver's channels
    are cleared and never refilled, so a non-empty channel is deliverable.
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
enabled but a live process's broadcast never completed, the signature of a
lost majority, decided from the RunData alone), or out of step budget.
Trace records are line-oriented, step|kind|proc|key=value..., of the kinds
in RECORD_KINDS; a run writes them to a TraceLog, which render_trace and
parse_trace turn into text and back (see their docstrings).

What each workload is, its world, the op that reads its object and whether
that object runs SYNC rounds, is its row of WORKLOAD_TABLE, and every
decision that depends on the workload reads the row, never the name.

As it runs, the simulator also fills the RunData that the checkers judge,
from the objects at hand where each record is written: the MsgId, the
delivered set and the OpResult, never the record text.  The records both
worlds write, bcast, scd_deliver and broadcast_complete (with a bcast op's
op_return), each have one Simulator method that writes the record and its
fact; RwWorld.step calls them on the simulator it is handed.  Each distinct
delivered set is one frozenset, with one text, per run (Simulator._sets).
Channel order is kept only in the log: check.check_fifo walks its send and
recv entries.  Simulator.run returns the RunData, and a simulated run is
judged from it; check.load_run reads the same facts back from the log of a
stored trace.  Both take the first record after a crash from _first_late,
the one crash-silence rule.

A message-passing run keeps its enabled events in one sorted list of event
tuples, Simulator.enabled: ("deliver", sender, receiver) for each non-empty
channel, then ("invoke", p) for each live process that may start an operation
(plain tuple order, as "deliver" < "invoke").  The list changes in place, by
Simulator._enable and _disable, only when a channel fills or empties, an
operation starts or returns, or a process crashes, so choosing an event scans
no channel and asks no process.  In both worlds an event's last item is the
process that acts on it.  Each delay policy picks without a scan:

  * uniform draws an index into the list.
  * slow keeps, by the same two helpers, a second sorted list of the events
    whose acting process is not slow, and draws from it (15 times in 16) or
    from the whole list.
  * fifo keeps a queue of (send number, channel index), one per send that
    reached a channel, in send order.  The oldest message in flight is the
    first entry still at its channel's head; an entry whose message is gone
    already is dropped as the pick meets it.  Messages leave out of send
    order when a crash's victim delivery takes its receiver's oldest message
    or a crashed receiver's channels are cleared.  With nothing in flight the
    lowest process starts its next operation.

An RwWorld's choices are built afresh each step, so they are filtered or
ordered as they come.  explore_rw enumerates every schedule of the same
world (see its docstring).
"""
from __future__ import annotations

import random
import re
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field, fields
from itertools import chain, islice
from typing import NamedTuple, Optional

from .core import AppMessage, MsgId, Timestamp, UsageError, format_id_set
from .scd_from_snapshot import RwProcess
from .scd_mp import ForwardMsg, ScdProcess
from .shared_objects import SnapshotObject, SwmrRegister



class Workload(NamedTuple):
    """A row of WORKLOAD_TABLE: what a workload is."""

    world: str              # "mp", message passing, or "rw", the shared-memory world
    read: Optional[str]     # the op that reads its object, read or snapshot; None: no object
    syncs: bool             # whether its object runs a SYNC round before each op
    single_writer: bool     # whether only config.writer writes


WORKLOAD_TABLE = {  # name: (world, read op, syncs, single writer)
    "raw_broadcast": Workload("mp", None, False, False),
    "snapshot_ops": Workload("mp", "snapshot", True, False),
    "register_ops": Workload("mp", "read", True, False),
    "swmr_register_ops": Workload("mp", "read", True, True),
    "sc_register_ops": Workload("mp", "read", False, False),
    "sc_snapshot_ops": Workload("mp", "snapshot", False, False),
    "rw_equivalence": Workload("rw", None, False, False),
}
WORKLOADS = tuple(WORKLOAD_TABLE)
MP_WORKLOADS = tuple(w for w in WORKLOADS if WORKLOAD_TABLE[w].world == "mp")
RW_WORKLOADS = tuple(w for w in WORKLOADS if WORKLOAD_TABLE[w].world == "rw")
MEM_MODES = ("atomic", "sc")  # SharedSnapshotMemory modes
END_STATUSES = ("quiescent", "stalled", "budget")  # how Simulator.run ends
RECORD_KINDS = frozenset((  # every kind of trace record a run writes
    "config", "send", "recv", "bcast", "scd_deliver", "broadcast_complete",
    "crash", "op_invoke", "op_return", "mem_write", "mem_snapshot", "mem_apply",
    "end",
))


# ---------------------------------------------------------------------------
# config

# the config record's payload keys, one per field in field order; they are
# also the scenario flags of the command line
_PAYLOAD_KEYS = ("n", "t", "workload", "ops", "crash", "delay", "seed", "budget",
                "nregs", "mem", "writer")


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
        if self.mem not in MEM_MODES:
            raise UsageError(f"unknown memory mode {self.mem!r}")
        if not 1 <= self.writer <= self.n:
            raise UsageError("writer must be a process id")
        parse_crash_schedule(self.crash, self.n)
        parse_delay_policy(self.delay, self.n)

    @property
    def spec(self) -> Workload:
        """The workload's row of WORKLOAD_TABLE."""
        return WORKLOAD_TABLE[self.workload]

    @property
    def slots(self) -> int:
        """Width of the shared object: a register is the one-slot snapshot."""
        return self.nregs if self.spec.read == "snapshot" else 1

    def crash_count(self) -> int:
        plan = parse_crash_schedule(self.crash, self.n)
        if plan == []:
            return 0
        if isinstance(plan, tuple):
            return plan[1]
        return len(plan)

    def loses_liveness(self, crashes: int) -> bool:
        """The liveness rule: a message-passing run needs a correct majority,
        so with `crashes` at half of n or more it may never end.  Such runs
        are labeled rather than treated as failures."""
        return self.spec.world == "mp" and 2 * crashes >= self.n

    def expected_nonterminating(self) -> bool:
        """Whether the planned crashes lose liveness."""
        return self.loses_liveness(self.crash_count())

    def to_payload(self) -> dict:
        return {k: str(getattr(self, f.name))
                for k, f in zip(_PAYLOAD_KEYS, fields(self), strict=True)}

    @staticmethod
    def from_payload(p: dict) -> "ScenarioConfig":
        cast = {"int": int, "str": str}  # field annotations are strings here
        return ScenarioConfig(**{
            f.name: cast[f.type](p[k])
            for k, f in zip(_PAYLOAD_KEYS, fields(ScenarioConfig), strict=True)
        })


def parse_crash_schedule(text: str, n: int):
    if text == "none":
        return []
    # the config's t is the resilience assumption, not a cap: boundary experiments
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
            step_i, keep_i = _spec_int(step, text), _spec_int(keep, text) if keep else None
            if min(step_i, keep_i or 0) < 0:
                raise UsageError(f"negative step or keep in crash item {item!r}")
            out.append((step_i, proc_i, keep_i))
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


class TraceLog:
    """A run's records, in order, as one log of entries: the log a simulated
    run writes, or the one parse_trace reads back from its text.  The log is
    one flat list, `rows`, five slots per entry: (delta, kind, proc,
    payload, last).

      * delta is the entry's step less the step of the entry before it, or
        less 0 for the first entry; a step is the sum of the deltas up to
        its entry.  A run writes its entries in step order, so a delta is
        0 or a few steps, one of the small ints CPython shares, and no log
        holds an int object per step.
      * kind and proc are those of every record the entry stands for.
      * last is None for one record whose payload slot holds its keys and
        values in order, (k1, v1, k2, v2, ...).  Otherwise the entry is a
        FORWARD's, which are nearly all of a run's records, and its payload
        is the FORWARD's shared tuple of field texts, in _FORWARD_KEYS
        order.  One fifo-broadcast is a "send" entry whose last is its
        reach, standing for its send records to processes 1..reach, and
        one delivery a "recv" entry whose last is the sender's text.

    So an entry costs its five list slots and nothing of its own: its items
    are small ints, strings, tuples of strings and None, which the cyclic
    collector untracks.  Each distinct field value has one text in a
    simulated or parsed log, so all FORWARDs of one message share its m, sd
    and sn strings.  Readers outside this module take the entries as
    5-tuples from entries().

    len() is the record count, so record indices (an op's invoke_idx and
    return_idx) index the records that iteration yields.  Iteration builds
    each record afresh as a TraceEvent with its absolute step and its own
    payload dict, and keeps none: the rows are the log, and every reader
    sees what they hold."""

    __slots__ = ("rows", "extra")

    def __init__(self):
        self.rows = []
        self.extra = 0  # records minus entries: reach - 1 per send entry

    @staticmethod
    def of(records) -> "TraceLog":
        """A log of one entry per record given, each with its payload's
        fields, a FORWARD's records too."""
        log = TraceLog()
        extend, step = log.rows.extend, 0
        for ev in records:
            extend((ev.step - step, ev.kind, ev.proc, _flat(ev.payload), None))
            step = ev.step
        return log

    def entries(self):
        """The entries in order, each as a (delta, kind, proc, payload,
        last) tuple."""
        rows = iter(self.rows)
        return zip(rows, rows, rows, rows, rows)

    def __len__(self) -> int:
        return len(self.rows) // 5 + self.extra

    def __iter__(self):
        step = 0
        for delta, kind, proc, payload, last in self.entries():
            step += delta
            yield from _records_of(step, kind, proc, payload, last)

    def remove(self, record) -> None:
        """Remove the first record equal to record, as list.remove does.  The
        entry that holds it gives way to one entry per other record it
        stood for, so render_trace and check.load_run see the removal too."""
        rows, step = self.rows, 0
        for k, (delta, kind, proc, payload, last) in enumerate(self.entries()):
            step += delta
            records = _records_of(step, kind, proc, payload, last)
            if record in records:
                records.remove(record)
                piece = TraceLog.of(records).rows
                if piece:
                    piece[0] = delta
                elif 5 * k + 5 < len(rows):
                    rows[5 * k + 5] += delta  # the next entry's step stays
                rows[5 * k:5 * k + 5] = piece
                self.extra -= len(records)
                return
        raise ValueError("TraceLog.remove(x): x not in log")


_FORWARD_KEYS = ("m", "sd", "sn", "f", "snf")  # a FORWARD's trace fields


def _flat(payload: dict) -> tuple:
    """A payload's keys and values in order: (k1, v1, k2, v2, ...)."""
    return tuple(chain.from_iterable(payload.items()))


def _records_of(step: int, kind: str, proc: int, payload: tuple, last) -> list:
    """The records, at `step`, of one TraceLog entry past its delta, each
    payload in the key order of its fields, or for a FORWARD's entry in the
    sorted key order of its line."""
    new = tuple.__new__
    if last is None:
        return [new(TraceEvent, (step, kind, proc, dict(zip(payload[::2], payload[1::2]))))]
    m, sd, sn, f, snf = payload
    if kind == "send":
        return [new(TraceEvent, (step, kind, proc, {"f": f, "m": m, "sd": sd, "sn": sn,
                                                   "snf": snf, "to": str(dst)}))
                for dst in range(1, last + 1)]
    return [new(TraceEvent, (step, kind, proc, {"f": f, "from": last, "m": m, "sd": sd,
                                               "sn": sn, "snf": snf}))]


def render_trace(log: TraceLog) -> str:
    """One line per record of log: step|kind|proc|key=value..., keys sorted.

    Entries whose fields list the same keys in the same order share one
    format string, built (and its keys sorted) once per call.  A FORWARD's
    lines are written from its entries: the field text of each FORWARD is
    joined once per call for its send records and once for its recv
    records, and the send lines of one fan-out are one string."""
    formats = {}
    recv_text = {}  # id of a FORWARD's field texts -> its recv line around "from"
    tails = Memo(lambda reach: [*map(str, range(1, reach)), f"{reach}\n"])
    lines = []
    append = lines.append
    step = 0
    for delta, kind, proc, payload, last in log.entries():
        step += delta
        if last is None:
            keys = payload[::2]
            fmt = formats.get(keys)
            if fmt is None:
                fmt = formats[keys] = _line_format(keys)
            append(fmt(step, kind, proc, *payload))
            continue
        if kind == "send":
            head = f"{step}|send|{proc}|{_field_text(payload)} to="
            append(head + ("\n" + head).join(tails[last]))
        else:
            around = recv_text.get(id(payload))
            if around is None:
                f, _, rest = _field_text(payload).partition(" ")
                around = recv_text[id(payload)] = (f"{f} from=", f" {rest}\n")
            append(f"{step}|recv|{proc}|{around[0]}{last}{around[1]}")
    return "".join(lines)


# A FORWARD's field text: its fields by sorted key.  A send line adds " to=",
# which sorts last, and a recv line "from=" after the f field.
_FIELD_TEXT = re.compile("f=([^ ]*) m=([^ ]*) sd=([^ ]*) sn=([^ ]*) snf=([^ ]*)")


def _field_text(values: tuple) -> str:
    m, sd, sn, f, snf = values
    return f"f={f} m={m} sd={sd} sn={sn} snf={snf}"


def _forward_of(text: str, texts: dict) -> Optional[tuple]:
    """The field tuple, in _FORWARD_KEYS order, of a FORWARD's field text,
    or None for any other text.  Each field is looked up in texts, so one
    distinct field value has one text across every FORWARD that holds it."""
    match = _FIELD_TEXT.fullmatch(text)
    if match is None:
        return None
    f, m, sd, sn, snf = map(texts.__getitem__, match.groups())
    return (m, sd, sn, f, snf)


def _line_format(keys: tuple):
    """str.format of a record line, taking step, kind, proc and then the
    fields of an entry whose keys are `keys`, and writing them by sorted key."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    fields = " ".join(
        f"{keys[i]}".replace("{", "{{").replace("}", "}}") + f"={{{2 * i + 4}}}" for i in order)
    return ("{0}|{1}|{2}|" + fields + "\n").format


class Memo(dict):
    """A table that computes each missing entry once, with make(key)."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


_CHUNK_CHARS = 1 << 16  # the least length of a chunk of lines that parse_trace splits


def _chunks(text: str):
    """text in consecutive pieces of at least _CHUNK_CHARS characters, the
    last one maybe shorter, each ending just after a newline or at the end
    of text.  A newline always ends a line of str.splitlines, and never
    starts a two-character break ("\r\n"), so splitting each piece gives
    the lines of text.splitlines() in order, though no list of them all."""
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start + _CHUNK_CHARS - 1) + 1 or size
        yield text[start:end]
        start = end


def parse_trace(text: str) -> TraceLog:
    """The records of a rendered trace, equal to the ones rendered, as a
    TraceLog of the entries the simulator writes.

    A run of send lines that share a step, a proc and a FORWARD's field text
    ("f=.. m=.. sd=.. sn=.. snf=..", exactly these keys) and end in to=1,
    to=2, ... to=reach is one send entry, and a recv line of that field
    text with its from= field after f= one recv entry.  A line that extends
    the run is told by its text alone: it is the run's first line up to
    "to=", then the next number, so it is not split, and it rewrites only
    the entry's last slot, its reach.  The field tuple of
    each distinct field text, and what each distinct recv payload holds, are
    worked out once per call, so the entries of one FORWARD share one
    field tuple, and its send and recv records share its strings.
    Every other line is one entry whose payload is its fields: each distinct
    field text is split once per call, and each distinct payload text before
    the last field turned into its fields once, which later entries with
    that head extend by their last field (a key given twice keeps its first
    place and its last value, as in a dict).  So equal field texts, and
    equal kinds, are one string object, as they are in the simulator's
    entries.  A FORWARD's field values, and a recv line's from= text, are
    one string per distinct text, shared across forwarders.  An entry's
    delta is its step less the last entry's, 0 unless its line's step text
    differs from the line before.  The lines are split a bounded chunk at a
    time (_chunks)."""
    if text and not text.endswith("\n"):
        # render_trace ends every record with a newline
        raise TraceParseError(f"line {len(text.splitlines())}: trace ends mid-record")
    log = TraceLog()
    rows = log.rows
    extend = rows.extend
    fields = Memo(lambda chunk: chunk.partition("=")[::2])

    def head_of(head):  # (payload dict, its flat fields) of a payload head
        payload = dict(map(fields.__getitem__, head.split(" ")))
        return payload, _flat(payload)

    heads = Memo(head_of)
    texts = Memo(str)  # each distinct FORWARD field text once: str(s) is s
    forwards = Memo(lambda head: _forward_of(head, texts))

    def recv_of(body):  # (field tuple, src text) of a recv payload in the exact form
        chunks = body.split(" ", 2)
        if len(chunks) < 3 or chunks[1][:5] != "from=":
            return None
        fwd = forwards[f"{chunks[0]} {chunks[2]}"]
        return None if fwd is None else (fwd, texts[chunks[1][5:]])

    recvs = Memo(recv_of)
    kinds = {}
    step_text, step = None, 0  # the last line's step text, and its step
    # the last entry's line up to its to value while it is a send entry, and
    # its reach; no line holds "\n"
    run_text, reach = "\n", 0
    extra = 0  # send lines folded into the entry before them
    lines = chain.from_iterable(map(str.splitlines, _chunks(text)))
    for lineno, line in enumerate(lines, start=1):
        if line.startswith(run_text) and line[len(run_text):] == str(reach + 1):
            reach += 1
            rows[-1] = reach
            extra += 1
            continue
        run_text = "\n"
        parts = line.split("|", 3)
        if len(parts) != 4:
            if not line.strip():
                continue  # a blank line holds no "|"
            raise TraceParseError(f"line {lineno}: want step|kind|proc|payload")
        s, kind, p, body = parts
        delta = 0  # this entry's step less the last one's
        try:
            if s != step_text:  # the records of one step are adjacent
                new = int(s)
                delta, step, step_text = new - step, new, s
            proc = int(p)
        except ValueError as e:
            raise TraceParseError(f"line {lineno}: {e}") from None
        if kind == "send":
            head, _, last = body.rpartition(" ")
            fwd = forwards[head]
            if fwd is not None and last == "to=1":
                run_text, reach = line[:-1], 1
                extend((delta, "send", proc, fwd, 1))
                continue
        elif kind == "recv":
            recv = recvs[body]
            if recv is not None:
                extend((delta, "recv", proc, *recv))
                continue
        kind = kinds.setdefault(kind, kind)
        flat = ()
        if body:
            head, sep, last = body.rpartition(" ")
            flat = fields[last]
            if sep:  # the head may be empty: " x=1" has the field "" too
                payload, head_flat = heads[head]
                # a key given twice keeps its first place and its last value
                flat = (head_flat + flat if flat[0] not in payload
                        else _flat({**payload, flat[0]: flat[1]}))
        extend((delta, kind, proc, flat, None))
    log.extra = extra
    return log


def value_str(v: bytes) -> str:
    return v.hex() if v else "-"


def value_parse(s: str) -> bytes:
    return b"" if s == "-" else bytes.fromhex(s)


# ---------------------------------------------------------------------------
# shared snapshot memory (for the rw construction)


class SharedSnapshotMemory:
    """SENT/SETSEQ arrays of single-writer entries, and a write queue per
    process, all in one map `store`: ("SENT", i), ("SETSEQ", i) and
    ("queue", i) are process i's entries.

    atomic mode applies writes at invocation.  sc mode queues each process's
    writes and applies them later (apply_one), except that a snapshot by the
    owner first flushes its own queue; per-process order is preserved, so the
    result is sequentially consistent but deliberately not linearizable.
    Each queue is a tuple, replaced on every change, so a clone copies one
    small dict and shares every entry.
    """

    def __init__(self, n: int, mode: str = "atomic"):
        if mode not in MEM_MODES:
            raise UsageError(f"unknown memory mode {mode!r}")
        self.n = n
        self.mode = mode
        self.store = {}
        for obj, empty in (("SENT", frozenset()), ("SETSEQ", ()), ("queue", ())):
            for i in range(1, n + 1):
                self.store[(obj, i)] = empty

    def execute(self, pid: int, op):
        if op[0] == "write":
            _, obj, idx, val = op
            if idx != pid:
                raise UsageError(f"p{pid} writing single-writer entry of p{idx}")
            if self.mode == "sc":
                self.store[("queue", pid)] += ((obj, idx, val),)
            else:
                self.store[(obj, idx)] = val
            return None
        _, obj = op
        self.flush(pid)
        pad = () if obj == "SETSEQ" else frozenset()
        return (pad,) + tuple(self.store[(obj, i)] for i in range(1, self.n + 1))

    def flush(self, pid: int) -> None:
        for obj, idx, val in self.store[("queue", pid)]:
            self.store[(obj, idx)] = val
        self.store[("queue", pid)] = ()

    def apply_one(self, pid: int):
        q = self.store[("queue", pid)]
        obj, idx, val = q[0]
        self.store[("queue", pid)] = q[1:]
        self.store[(obj, idx)] = val
        return obj, idx

    def visible_sent_union(self) -> frozenset:
        out = frozenset()
        for i in range(1, self.n + 1):
            out |= self.store[("SENT", i)]
        return out

    def clone(self) -> "SharedSnapshotMemory":
        c = SharedSnapshotMemory.__new__(SharedSnapshotMemory)
        c.n, c.mode = self.n, self.mode
        c.store = dict(self.store)
        return c

    def state_key(self):
        # store keeps its insertion order (SENT 1..n, SETSEQ 1..n, then
        # queue 1..n) through writes and clones
        return tuple(self.store.values())


# ---------------------------------------------------------------------------
# the shared-memory world (driven by the simulator or by the explorer)


class RwWorld:
    """Processes of the shared-memory construction plus their memory and the
    per-process scripts of messages still to broadcast.  The k-th message of
    process i's script must be MsgId(i, k), as the simulator plans it.

    Its components are exactly the processes, each holding its script
    position and liveness, and the memory's single-writer entries: SENT[i],
    SETSEQ[i] and queue i.  READS says which of them each process's choices
    read, which is what the explorer keys its successor tables on.
    """

    def __init__(self, n: int, scripts: dict, mem_mode: str = "atomic"):
        if n < 1:
            raise UsageError("n must be >= 1")
        for i, script in scripts.items():
            if i not in range(1, n + 1):
                raise UsageError(f"script of {i!r}, not a process id in 1..{n}")
            for k, m in enumerate(script):
                if m.id != MsgId(i, k):
                    raise UsageError(f"message {k} of p{i}'s script is {m.id}, not {i}.{k}")
        self.n = n
        self.procs = {i: RwProcess(i, n) for i in range(1, n + 1)}
        self.memory = SharedSnapshotMemory(n, mem_mode)
        self.scripts = {i: list(scripts.get(i, ())) for i in range(1, n + 1)}

    # What process i's choices and their steps read of the memory besides
    # its own entries SENT[i], SETSEQ[i] and queue i: the arrays named here,
    # by the stage of its open frame (None: no frame, where whether its tick
    # is enabled reads every SENT entry).  They write only process i and its
    # own entries.
    READS = {None: ("SENT",), "sent_snap": ("SENT",), "catch_snap": ("SETSEQ",),
             "sent_write": (), "catch_write": (), "deliver_write": ()}

    def choices(self, pids=None) -> list:
        """The choices of processes `pids` (default 1..n), in pid order.
        Those of process i read only process i, its own entries, what READS
        names of the memory, and script i."""
        out = []
        store = self.memory.store
        visible = None  # the SENT union, computed once an idle process asks
        for i in pids or range(1, self.n + 1):
            p = self.procs[i]
            if not p.alive:
                continue
            if p.frame is not None:
                out.append(("mem", i))
            else:
                if p.next_op < len(self.scripts[i]):
                    out.append(("invoke", i))
                if visible is None:
                    visible = self.memory.visible_sent_union()
                if not visible <= p.delivered:
                    out.append(("tick", i))
            if store[("queue", i)]:
                out.append(("apply", i))
        return out

    def step(self, choice, sim=None) -> None:
        """Run one choice.  The simulator passes itself, to write the
        step's records and their facts; the explorer passes nothing."""
        tag, i = choice
        p = self.procs[i]
        if tag == "invoke":
            k = p.next_op
            p.next_op = k + 1
            m = self.scripts[i][k]
            if sim:
                sim.trace("op_invoke", i, "op", "bcast", "seq", str(k))
                sim.record_bcast(i, m.id, m.payload)
            p.start_broadcast(m)
        elif tag == "tick":
            p.start_tick()
        elif tag == "mem":
            frame = p.frame
            op = p.pending_memop()
            if sim:
                if op[0] == "write":
                    sim.trace("mem_write", i, "index", str(op[2]), "obj", op[1])
                else:
                    sim.trace("mem_snapshot", i, "obj", op[1])
            result = self.memory.execute(i, op)
            delivered = p.complete_memop(result)
            if sim:
                if delivered is not None:
                    sim.record_scd_deliver(i, delivered)
                # a round runs alone, so a finished broadcast round is op next_op - 1
                if p.frame is None and frame.kind == "broadcast":
                    sim.record_broadcast_complete(i, frame.msg.id, p.next_op - 1)
        else:  # apply, the only other tag
            obj, idx = self.memory.apply_one(i)
            if sim:
                sim.trace("mem_apply", i, "index", str(idx), "obj", obj)

    def crash(self, i: int) -> None:
        """Crash process i, dropping its queued writes: it writes only
        process i and queue i."""
        self.procs[i].alive = False
        self.memory.store[("queue", i)] = ()

    def clone(self, i: int) -> "RwWorld":
        """A copy to run one step of process i on.  Only process i and the
        memory are copied: a step of i mutates no other process, so the copy
        shares them with self.  The explorer copies components itself;
        perfbench's traced spans name this method."""
        c = RwWorld.__new__(RwWorld)
        c.n = self.n
        c.procs = dict(self.procs)
        c.procs[i] = self.procs[i].clone()
        c.memory = self.memory.clone()
        c.scripts = self.scripts  # scripts are never mutated
        return c

    def state_key(self) -> tuple:
        """The global state as nested tuples: the memory's key, then the key
        of each process 1..n.  The explorer keys by interned component ids
        instead; perfbench's traced spans name this method."""
        return (self.memory.state_key(), *(p.state_key() for p in self.procs.values()))


def explore_rw(n: int, scripts: dict, mem_mode: str = "atomic", state_limit: int = 2_000_000):
    """Enumerate every schedule of the shared-memory construction by a
    sweep-line search over a progress measure, deduplicating identical
    global states.

    Every run of the world is a path through a finite acyclic state graph
    (each step strictly consumes script items, queue entries, frame progress
    or undelivered messages), so the distinct terminal states cover every
    interleaving's observable outcome.

    A state is its key: one int packing an interned id per component of the
    world, each process (its script position and liveness included) and
    each single-writer entry of the memory (SENT[j], SETSEQ[j] and, in sc
    mode, queue j; an atomic memory's queues stay empty), with the state's
    progress measure M above them all.  Each field has its own intern
    table.  A process id maps to one canonical object, never mutated once
    interned; an entry id maps to its value, which is immutable.

    M is the sum over processes of next_op and the size of the delivered
    set, plus twice the size of each SENT entry and twice the length of each
    SETSEQ entry, plus the length of each queue.  No step lowers it: an
    invoke adds 1, a write adds 2 to its entry (in sc mode 1 when queued and
    1 when applied or flushed), a delivery adds its set's size, and a tick
    or a snapshot's result leaves it as it was.  The search (a sweep-line:
    Christensen, Kristensen & Mailund, TACAS 2001) finishes one level of M
    before the next, lowest first, each by DFS from the states that reached
    it.  Each level has its own set of seen keys and its own stack, and no
    edge leads back to a finished level, so its set is dropped when it is
    finished: the search holds the keys of the level it is on and of the
    levels above it reached so far, never those behind it.  Terminals come
    out in M order, in DFS order within a level; that order depends only on
    the inputs.

    Process i's choices, and what each of them steps to, read only process
    i (and script i, which is fixed), its own entries, and the arrays
    RwWorld.READS names for its frame; a step writes only process i and its
    own entries.  So one successor table per process maps those fields of a
    key, its read set, to the differences that process i's choices add to
    the key, in choice order.  M's rise is worked out from process i and its
    own entries before and after the step and added into the difference,
    so a key plus a difference holds its successor's level; a rise below
    zero raises RuntimeError, once per table entry.  The read set depends
    only on process i's state, so its mask is computed once per interned
    process id.  A state costs n table lookups and one add per successor,
    and is terminal when every group is empty; a write by another process
    misses process i's table only while i is idle or about to snapshot the
    array written.  Only a table miss loads the key's entries into the
    scratch world's memory, lists process i's choices (RwWorld.choices) and
    steps each one (RwWorld.step) on a clone of process i that shares its
    immutable field values (apply, which writes no process, on the canonical
    one).  No field and no memory is copied: the own entries a step changed
    are interned, then put back for the next choice.  Each distinct local
    transition is therefore stepped once.

    Field widths come from the inputs.  Each field has its own ids, and a
    new id comes with a successor key never seen before, one per choice; all
    but those of the last table miss (at most 3 choices) were counted as
    states, so a field's ids stay below state_limit + 3, and no input
    overflows a field.  M, the top field, needs no fixed width.

    Returns (terminal worlds in M order, states visited); raises UsageError
    once more than state_limit states are seen.
    """
    w = RwWorld(n, scripts, mem_mode)  # the root, then the scratch world
    procs, store = w.procs, w.memory.store
    entries = [slot for slot in store if mem_mode == "sc" or slot[0] != "queue"]
    # key fields from the low bits up: field f < n for process f + 1, then
    # field n + e for entries[e], then M from bit level_shift
    id_bits = (max(state_limit, 1) + 2).bit_length()
    id_mask = (1 << id_bits) - 1
    shift = [f * id_bits for f in range(n + len(entries))]
    level_shift = len(shift) * id_bits
    # per field: state key (process) or value (entry) -> id, and id -> object
    ids = [{} for _ in shift]
    objs = [[] for _ in shift]

    def intern(f: int, obj, k) -> int:
        i = ids[f].setdefault(k, len(objs[f]))
        if i == len(objs[f]):
            objs[f].append(obj)
            if f < n:
                masks[f].append(read_mask(f + 1, obj))
        return i

    def fields(*fs) -> int:
        return sum(id_mask << shift[f] for f in fs)

    arrays = {obj: fields(*(f for f, e in enumerate(entries, n) if e[0] == obj))
              for obj in ("SENT", "SETSEQ")}
    own = [[f for f, e in enumerate(entries, n) if e[1] == i] for i in range(1, n + 1)]
    always = [fields(i - 1, *own[i - 1]) for i in range(1, n + 1)]
    masks = [[] for _ in range(n)]  # per process: interned id -> read-set mask
    reads = RwWorld.READS

    def read_mask(i: int, p: RwProcess) -> int:
        m = always[i - 1]
        for obj in reads[p.frame.stage if p.frame else None]:
            m |= arrays[obj]
        return m

    # the root's M is 0: nothing is invoked, written or delivered
    root = sum(intern(i - 1, p, p.state_key()) << shift[i - 1] for i, p in procs.items())
    loaded = []  # per entry: (field, slot, values)
    for f, slot in enumerate(entries, n):
        root += intern(f, store[slot], store[slot]) << shift[f]
        loaded.append((f, slot, objs[f]))
    weight = {"SENT": 2, "SETSEQ": 2, "queue": 1}  # M per element of an entry
    mine = [[(f, slot, values, weight[slot[0]]) for f, slot, values in loaded if slot[1] == i]
            for i in range(1, n + 1)]

    def successors(i: int, key: int) -> tuple:
        """The key differences of process i's choices at `key`."""
        f_proc = i - 1
        proc_id = key >> shift[f_proc] & id_mask
        proc = procs[i] = objs[f_proc][proc_id]
        for f, slot, values in loaded:
            store[slot] = values[key >> shift[f] & id_mask]
        out = []
        for c in w.choices((i,)):
            procs[i] = p = proc if c[0] == "apply" else proc.clone()
            w.step(c)
            diff = rise = 0
            if p is not proc:
                diff = intern(f_proc, p, p.state_key()) - proc_id << shift[f_proc]
                rise = p.next_op - proc.next_op + len(p.delivered) - len(proc.delivered)
            for f, slot, values, per in mine[f_proc]:
                v = store[slot]
                k = key >> shift[f] & id_mask
                if v is not values[k]:
                    diff += intern(f, v, v) - k << shift[f]
                    rise += per * (len(v) - len(values[k]))
                    store[slot] = values[k]
            if rise < 0:
                raise RuntimeError(f"p{i}'s {c[0]} lowers the progress measure by {-rise}")
            out.append(diff + (rise << level_shift))
        return tuple(out)

    memories = {}  # by the entry fields
    entry_mask = (1 << level_shift) - (1 << shift[n])

    def world_at(key: int) -> RwWorld:
        """A world of the canonical objects of `key`, owning its process
        dict; the worlds of one exploration share a memory where its entries
        agree."""
        t = RwWorld.__new__(RwWorld)
        t.n, t.scripts = n, w.scripts
        t.procs = {i: objs[i - 1][key >> shift[i - 1] & id_mask] for i in range(1, n + 1)}
        top = key & entry_mask
        m = memories.get(top)
        if m is None:
            m = memories[top] = SharedSnapshotMemory(n, mem_mode)
            for f, slot in enumerate(entries, n):
                m.store[slot] = objs[f][key >> shift[f] & id_mask]
        t.memory = m
        return t

    groups = [(i, {}, masks[i - 1], shift[i - 1]) for i in range(1, n + 1)]
    # by M: (keys seen, DFS stack) of each level reached and not finished
    levels = Memo(lambda level: (set(), []))
    levels[0] = ({root}, [root])
    states = 1
    terminals = []
    while levels:
        level = min(levels)
        stack = levels[level][1]
        while stack:
            key = stack.pop()
            terminal = True
            for i, table, read_masks, proc_shift in groups:
                local_key = key & read_masks[key >> proc_shift & id_mask]
                group = table.get(local_key)
                if group is None:
                    group = table[local_key] = successors(i, key)
                if not group:
                    continue
                terminal = False
                for d in group:
                    k = key + d
                    seen, todo = levels[k >> level_shift]
                    if k not in seen:
                        if states >= state_limit:
                            raise UsageError(f"state limit {state_limit} exceeded")
                        states += 1
                        seen.add(k)
                        todo.append(k)
            if terminal:
                terminals.append(world_at(key))
        del levels[level]
    return terminals, states


# ---------------------------------------------------------------------------
# workload planning


def plan_ops(config: ScenarioConfig, rng: random.Random) -> dict:
    """Per-process operation scripts; op_count is the total across processes."""
    per_proc = {i: [] for i in range(1, config.n + 1)}
    counts = {i: config.op_count // config.n for i in per_proc}
    for i in range(1, config.op_count % config.n + 1):
        counts[i] += 1
    read = config.spec.read
    for i in per_proc:
        for k in range(counts[i]):
            val = f"{i}.{k}".encode("ascii")
            if read is None:
                op = ("bcast", val)
            elif config.spec.single_writer:
                op = ("write", 1, val) if i == config.writer and rng.random() < 0.7 else (read,)
            elif rng.random() < 0.5:
                op = (read,)
            else:  # a register write draws no slot
                op = ("write", rng.randint(1, config.nregs) if read == "snapshot" else 1, val)
            per_proc[i].append(op)
    return per_proc


def _estimated_steps(config: ScenarioConfig) -> int:
    n, spec = config.n, config.spec
    per_op = 6 * n if spec.world == "rw" else (1 + spec.syncs) * (2 * n * n + 4)
    return config.op_count * per_op + 10


def plan_crashes(config: ScenarioConfig, rng: random.Random) -> list:
    sched = parse_crash_schedule(config.crash, config.n)
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
    spec = config.spec
    if spec.read is None:
        return None
    if spec.single_writer:
        return SwmrRegister(pid, config.writer)
    return SnapshotObject(pid, config.slots, synchronized=spec.syncs)


class _CrashCut(Exception):
    """Internal: aborts the handler a mid-handler crash interrupts."""


# ---------------------------------------------------------------------------
# the facts of a run, and the simulator


@dataclass(slots=True)
class OpRecord:
    proc: int
    seq: int
    kind: str                 # snapshot | read | write; "bcast" only in Simulator.cur
    r: Optional[int] = None
    value: Optional[bytes] = None
    result_values: Optional[tuple] = None
    ts: Optional[Timestamp] = None
    tsa: Optional[tuple] = None
    invoke_idx: int = -1
    return_idx: Optional[int] = None

    @property
    def label(self) -> str:
        return f"p{self.proc}#{self.seq}:{self.kind}"


@dataclass
class RunData:
    """What the checkers judge of one run: its log, and each fact the log's
    text would only spell, held once.  Simulator.run fills it from the
    objects at each record's site as the run goes and returns it;
    check.load_run reads it back from the log of a parsed trace.  Both give
    equal fields for one run.  Channel order is the log's alone: no field
    repeats it."""

    config: ScenarioConfig
    events: TraceLog  # the simulated or parsed log
    status: Optional[str]  # an END_STATUSES entry; None until the end record
    steps: int = 0                                   # as the end record says
    faulty: set = field(default_factory=set)
    broadcasts: dict = field(default_factory=dict)   # MsgId -> (sender, payload)
    logs: dict = field(default_factory=dict)         # proc -> [frozenset[MsgId]]
    completed: dict = field(default_factory=dict)    # proc -> set[MsgId] (bcast done)
    sends: dict = field(default_factory=dict)        # MsgId -> FORWARD sends
    late: Optional[tuple] = None  # the 5-slot entry of the first record after its crash
    writes: dict = field(default_factory=dict)       # MsgId -> WritePayload
    ops: list = field(default_factory=list)          # OpRecords by invocation

    @staticmethod
    def start(config: ScenarioConfig, events: TraceLog) -> "RunData":
        """The facts before the first record: an empty log and an empty
        completed set per process."""
        procs = range(1, config.n + 1)
        return RunData(config, events, None, logs={i: [] for i in procs},
                       completed={i: set() for i in procs})

    @property
    def text(self) -> str:
        return render_trace(self.events)


def _first_late(log: TraceLog, start: int) -> Optional[tuple]:
    """The crash-silence rule, over the entries of log from index start on,
    which hold every crash record: the entry of the first record by a
    process after its crash record.  A config or end record is the run's,
    whatever process it names."""
    faulty = set()
    for e in islice(log.entries(), start, None):
        if e[2] in faulty and e[1] != "config" and e[1] != "end":
            return e
        if e[1] == "crash":
            faulty.add(e[2])
    return None


# fifo policy in a shared-memory run: finish work before starting new work
_WORK_ORDER = {"mem": 0, "apply": 1, "invoke": 2, "tick": 3}


class Simulator:
    """The only owner of a run's state.  A message-passing run keeps each
    process in per-pid lists (index 0 unused): its broadcast layer `scd`, its
    object layer `obj` (None for a workload without an object), the index
    of its next scripted operation `next_op`, its open operation `cur` and
    the sequence number of its next message `msg_seq`.  The handlers below
    act for one process, one method per event kind.  A shared-memory run
    drives an RwWorld instead, whose steps write the records both worlds
    share through the record_* methods.  run() returns the RunData it
    filled, whose `faulty` is the only record of who crashed."""

    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.log = TraceLog()
        self._log_extend = self.log.rows.extend
        self.step = 0
        self._written = 0  # the step of the last entry written
        plan_rng = random.Random(f"{config.seed}:plan")
        self.sched_rng = random.Random(f"{config.seed}:sched")
        self.scripts = plan_ops(config, plan_rng)
        self.crash_plan = plan_crashes(config, random.Random(f"{config.seed}:crash"))
        self.policy, self.slow_set = parse_delay_policy(config.delay, config.n)
        self._cut = None  # the victim's sends remaining during an interrupted handler
        self._send_seq = 0
        self.data = RunData.start(config, self.log)  # filled as the run goes
        self._first_crash = 0  # entry index of the first crash record, once there is one
        # each distinct delivered set, and its trace text, once per run
        self._sets = Memo(lambda ids: (ids, format_id_set(ids)))
        if config.spec.world == "rw":
            msgs = {
                i: [
                    AppMessage(MsgId(i, k), op[1])
                    for k, op in enumerate(self.scripts[i])
                ]
                for i in self.scripts
            }
            self.world = RwWorld(config.n, msgs, config.mem)
        else:
            self.world = None
            procs = range(1, config.n + 1)
            self.scd = [None, *(ScdProcess(i, config.n) for i in procs)]
            self.obj = [None, *(make_object(i, config) for i in procs)]
            self.next_op = [0] * (config.n + 1)
            self.cur: list[Optional[OpRecord]] = [None] * (config.n + 1)
            self.msg_seq = [0] * (config.n + 1)
            # channel s -> d and its delivery event, at index (s-1)*n + (d-1)
            self.channels = [deque() for _ in range(config.n * config.n)]
            self._deliveries = [("deliver", s, d) for s in procs for d in procs]
            # per source: (dst, channel index, channel) for each dst
            n = config.n
            self._rows = [None, *([(d, idx, self.channels[idx])
                                   for d, idx in zip(procs, range((s - 1) * n, s * n))]
                                  for s in procs)]
            # the sorted enabled events, and the policy's index into them
            # (see the module docstring)
            self.enabled = [("invoke", i) for i in procs if self.scripts[i]]
            self._fast = ([e for e in self.enabled if e[-1] not in self.slow_set]
                          if self.policy == "slow" else None)
            self._order = deque() if self.policy == "fifo" else None
            # the trace text of each FORWARD field value (a MsgId or an int)
            self._text = Memo(str)
        self.trace("config", 0, *chain.from_iterable(sorted(config.to_payload().items())))

    # -- trace / transport hooks -----------------------------------------

    def trace(self, kind: str, proc: int, *fields: str) -> None:
        """Write one record: fields are its payload's keys and values, in the
        sorted key order of its line, so a parsed trace holds equal entries."""
        step = self.step
        self._log_extend((step - self._written, kind, proc, fields, None))
        self._written = step

    def fifo_broadcast(self, src: int, fmsg: ForwardMsg) -> None:
        """Send fmsg to every process, src included, in process order; a
        crash that cuts src's handler lets only its remaining sends out, then
        raises _CrashCut.  The trace fields are built once here: the sends
        made are one TraceLog entry, and each channel entry carries them for
        the recv entry.  Each distinct field value's text is made once per
        run (_text)."""
        m, sd, sn, f, snf = fmsg
        text = self._text
        forward = (text[m.id], text[sd], text[sn], text[f], text[snf])
        n = reach = self.config.n
        if self._cut is not None:  # only the victim's handler runs while it is set
            reach = min(n, self._cut)
            self._cut -= reach
        row = self._rows[src]
        faulty, order = self.data.faulty, self._order
        seq = self._send_seq
        for dst, idx, q in (row if reach == n else row[:reach]):
            seq += 1
            if dst not in faulty:
                q.append((seq, fmsg, forward))
                if len(q) == 1:
                    self._enable(self._deliveries[idx])
                if order is not None:
                    order.append((seq, idx))
        self._send_seq = seq
        if reach:
            step = self.step
            self._log_extend((step - self._written, "send", src, forward, reach))
            self._written = step
            self.log.extra += reach - 1
            sends, mid = self.data.sends, fmsg.m.id
            sends[mid] = sends.get(mid, 0) + reach
        if reach < n:
            raise _CrashCut()

    # -- one process's handlers --------------------------------------------

    def can_invoke(self, i: int) -> bool:
        return self.cur[i] is None and self.next_op[i] < len(self.scripts[i])

    def invoke(self, i: int) -> None:
        self._disable(("invoke", i))
        seq = self.next_op[i]
        self.next_op[i] = seq + 1
        op = self.scripts[i][seq]
        kind = op[0]
        cur = self.cur[i] = OpRecord(i, seq, kind, invoke_idx=len(self.log))
        if kind == "write":
            cur.r, cur.value = op[1], op[2]
            self.trace("op_invoke", i, "op", kind, "r", str(op[1]), "seq", str(seq),
                       "v", value_str(op[2]))
        else:
            self.trace("op_invoke", i, "op", kind, "seq", str(seq))
        if kind == "bcast":
            self._broadcast(i, op[1])
            return
        self.data.ops.append(cur)
        obj = self.obj[i]
        if kind == "snapshot":
            step = obj.begin_snapshot()
        elif kind == "read":
            step = obj.begin_read()
        else:
            step = obj.begin_write(op[1], op[2])
        self._obj_step(i, step)

    def _obj_step(self, i: int, step) -> None:
        if step.broadcast is not None:
            self._broadcast(i, step.broadcast, step.write)
        if step.result is not None:
            res, cur = step.result, self.cur[i]
            self._op_returned(i)
            cur.return_idx = len(self.log)
            cur.result_values, cur.ts, cur.tsa = res.values, res.ts, res.tsa
            if res.kind == "write":
                out = ("ts", str(res.ts))
            elif res.kind == "read":
                out = ("ts", str(res.ts), "tsa", ",".join(str(t) for t in res.tsa),
                       "v", value_str(res.values[0]))
            else:
                out = ("tsa", ",".join(str(t) for t in res.tsa),
                       "vals", ",".join(value_str(v) for v in res.values))
            self.trace("op_return", i, "op", cur.kind, "seq", str(cur.seq), *out)

    def _op_returned(self, i: int) -> None:
        self.cur[i] = None
        if self.next_op[i] < len(self.scripts[i]):
            self._enable(("invoke", i))

    def _broadcast(self, i: int, payload: bytes, write=None) -> None:
        """scd-broadcast a new message of process i; `write` is the
        WritePayload that payload encodes, if it is one."""
        mid = MsgId(i, self.msg_seq[i])
        self.msg_seq[i] += 1
        self.record_bcast(i, mid, payload)
        if write is not None:
            self.data.writes[mid] = write
            self.cur[i].ts = write.ts  # a crashed writer's pending write keeps it
        self.fifo_broadcast(i, self.scd[i].scbroadcast(AppMessage(mid, payload)))

    # -- the records both worlds write, each with its fact -------------------

    def record_bcast(self, i: int, mid: MsgId, payload: bytes) -> None:
        """Process i scd-broadcasts message mid, holding payload."""
        self.trace("bcast", i, "data", value_str(payload), "id", str(mid))
        self.data.broadcasts[mid] = (i, payload)

    def record_scd_deliver(self, i: int, ms) -> None:
        """Process i delivers the set of messages ms."""
        ids, text = self._sets[frozenset(m.id for m in ms)]
        self.trace("scd_deliver", i, "set", text)
        self.data.logs[i].append(ids)

    def record_broadcast_complete(self, i: int, mid: MsgId, seq: Optional[int]) -> None:
        """Process i's broadcast of mid completes; so does its bcast op
        number seq, unless seq is None."""
        self.trace("broadcast_complete", i, "id", str(mid))
        self.data.completed[i].add(mid)
        if seq is not None:
            self.trace("op_return", i, "ok", "1", "op", "bcast", "seq", str(seq))

    # -- event machinery --------------------------------------------------

    def _enable(self, ev) -> None:
        insort(self.enabled, ev)
        if self._fast is not None and ev[-1] not in self.slow_set:
            insort(self._fast, ev)

    def _disable(self, ev) -> None:
        del self.enabled[bisect_left(self.enabled, ev)]
        if self._fast is not None and ev[-1] not in self.slow_set:
            del self._fast[bisect_left(self._fast, ev)]

    def enabled_events(self):
        if self.world is not None:
            return self.world.choices()
        return self.enabled

    def schedule_next(self, events):
        if self.policy == "fifo":
            if self.world is not None:
                # work starts (or continues) only when no delivery is ready
                return min(events, key=lambda ev: (_WORK_ORDER[ev[0]], ev[-1]))
            if events[0][0] == "invoke":
                return events[0]  # nothing in flight: the lowest process starts
            # the oldest message in flight, which heads its channel: drop the
            # send-order entries of messages already gone
            order, channels = self._order, self.channels
            while True:
                seq, idx = order[0]
                q = channels[idx]
                if q and q[0][0] == seq:
                    return self._deliveries[idx]
                order.popleft()
        if self.policy == "slow":
            # an event ends with the process that acts on it (a delivery's receiver)
            fast = (self._fast if self.world is None
                    else [e for e in events if e[-1] not in self.slow_set])
            if fast and self.sched_rng.random() < 0.9375:
                events = fast
        # randrange(n) as random.Random draws it (_randbelow_with_getrandbits)
        n = len(events)
        k = n.bit_length()
        getrandbits = self.sched_rng.getrandbits
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return events[r]

    def execute(self, ev) -> None:
        if ev[0] == "deliver":
            _, s, d = ev
            idx = (s - 1) * self.config.n + d - 1
            q = self.channels[idx]
            _, fmsg, forward = q.popleft()
            if not q:
                self._disable(ev)
            step = self.step
            self._log_extend((step - self._written, "recv", d, forward, self._text[s]))
            self._written = step
            scd = self.scd[d]
            out, ms = scd.on_forward(fmsg)
            if out is not None:
                self.fifo_broadcast(d, out)
            if ms is None:
                return
            self.record_scd_deliver(d, ms)
            # only a delivered set can complete d's pending broadcast
            done = scd.broadcast_complete()
            if done is not None:
                # a raw broadcast op's message is the only one it broadcasts
                cur, seq = self.cur[d], None
                if cur is not None and cur.kind == "bcast":
                    self._op_returned(d)
                    seq = cur.seq
                self.record_broadcast_complete(d, done, seq)
            obj = self.obj[d]
            if obj is not None:
                self._obj_step(d, obj.on_set_delivered(ms))
        elif self.world is not None:
            self.world.step(ev, self)
        elif ev[0] == "invoke":
            self.invoke(ev[1])
        else:
            raise AssertionError(ev)

    def execute_crash(self, proc: int, keep: Optional[int]) -> None:
        if self.world is not None:
            self.world.crash(proc)
        else:
            victim_ev = self._victim_event(proc) if keep is not None else None
            if victim_ev is not None:
                self._cut = keep
                try:
                    self.execute(victim_ev)
                except _CrashCut:
                    pass
                finally:
                    self._cut = None
            if self.can_invoke(proc):
                self._disable(("invoke", proc))
            n = self.config.n
            for idx in range(proc - 1, n * n, n):
                if self.channels[idx]:
                    self.channels[idx].clear()
                    self._disable(self._deliveries[idx])
        if not self.data.faulty:
            self._first_crash = len(self.log.rows) // 5
        self.data.faulty.add(proc)
        self.trace("crash", proc)

    def _victim_event(self, proc: int):
        """The event a mid-handler crash interrupts: the victim's oldest
        deliverable message, else its next invocation."""
        n = self.config.n
        heads = [(q[0][0], idx) for idx in range(proc - 1, n * n, n)
                 if (q := self.channels[idx])]
        if heads:
            return self._deliveries[min(heads)[1]]
        if self.can_invoke(proc):
            return ("invoke", proc)
        return None

    def pending_work(self) -> bool:
        """Whether some live process's broadcast never completed, the fact
        check_termination fails on.  With nothing enabled, that is a live
        process with an open operation or broadcast round."""
        run = self.data
        return any(sender not in run.faulty and mid not in run.completed[sender]
                   for mid, (sender, _) in run.broadcasts.items())

    # -- the run loop ------------------------------------------------------

    def run(self) -> RunData:
        enabled_events, schedule_next, execute = (
            self.enabled_events, self.schedule_next, self.execute)
        budget, plan = self.config.step_budget, self.crash_plan
        next_crash = plan[0][0] if plan else budget  # the budget stops the run first
        while True:
            if self.step >= budget:
                status = "budget"
                break
            if self.step >= next_crash:
                _, proc, keep = plan.pop(0)
                next_crash = plan[0][0] if plan else budget
                self.step += 1
                if proc not in self.data.faulty:
                    self.execute_crash(proc, keep)
                continue
            events = enabled_events()
            if not events:
                status = "stalled" if self.pending_work() else "quiescent"
                break
            ev = schedule_next(events)
            self.step += 1
            execute(ev)
        self.trace("end", 0, "expected", "1" if self.config.expected_nonterminating() else "0",
                   "status", status, "steps", str(self.step))
        run = self.data
        run.status, run.steps = status, self.step
        if self.world is None:
            for scd in self.scd[1:]:
                scd.release()  # no process steps again
        if run.faulty:
            run.late = _first_late(self.log, self._first_crash)
        return run


def run_scenario(config: ScenarioConfig) -> RunData:
    return Simulator(config).run()
