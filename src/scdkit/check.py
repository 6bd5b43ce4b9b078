"""Machine-checkable properties of traces and operation histories.

Trace-level checks (delivery logs of message sets):

  * validity: every delivered message was broadcast, byte for byte
  * integrity: no process delivers a message twice
  * ms_ordering: no two processes deliver two messages in opposite strict
    set order (delivering them in one set never conflicts)
  * containment: all prefix unions of delivered sets, across all processes,
    form a single chain under inclusion
  * termination: on quiescent runs, every broadcast by a non-faulty process
    completed and was delivered by all non-faulty processes, and everything
    delivered by one non-faulty process was delivered by all; skipped on
    message-passing runs where a majority crashed (liveness needs a correct
    majority)
  * fifo / crash silence / message bound: transport sanity and the n*n cap
    on point-to-point sends per broadcast

History-level checks (operations of the object layers):

  * linearizable_bruteforce and sequentially_consistent: one memoized
    exhaustive search for small histories, run with two precedence
    relations, real time and per-process program order.  A pending write of
    a crashed process is "possibly effective": the search may place it or
    leave it out.
  * linearizable_witness: reconstructs every process's timestamp-array
    trajectory from its delivery log, orders operations by the tag data the
    protocol itself produces, and validates the resulting single order; this
    scales to histories the exhaustive search cannot touch.  A crashed
    writer's pending write counts exactly when some non-faulty process
    delivered its WRITE.

Checkers return Verdicts (pass / fail / skip plus a short detail); skip marks
a precondition gate such as a run that never reached quiescence.  load_run
is the only reader of trace records and rejects malformed input by exception,
so no checker raises on a RunData it returned.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import Optional

from .core import (
    Cmp,
    INITIAL_TS,
    MsgId,
    Timestamp,
    parse_id_set,
    tsa_compare,
)
from .shared_objects import INITIAL_VALUE, WritePayload, decode_payload
from .sim import MP_WORKLOADS, ScenarioConfig, TraceEvent, value_parse


@dataclass
class Verdict:
    prop: str
    status: str  # pass | fail | skip
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def line(self) -> str:
        return f"verdict|{self.prop}|{self.status}|{self.detail}"


def _fail(prop, detail):
    return Verdict(prop, "fail", detail)


def _pass(prop, detail=""):
    return Verdict(prop, "pass", detail)


def _skip(prop, detail):
    return Verdict(prop, "skip", detail)


# ---------------------------------------------------------------------------
# trace ingestion


OBJECT_WORKLOADS = (
    "snapshot_ops",
    "register_ops",
    "swmr_register_ops",
    "sc_register_ops",
    "sc_snapshot_ops",
)


@dataclass
class OpRecord:
    proc: int
    seq: int
    kind: str                 # snapshot | read | write
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
class History:
    ops: list
    nregs: int


@dataclass
class RunData:
    config: ScenarioConfig
    events: list
    status: str
    faulty: set = field(default_factory=set)
    broadcasts: dict = field(default_factory=dict)   # MsgId -> (sender, payload)
    logs: dict = field(default_factory=dict)         # proc -> [frozenset[MsgId]]
    completed: dict = field(default_factory=dict)    # proc -> set[MsgId] (bcast done)
    channels: dict = field(default_factory=dict)     # (src, dst) -> (sent, received)
    sends: dict = field(default_factory=dict)        # MsgId -> FORWARD sends
    late: Optional[TraceEvent] = None                # first record after its crash
    writes: dict = field(default_factory=dict)       # MsgId -> WritePayload
    ops: list = field(default_factory=list)          # OpRecords by invocation


def load_run(events) -> RunData:
    """Read every trace record once into RunData; the checkers judge only
    the parsed fields.  A config record that fails validation raises
    UsageError, a missing field or a record by an unknown process KeyError,
    any other malformed value ValueError."""
    if not events or events[0].kind != "config":
        raise ValueError("trace must start with a config record")
    config = ScenarioConfig.from_payload(events[0].payload)
    config.validate()
    run = RunData(config, events, "unknown")
    run.logs = {i: [] for i in range(1, config.n + 1)}
    run.completed = {i: set() for i in range(1, config.n + 1)}
    objects = config.workload in OBJECT_WORKLOADS
    open_ops: dict = {}
    for idx, ev in enumerate(events):
        kind, p = ev.kind, ev.payload
        if kind == "config":
            continue
        if kind == "end":
            run.status = p["status"]
            continue
        if ev.proc not in run.logs:
            raise KeyError(ev.proc)
        if run.late is None and ev.proc in run.faulty:
            run.late = ev
        if kind == "send":
            sent, _ = run.channels.setdefault((ev.proc, int(p["to"])), ([], []))
            sent.append((p["sd"], p["sn"], p["f"]))
            mid = MsgId.parse(p["m"])
            run.sends[mid] = run.sends.get(mid, 0) + 1
        elif kind == "recv":
            _, received = run.channels.setdefault((int(p["from"]), ev.proc), ([], []))
            received.append((p["sd"], p["sn"], p["f"]))
        elif kind == "bcast":
            mid, data = MsgId.parse(p["id"]), value_parse(p["data"])
            run.broadcasts[mid] = (ev.proc, data)
            w = decode_payload(data) if objects else None
            if isinstance(w, WritePayload):
                _check_slot(w.r, config)
                run.writes[mid] = w
                if ev.proc in open_ops:  # a crashed writer's pending write keeps it
                    open_ops[ev.proc].ts = w.ts
        elif kind == "scd_deliver":
            run.logs[ev.proc].append(parse_id_set(p["set"]))
        elif kind == "broadcast_complete":
            run.completed[ev.proc].add(MsgId.parse(p["id"]))
        elif kind == "crash":
            run.faulty.add(ev.proc)
        elif kind == "op_invoke" and p["op"] != "bcast":
            op = OpRecord(ev.proc, int(p["seq"]), p["op"], invoke_idx=idx)
            if op.kind == "write":
                op.r = _check_slot(int(p["r"]), config)
                op.value = value_parse(p["v"])
            open_ops[ev.proc] = op
            run.ops.append(op)
        elif kind == "op_return" and p["op"] != "bcast":
            op = open_ops.pop(ev.proc)
            if op.seq != int(p["seq"]):
                raise ValueError(f"p{ev.proc} returns op {p['seq']} "
                                 f"while op {op.seq} is open")
            op.return_idx = idx
            if "ts" in p or op.kind == "write":  # the witness orders writes by tag
                op.ts = Timestamp.parse(p["ts"])
            if "tsa" in p:
                op.tsa = tuple(Timestamp.parse(t) for t in p["tsa"].split(","))
            if "vals" in p:
                op.result_values = tuple(value_parse(v) for v in p["vals"].split(","))
            elif "v" in p:
                op.result_values = (value_parse(p["v"]),)
    return run


def _check_slot(r: int, config: ScenarioConfig) -> int:
    if not 1 <= r <= config.slots:
        raise ValueError(f"register {r} outside 1..{config.slots}")
    return r


def extract_history(run: RunData) -> History:
    return History(run.ops, run.config.slots)


# ---------------------------------------------------------------------------
# broadcast properties


def check_validity(run: RunData) -> Verdict:
    for i, sets in sorted(run.logs.items()):
        for x, s in enumerate(sets):
            for mid in s:
                if mid not in run.broadcasts:
                    return _fail("validity", f"p{i} set {x} delivers unknown {mid}")
    return _pass("validity")


def check_integrity(run: RunData) -> Verdict:
    for i, sets in sorted(run.logs.items()):
        seen = set()
        for x, s in enumerate(sets):
            for mid in s:
                if mid in seen:
                    return _fail("integrity", f"p{i} delivers {mid} twice (set {x})")
            seen |= s
    return _pass("integrity")


def check_ms_ordering(run: RunData) -> Verdict:
    """Look for m, m' with m strictly before m' at one process and strictly
    after at another.  Scanning each pair's common messages in one process's
    set order while tracking the running maximum of the other's positions
    finds an inversion iff one exists."""
    pos = {
        i: {mid: x for x, s in enumerate(sets) for mid in s}
        for i, sets in run.logs.items()
    }
    procs = sorted(run.logs)
    for a in range(len(procs)):
        for b in range(a + 1, len(procs)):
            i, j = procs[a], procs[b]
            common = [mid for mid in pos[i] if mid in pos[j]]
            common.sort(key=lambda mid: (pos[i][mid], pos[j][mid]))
            run_max = None  # (pos_j, mid) over strictly earlier sets at i
            x = 0
            while x < len(common):
                y = x
                while y < len(common) and pos[i][common[y]] == pos[i][common[x]]:
                    y += 1
                if run_max is not None:
                    for mid in common[x:y]:
                        if pos[j][mid] < run_max[0]:
                            return _fail(
                                "ms_ordering",
                                f"p{i} orders {run_max[1]}<{mid}, "
                                f"p{j} orders {mid}<{run_max[1]}",
                            )
                for mid in common[x:y]:
                    if run_max is None or pos[j][mid] > run_max[0]:
                        run_max = (pos[j][mid], mid)
                x = y
    return _pass("ms_ordering")


def check_containment(run: RunData) -> Verdict:
    reps = {}
    for i, sets in sorted(run.logs.items()):
        acc = set()
        for x, s in enumerate(sets):
            acc |= s
            reps.setdefault(frozenset(acc), (i, x + 1))
    chain = sorted(reps, key=len)
    for k in range(1, len(chain)):
        if not chain[k - 1] <= chain[k]:
            pi, px = reps[chain[k - 1]]
            qi, qx = reps[chain[k]]
            return _fail(
                "containment",
                f"p{pi} first {px} sets vs p{qi} first {qx} sets are incomparable",
            )
    return _pass("containment")


def check_termination(run: RunData) -> Verdict:
    if run.status != "quiescent":
        return _skip("termination", f"run ended {run.status}, not quiescent")
    if run.config.workload in MP_WORKLOADS and 2 * len(run.faulty) >= run.config.n:
        return _skip("termination", f"{len(run.faulty)} of {run.config.n} processes "
                                    "crashed; liveness needs a correct majority")
    live = [i for i in run.logs if i not in run.faulty]
    delivered = {i: set().union(*run.logs[i]) if run.logs[i] else set() for i in run.logs}
    for mid, (sender, _) in sorted(run.broadcasts.items(), key=lambda kv: str(kv[0])):
        if sender in run.faulty:
            continue
        if mid not in run.completed[sender]:
            return _fail("termination", f"broadcast {mid} never completed at p{sender}")
        for i in live:
            if mid not in delivered[i]:
                return _fail("termination", f"{mid} from live p{sender} missing at p{i}")
    for i in live:
        for mid in delivered[i]:
            for j in live:
                if mid not in delivered[j]:
                    return _fail(
                        "termination", f"{mid} delivered at p{i} but not at p{j}"
                    )
    return _pass("termination")


def check_fifo(run: RunData) -> Verdict:
    for (src, dst), (sent, received) in sorted(run.channels.items()):
        if received != sent[: len(received)]:
            return _fail("fifo", f"channel {src}->{dst} reorders or loses")
    return _pass("fifo")


def check_crash_silence(run: RunData) -> Verdict:
    if run.late is not None:
        return _fail("crash_silence",
                     f"p{run.late.proc} emits {run.late.kind} after crashing")
    return _pass("crash_silence")


def check_message_bound(run: RunData) -> Verdict:
    cap = run.config.n**2
    for mid, c in sorted(run.sends.items(), key=lambda kv: str(kv[0])):
        if c > cap:
            return _fail("message_bound", f"{mid} used {c} sends, cap {cap}")
    top = max(run.sends.values(), default=0)
    return _pass("message_bound", f"max {top} of cap {cap}")


# ---------------------------------------------------------------------------
# sequential semantics shared by the consistency checkers


def _apply(regs: tuple, op: OpRecord):
    """Apply op to register state; returns new state, or None if the op's
    recorded result contradicts the state."""
    if op.kind == "write":
        return regs[: op.r - 1] + (op.value,) + regs[op.r :]
    if op.kind == "snapshot":
        return regs if op.result_values == regs else None
    return regs if op.result_values == (regs[0],) else None  # read


def _search(h: History, prop: str, bound: int, before) -> Verdict:
    """Memoized search for a legal order of the complete ops that extends
    before(a, b); a pending write may be placed or left out (possibly
    effective), a pending read or snapshot is dropped."""
    ops = [op for op in h.ops if op.return_idx is not None or op.kind == "write"]
    if len(ops) > bound:
        return _skip(prop, f"{len(ops)} ops exceed bound {bound}")
    preds = [sum(1 << a for a, x in enumerate(ops) if before(x, y)) for y in ops]
    complete = sum(1 << k for k, op in enumerate(ops) if op.return_idx is not None)
    seen = set()

    def dfs(placed: int, regs: tuple):
        if placed & complete == complete:
            return ()
        if (placed, regs) in seen:
            return None
        seen.add((placed, regs))
        for k, op in enumerate(ops):
            if placed >> k & 1 or preds[k] & ~placed:
                continue
            nxt = _apply(regs, op)
            rest = None if nxt is None else dfs(placed | 1 << k, nxt)
            if rest is not None:
                return (op.label,) + rest
        return None

    order = dfs(0, (INITIAL_VALUE,) * h.nregs)
    if order is None:
        return _fail(prop, f"no legal order over {complete.bit_count()} complete ops")
    return _pass(prop, f"order {'<'.join(order)}" if order else "empty history")


def check_linearizable_bruteforce(h: History, bound: int = 10) -> Verdict:
    return _search(h, "linearizable_bruteforce", bound,
                   lambda a, b: a.return_idx is not None and a.return_idx < b.invoke_idx)


def check_sequentially_consistent(h: History, bound: int = 16) -> Verdict:
    return _search(h, "sequentially_consistent", bound,
                   lambda a, b: a.proc == b.proc and a.seq < b.seq)


# ---------------------------------------------------------------------------
# witness linearizability from protocol tag data


@dataclass
class TsMeta:
    chain: list          # timestamp arrays, ascending
    rank: dict           # array -> index in chain
    error: str = ""


def timestamp_metadata(run: RunData) -> TsMeta:
    """Replay every process's delivery log through the install rule and
    collect the timestamp-array trajectory; the arrays must form a chain,
    which holds exactly when, sorted lexicographically, each is pointwise
    less than the next."""
    arrays = set()
    for sets in run.logs.values():
        tsa = [INITIAL_TS] * run.config.slots
        for s in sets:
            for w in (run.writes[mid] for mid in s if mid in run.writes):
                if tsa[w.r - 1] < w.ts:
                    tsa[w.r - 1] = w.ts
            arrays.add(tuple(tsa))
    chain = sorted(arrays)
    for a, b in zip(chain, chain[1:]):
        if tsa_compare(a, b) is not Cmp.LESS:
            return TsMeta([], {}, f"incomparable arrays {_tsa_str(a)} vs {_tsa_str(b)}")
    return TsMeta(chain, {a: k for k, a in enumerate(chain)})


def _tsa_str(tsa) -> str:
    return "[" + ",".join(str(t) for t in tsa) + "]"


def check_linearizable_witness(h: History, meta: TsMeta) -> Verdict:
    prop = "linearizable_witness"
    if meta.error:
        return _fail(prop, meta.error)
    rank = meta.rank
    chain = meta.chain

    # operations to order: complete ones, plus crashed writers' pending
    # writes whose WRITE reached a non-faulty process (their rank lookup
    # succeeds exactly then, checked below via the delivery replay arrays)
    ops = [op for op in h.ops if op.return_idx is not None]
    pend: list[OpRecord] = []
    for op in h.ops:
        if op.return_idx is None and op.kind == "write" and op.ts is not None:
            pend.append(op)

    op_rank: dict = {}
    for op in ops:
        if op.kind == "write":
            r = _write_rank(op, chain)
            if r is None:
                return _fail(prop, f"{op.label}: tag {op.ts} dominates no array")
        else:
            if op.tsa not in rank:
                return _fail(prop, f"{op.label}: returned array not in trajectory")
            r = rank[op.tsa]
        op_rank[id(op)] = r
    for op in pend:
        r = _write_rank(op, chain)
        if r is not None:  # delivered somewhere that survived; op took effect
            op_rank[id(op)] = r
            ops.append(op)

    # real time must never contradict the tag order across groups
    done = sorted((op for op in ops if op.return_idx is not None),
                  key=lambda o: o.return_idx)
    rets = [op.return_idx for op in done]
    best_at = []
    best = None
    for op in done:
        if best is None or op_rank[id(op)] > op_rank[id(best)]:
            best = op
        best_at.append(best)
    for op in ops:
        k = bisect_left(rets, op.invoke_idx)
        if k:
            prev = best_at[k - 1]
            if op_rank[id(prev)] > op_rank[id(op)]:
                return _fail(
                    prop,
                    f"{prev.label} finished before {op.label} began "
                    f"but carries a later tag",
                )

    # order within a tag group: writes first (topologically, by tag within a
    # register and by real time across registers), then reads/snapshots by
    # invocation
    groups: dict = {}
    for op in ops:
        groups.setdefault(op_rank[id(op)], []).append(op)
    order: list[OpRecord] = []
    for g in sorted(groups):
        writes = [op for op in groups[g] if op.kind == "write"]
        snaps = [op for op in groups[g] if op.kind != "write"]
        for s in snaps:
            for w in writes:
                if s.return_idx is not None and s.return_idx < w.invoke_idx:
                    return _fail(
                        prop,
                        f"{s.label} finished before equal-tagged write {w.label}",
                    )
        seq = _order_writes(writes)
        if seq is None:
            return _fail(prop, f"conflicting write order in tag group {g}")
        order.extend(seq)
        order.extend(sorted(snaps, key=lambda o: o.invoke_idx))

    regs = [INITIAL_VALUE] * h.nregs
    for op in order:
        if op.kind == "write":
            regs[op.r - 1] = op.value
        elif op.kind == "snapshot":
            if op.result_values != tuple(regs):
                return _fail(prop, f"{op.label} saw a state never current")
        elif op.result_values != (regs[0],):
            return _fail(prop, f"{op.label} read a value never current")
    return _pass(prop, f"{len(order)} ops over {len(chain)} arrays")


def _write_rank(op: OpRecord, chain) -> Optional[int]:
    """Smallest trajectory array whose register entry reports op's tag."""
    k = bisect_left(chain, op.ts, key=lambda a: a[op.r - 1])
    return k if k < len(chain) else None


def _order_writes(writes: list):
    """An order of one tag group's writes that puts them by tag within a
    register and by real time across registers; None if those conflict.
    The replay reads only each register's highest-tagged write, so every
    such order gives the same verdict."""
    preds = {k: set() for k in range(len(writes))}
    for a, wa in enumerate(writes):
        for b, wb in enumerate(writes):
            if a == b:
                continue
            if wa.r == wb.r:
                if wa.ts == wb.ts:
                    return None
                if wa.ts < wb.ts:
                    preds[b].add(a)
            elif wa.return_idx is not None and wa.return_idx < wb.invoke_idx:
                preds[b].add(a)
    try:
        return [writes[k] for k in TopologicalSorter(preds).static_order()]
    except CycleError:
        return None


# ---------------------------------------------------------------------------
# per-run verdict bundle


# verdicts that judge an object run's history; "consistency" is the gate
# that replaces them on a run that never reached quiescence
CONSISTENCY_PROPS = (
    "consistency",
    "linearizable_witness",
    "linearizable_bruteforce",
    "sequentially_consistent",
)


def evaluate_run(run: RunData) -> list:
    """All checks applicable to one run's trace, in a stable order."""
    out = [
        check_validity(run),
        check_integrity(run),
        check_ms_ordering(run),
        check_containment(run),
        check_termination(run),
        check_crash_silence(run),
    ]
    if run.config.workload not in ("rw_equivalence",):
        out.append(check_fifo(run))
        out.append(check_message_bound(run))
    if run.config.workload in OBJECT_WORKLOADS:
        h = extract_history(run)
        if run.status != "quiescent":
            gate = _skip("consistency", f"run ended {run.status}, not quiescent")
            out.append(gate)
        elif run.config.workload.startswith("sc_"):
            out.append(check_sequentially_consistent(h))
        else:
            out.append(check_linearizable_witness(h, timestamp_metadata(run)))
            out.append(check_linearizable_bruteforce(h))
    return out
