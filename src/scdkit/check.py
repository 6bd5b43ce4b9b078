"""Machine-checkable properties of traces and operation histories.

Trace-level checks (delivery logs of message sets):

  * validity: every delivered message was broadcast, byte for byte
  * integrity: no process delivers a message twice
  * ms_ordering: no two processes deliver two messages in opposite strict
    set order (delivering them in one set never conflicts)
  * containment: all prefix unions of delivered sets, across all processes,
    form a single chain under inclusion
  * termination: on quiescent runs only, every broadcast by a non-faulty
    process completed and was delivered by all non-faulty processes, and
    everything delivered by one non-faulty process was delivered by all
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
a precondition gate such as a run that never reached quiescence.  They judge
well-formed traces and leave malformed input to be rejected by exception:
sim.parse_trace raises TraceParseError on a garbled line or a trace cut
mid-record, and a record that lacks a field, names an unknown process or has
no matching op_invoke raises KeyError or ValueError from load_run,
extract_history or the checker that reads it.  `scdkit check` reports each of
these as an error line and exits 2.
"""
from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

from .core import (
    Cmp,
    INITIAL_TS,
    MsgId,
    Timestamp,
    parse_id_set,
    ts_less,
    tsa_compare,
)
from .shared_objects import INITIAL_VALUE, WritePayload, decode_payload
from .sim import ScenarioConfig, value_parse


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


@dataclass
class RunData:
    config: ScenarioConfig
    events: list
    status: str
    faulty: set = field(default_factory=set)
    broadcasts: dict = field(default_factory=dict)   # MsgId -> (sender, payload)
    logs: dict = field(default_factory=dict)         # proc -> [frozenset[MsgId]]
    completed: dict = field(default_factory=dict)    # proc -> set[MsgId] (bcast done)


def load_run(events) -> RunData:
    if not events or events[0].kind != "config":
        raise ValueError("trace must start with a config record")
    config = ScenarioConfig.from_payload(events[0].payload)
    status = "unknown"
    run = RunData(config, events, status)
    run.logs = {i: [] for i in range(1, config.n + 1)}
    run.completed = {i: set() for i in range(1, config.n + 1)}
    for ev in events:
        if ev.kind == "bcast":
            run.broadcasts[MsgId.parse(ev.payload["id"])] = (
                ev.proc,
                value_parse(ev.payload["data"]),
            )
        elif ev.kind == "scd_deliver":
            run.logs[ev.proc].append(parse_id_set(ev.payload["set"]))
        elif ev.kind == "broadcast_complete":
            run.completed[ev.proc].add(MsgId.parse(ev.payload["id"]))
        elif ev.kind == "crash":
            run.faulty.add(ev.proc)
        elif ev.kind == "end":
            run.status = ev.payload["status"]
    return run


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
    sends: dict = {}
    recvs: dict = {}
    for ev in run.events:
        if ev.kind == "send":
            key = (ev.proc, int(ev.payload["to"]))
            sends.setdefault(key, []).append(
                (ev.payload["sd"], ev.payload["sn"], ev.payload["f"])
            )
        elif ev.kind == "recv":
            key = (int(ev.payload["from"]), ev.proc)
            recvs.setdefault(key, []).append(
                (ev.payload["sd"], ev.payload["sn"], ev.payload["f"])
            )
    for key, rseq in sorted(recvs.items()):
        sseq = sends.get(key, [])
        if rseq != sseq[: len(rseq)]:
            return _fail("fifo", f"channel {key[0]}->{key[1]} reorders or loses")
    return _pass("fifo")


def check_crash_silence(run: RunData) -> Verdict:
    dead = set()
    for ev in run.events:
        if ev.proc in dead:
            return _fail("crash_silence", f"p{ev.proc} emits {ev.kind} after crashing")
        if ev.kind == "crash":
            dead.add(ev.proc)
    return _pass("crash_silence")


def count_messages(run: RunData) -> dict:
    """Point-to-point FORWARD sends per application message."""
    counts: dict = {}
    for ev in run.events:
        if ev.kind == "send":
            mid = MsgId.parse(ev.payload["m"])
            counts[mid] = counts.get(mid, 0) + 1
    return counts


def check_message_bound(run: RunData) -> Verdict:
    cap = run.config.n**2
    counts = count_messages(run)
    for mid, c in sorted(counts.items(), key=lambda kv: str(kv[0])):
        if c > cap:
            return _fail("message_bound", f"{mid} used {c} sends, cap {cap}")
    top = max(counts.values(), default=0)
    return _pass("message_bound", f"max {top} of cap {cap}")


# ---------------------------------------------------------------------------
# history ingestion


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
    write_msgid: Optional[MsgId] = None

    @property
    def label(self) -> str:
        return f"p{self.proc}#{self.seq}:{self.kind}"


@dataclass
class History:
    ops: list
    nregs: int
    faulty: set


def extract_history(run: RunData) -> History:
    nregs = run.config.nregs if "snapshot" in run.config.workload else 1
    open_ops: dict = {}
    ops: list[OpRecord] = []
    for idx, ev in enumerate(run.events):
        if ev.kind == "op_invoke" and ev.payload["op"] != "bcast":
            op = OpRecord(
                proc=ev.proc,
                seq=int(ev.payload["seq"]),
                kind=ev.payload["op"],
                invoke_idx=idx,
            )
            if op.kind == "write":
                op.r = int(ev.payload["r"])
                op.value = value_parse(ev.payload["v"])
            open_ops[ev.proc] = op
            ops.append(op)
        elif ev.kind == "bcast" and ev.proc in open_ops:
            payload = decode_payload(value_parse(ev.payload["data"]))
            if isinstance(payload, WritePayload):
                op = open_ops[ev.proc]
                op.write_msgid = MsgId.parse(ev.payload["id"])
                op.ts = payload.ts
        elif ev.kind == "op_return" and ev.payload["op"] != "bcast":
            op = open_ops.pop(ev.proc)
            if op.seq != int(ev.payload["seq"]):
                raise ValueError(f"p{ev.proc} returns op {ev.payload['seq']} "
                                 f"while op {op.seq} is open")
            op.return_idx = idx
            if "ts" in ev.payload:
                op.ts = Timestamp.parse(ev.payload["ts"])
            if "tsa" in ev.payload:
                op.tsa = tuple(Timestamp.parse(t) for t in ev.payload["tsa"].split(","))
            if "vals" in ev.payload:
                op.result_values = tuple(
                    value_parse(v) for v in ev.payload["vals"].split(",")
                )
            elif "v" in ev.payload:
                op.result_values = (value_parse(ev.payload["v"]),)
    return History(ops, nregs, set(run.faulty))


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
    collect the timestamp-array trajectory; the arrays must form a chain."""
    nregs = run.config.nregs if "snapshot" in run.config.workload else 1
    arrays = set()
    for i, sets in sorted(run.logs.items()):
        tsa = [INITIAL_TS] * nregs
        for s in sets:
            per_reg: dict = {}
            for mid in s:
                if mid not in run.broadcasts:
                    continue
                payload = decode_payload(run.broadcasts[mid][1])
                if isinstance(payload, WritePayload):
                    best = per_reg.get(payload.r)
                    if best is None or ts_less(best, payload.ts):
                        per_reg[payload.r] = payload.ts
            for r, ts in per_reg.items():
                if ts_less(tsa[r - 1], ts):
                    tsa[r - 1] = ts
            arrays.add(tuple(tsa))
    bad = []

    def cmp(a, b):
        c = tsa_compare(a, b)
        if c is Cmp.INCOMPARABLE:
            bad.append((a, b))
            return 0
        return {Cmp.LESS: -1, Cmp.EQUAL: 0, Cmp.GREATER: 1}[c]

    chain = sorted(arrays, key=functools.cmp_to_key(cmp))
    if bad:
        a, b = bad[0]
        return TsMeta([], {}, f"incomparable arrays {_tsa_str(a)} vs {_tsa_str(b)}")
    for k in range(1, len(chain)):
        if tsa_compare(chain[k - 1], chain[k]) not in (Cmp.LESS, Cmp.EQUAL):
            return TsMeta([], {}, "delivery arrays do not form a chain")
    chain = [a for k, a in enumerate(chain) if k == 0 or a != chain[k - 1]]
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
    lo, hi = 0, len(chain)
    while lo < hi:
        mid = (lo + hi) // 2
        entry = chain[mid][op.r - 1]
        if entry == op.ts or ts_less(op.ts, entry):
            hi = mid
        else:
            lo = mid + 1
    return lo if lo < len(chain) else None


def _order_writes(writes: list):
    n_w = len(writes)
    edges = {k: set() for k in range(n_w)}
    for a in range(n_w):
        for b in range(n_w):
            if a == b:
                continue
            wa, wb = writes[a], writes[b]
            if wa.r == wb.r:
                if wa.ts == wb.ts:
                    return None
                if ts_less(wa.ts, wb.ts):
                    edges[a].add(b)
            elif wa.return_idx is not None and wa.return_idx < wb.invoke_idx:
                edges[a].add(b)
    indeg = {k: 0 for k in range(n_w)}
    for a in edges:
        for b in edges[a]:
            indeg[b] += 1
    ready = sorted((k for k in range(n_w) if indeg[k] == 0),
                   key=lambda k: writes[k].invoke_idx)
    out = []
    while ready:
        k = ready.pop(0)
        out.append(writes[k])
        for b in sorted(edges[k]):
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.append(b)
        ready.sort(key=lambda k2: writes[k2].invoke_idx)
    return out if len(out) == n_w else None


# ---------------------------------------------------------------------------
# per-run verdict bundle


OBJECT_WORKLOADS = (
    "snapshot_ops",
    "register_ops",
    "swmr_register_ops",
    "sc_register_ops",
    "sc_snapshot_ops",
)
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
