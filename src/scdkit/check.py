"""Machine-checkable properties of traces and operation histories.

Trace-level checks (delivery logs of message sets):

  * validity: every delivered message was broadcast, byte for byte
  * integrity: no process delivers a message twice
  * ms_ordering: no two processes deliver two messages in opposite strict
    set order (delivering them in one set never conflicts)
  * containment: all prefix unions of delivered sets, across all processes,
    form a single chain under inclusion.  With level(m) the size of the
    smallest prefix union holding m, that holds iff every prefix union A
    has exactly |A| messages of level at most |A|: A holds only such
    messages, and on a chain the union fixing level(m) <= |A| lies inside A
    (conversely, each A is then the level set at |A|, and those are nested)
  * termination: on quiescent runs, every broadcast by a non-faulty process
    completed and was delivered by all non-faulty processes, and everything
    delivered by one non-faulty process was delivered by all; skipped on
    message-passing runs where a majority crashed (liveness needs a correct
    majority)
  * fifo / crash silence / message bound: transport sanity and the n*n cap
    on point-to-point sends per broadcast

History-level checks (operations of the object layers):

  * linearizable_bruteforce and sequentially_consistent: one memoized
    exhaustive search for histories of at most 10 and 16 ops, run with two
    precedence relations, real time and per-process program order.  A
    pending write of a crashed process is "possibly effective": the search
    may place it or leave it out.
  * linearizable_witness: reconstructs every process's timestamp-array
    trajectory from its delivery log and builds one order of the operations
    from the tags the protocol itself produces.  One validator, _misorder,
    decides the verdict: the order must replay legally and extend real
    time.  The tags only propose the order, so a protocol that breaks them
    can make the witness fail a linearizable history but never pass a
    non-linearizable one.  This scales to histories the exhaustive search
    cannot touch.  A crashed writer's pending write counts exactly when some
    non-faulty process delivered its WRITE.

Checkers judge a RunData (defined in sim, re-exported here) and return
Verdicts (pass / fail / skip plus a short detail); skip marks a precondition
gate such as a run that never reached quiescence.  A simulated run is judged
from the RunData that Simulator.run filled as it ran and returned.  load_run
builds the same RunData from a stored trace, reading the TraceLog that
sim.parse_trace gives back entry by entry: it is the only reader of trace
records, and rejects malformed input by exception, so no checker raises on
a RunData it returned.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from operator import le
from typing import Optional

from .core import INITIAL_TS, MsgId, Timestamp, parse_id_set
from .shared_objects import INITIAL_VALUE, WritePayload, decode_payload
from .sim import (END_STATUSES, MP_WORKLOADS, RECORD_KINDS, RW_WORKLOADS, OpRecord,
                  RunData, ScenarioConfig, TraceLog, value_parse)


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
class History:
    ops: list
    nregs: int


def load_run(log: TraceLog) -> RunData:
    """Read every trace record once into RunData; the checkers judge only
    the parsed fields.  The log's entries are read, and no record is built:
    a send entry appends its channel key to the channels from its proc to
    1..reach and counts reach sends, a recv entry is one receipt, and a
    TraceEvent send or recv record (parse_trace keeps any line outside a
    FORWARD's exact form as one) counts as its own.  The entry of the first
    record after a crash becomes run.late.  Record indices (invoke_idx,
    return_idx) count the records an entry stands for.  Message ids are
    parsed once per message: sends are counted by their `m` text, and each
    distinct text is parsed at the end (so a bad `m` is reported after any
    later malformed record); each distinct delivered-set text is parsed
    once, and the logs that hold it share its frozenset.  A config record
    that fails validation raises UsageError, a missing field or a record by
    an unknown process KeyError, any other malformed value ValueError.  So
    does a send to, or a recv from, a process outside 1..n, a record of a
    kind no run writes, an operation of a kind its workload never issues, a
    trace cut before its end record, or an end record whose status is not
    one a run ends with; records after it are read."""
    entries = log.entries
    if not entries or entries[0][1] != "config":
        raise ValueError("trace must start with a config record")
    config = ScenarioConfig.from_payload(entries[0].payload)
    config.validate()
    run = RunData.start(config, log)
    objects = config.workload in OBJECT_WORKLOADS
    # the kinds plan_ops issues: a register is read, a snapshot object scanned
    op_kinds = ((("snapshot", "write") if "snapshot" in config.workload else ("read", "write"))
                if objects else ("bcast",))
    open_ops: dict = {}
    channels = defaultdict(lambda: ([], []))  # the pair is built once per channel
    sends: dict = {}  # m text -> send count
    keys: dict = {}  # a FORWARD's field tuple -> its channel key (sd, sn, f)
    id_sets: dict = {}  # a delivered set's text -> its ids, shared by the logs
    n = config.n
    pids = {str(i): i for i in range(1, n + 1)}  # the texts of 1..n, for to= and from=

    def peer(text: str) -> int:  # the process a send's to= or a recv's from= names
        pid = pids.get(text)
        if pid is None:
            raise ValueError(f"peer process {text!r} outside 1..{n}")
        return pid

    shift = 0  # records before an entry less its index: reach - 1 per send entry
    for k, ev in enumerate(entries):
        kind, proc = ev[1], ev[2]
        if kind == "config":
            continue
        if kind == "end":
            p = ev.payload
            if p["status"] not in END_STATUSES:
                raise ValueError(f"run ended with unknown status {p['status']!r}")
            run.status, run.steps = p["status"], int(p["steps"])
            continue
        if proc not in run.logs:
            raise KeyError(proc)
        if run.late is None and proc in run.faulty:
            run.late = ev
        if type(ev) is tuple:  # a send or recv entry
            _, _, _, fwd, last = ev
            key = keys.get(fwd)
            if key is None:
                key = keys[fwd] = fwd[1:4]
            if kind == "send":
                if last > n:
                    peer(str(last))  # raises: the entry stands for a send to p{last}
                for dst in range(1, last + 1):
                    channels[proc, dst][0].append(key)
                sends[fwd[0]] = sends.get(fwd[0], 0) + last
                shift += last - 1
            else:
                channels[pids.get(last) or peer(last), proc][1].append(key)
            continue
        p = ev.payload
        if kind == "send":
            channels[proc, peer(p["to"])][0].append((p["sd"], p["sn"], p["f"]))
            m = p["m"]
            sends[m] = sends.get(m, 0) + 1
        elif kind == "recv":
            channels[peer(p["from"]), proc][1].append((p["sd"], p["sn"], p["f"]))
        elif kind == "bcast":
            mid, data = MsgId.parse(p["id"]), value_parse(p["data"])
            run.broadcasts[mid] = (proc, data)
            w = decode_payload(data) if objects else None
            if isinstance(w, WritePayload):
                _check_slot(w.r, config)
                run.writes[mid] = w
                if proc in open_ops:  # a crashed writer's pending write keeps it
                    open_ops[proc].ts = w.ts
        elif kind == "scd_deliver":
            ids = id_sets.get(p["set"])
            if ids is None:
                ids = id_sets[p["set"]] = parse_id_set(p["set"])
            run.logs[proc].append(ids)
        elif kind == "broadcast_complete":
            run.completed[proc].add(MsgId.parse(p["id"]))
        elif kind == "crash":
            run.faulty.add(proc)
        elif (kind == "op_invoke" or kind == "op_return") and p["op"] not in op_kinds:
            raise ValueError(f"{config.workload} run has a {p['op']!r} op")
        elif kind == "op_invoke" and objects:
            op = OpRecord(proc, int(p["seq"]), p["op"], invoke_idx=k + shift)
            if op.kind == "write":
                op.r = _check_slot(int(p["r"]), config)
                op.value = value_parse(p["v"])
            open_ops[proc] = op
            run.ops.append(op)
        elif kind == "op_return" and objects:
            op = open_ops.pop(proc)
            if op.seq != int(p["seq"]):
                raise ValueError(f"p{proc} returns op {p['seq']} "
                                 f"while op {op.seq} is open")
            op.return_idx = k + shift
            # a write returns its tag; a read its tag, value and tag array;
            # a snapshot its values and tag array
            if op.kind == "snapshot":
                op.result_values = tuple(value_parse(v) for v in p["vals"].split(","))
            else:
                op.ts = Timestamp.parse(p["ts"])
                if op.kind == "read":
                    op.result_values = (value_parse(p["v"]),)
            if op.kind != "write":
                op.tsa = tuple(Timestamp.parse(t) for t in p["tsa"].split(","))
        elif kind not in RECORD_KINDS:
            raise ValueError(f"unknown record kind {kind!r}")
    if run.status is None:
        raise ValueError("trace has no end record")
    run.channels = dict(channels)
    for m, count in sends.items():  # two texts may spell one id ("1.1", "1.01")
        mid = MsgId.parse(m)
        run.sends[mid] = run.sends.get(mid, 0) + count
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
    """Every prefix union A is a subset of {m : level(m) <= |A|}, where
    level(m) is the size of the smallest prefix union holding m, so the
    unions form a chain exactly when each A has as many members as that set:
      * on a chain, the union that fixes level(m) <= |A| is no larger than A,
        so it lies inside A, and m is in A;
      * if each A is {m : level(m) <= |A|}, the unions are nested, since
        these sets grow with |A|.
    One pass per log finds the levels and the union sizes; each size is then
    checked against the sorted levels.  A failure names A next to the union
    that fixed the level of a message missing from A: the two are
    incomparable."""
    level = {}    # m -> size of the smallest prefix union holding m
    sizes = set()  # sizes of the prefix unions
    for sets in run.logs.values():
        acc = set()
        for s in sets:
            acc |= s
            a = len(acc)
            sizes.add(a)
            for m in s:  # a repeated m keeps its smaller level from this log
                if level.get(m, a) >= a:
                    level[m] = a
    levels = sorted(level.values())
    for a in sizes:
        if bisect_right(levels, a) != a:
            return _fail("containment", _incomparable(run.logs, level, levels))
    return _pass("containment")


def _prefix_unions(logs):
    """(proc, prefix length, union) per prefix; the union is updated in place."""
    for i, sets in sorted(logs.items()):
        acc = set()
        for x, s in enumerate(sets, 1):
            acc |= s
            yield i, x, acc


def _incomparable(logs, level: dict, levels: list) -> str:
    """Name the first prefix union A that fails the level count next to the
    first union that fixed the level of a message missing from A."""
    i, x, union = next(u for u in _prefix_unions(logs)
                       if bisect_right(levels, len(u[2])) != len(u[2]))
    a = len(union)
    lv, m = min((lv, m) for m, lv in level.items() if lv <= a and m not in union)
    j, y, _ = next(u for u in _prefix_unions(logs) if len(u[2]) == lv and m in u[2])
    return f"p{j} first {y} sets vs p{i} first {x} sets are incomparable"


def check_termination(run: RunData) -> Verdict:
    if run.status != "quiescent":
        return _skip("termination", f"run ended {run.status}, not quiescent")
    if run.config.workload in MP_WORKLOADS and 2 * len(run.faulty) >= run.config.n:
        return _skip("termination", f"{len(run.faulty)} of {run.config.n} processes "
                                    "crashed; liveness needs a correct majority")
    live = [i for i in run.logs if i not in run.faulty]
    delivered = {i: set().union(*run.logs[i]) if run.logs[i] else set() for i in run.logs}
    for mid, (sender, _) in sorted(run.broadcasts.items()):
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
        return _fail("crash_silence", f"p{run.late[2]} emits {run.late[1]} after crashing")
    return _pass("crash_silence")


def check_message_bound(run: RunData) -> Verdict:
    cap = run.config.n**2
    for mid, c in sorted(run.sends.items()):
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
    del dfs  # its cell refers to it: emptying the cell frees the search now
    if order is None:
        return _fail(prop, f"no legal order over {complete.bit_count()} complete ops")
    return _pass(prop, f"order {'<'.join(order)}" if order else "empty history")


def check_linearizable_bruteforce(h: History) -> Verdict:
    return _search(h, "linearizable_bruteforce", 10,
                   lambda a, b: a.return_idx is not None and a.return_idx < b.invoke_idx)


def check_sequentially_consistent(h: History) -> Verdict:
    return _search(h, "sequentially_consistent", 16,
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
        if not all(map(le, a, b)):
            return TsMeta([], {}, f"incomparable arrays {_tsa_str(a)} vs {_tsa_str(b)}")
    return TsMeta(chain, {a: k for k, a in enumerate(chain)})


def _tsa_str(tsa) -> str:
    return "[" + ",".join(str(t) for t in tsa) + "]"


def check_linearizable_witness(h: History, meta: TsMeta) -> Verdict:
    prop = "linearizable_witness"
    if meta.error:
        return _fail(prop, meta.error)
    chain = meta.chain
    # the order: tag groups by rank; in a group, writes by tag, then reads
    # and snapshots by invocation.  The grouping costs only completeness,
    # since _misorder alone decides whether the order is a linearization
    keyed = []
    for op in h.ops:
        done = op.return_idx is not None
        if op.kind == "write":
            # a crashed writer's pending write is placed when its WRITE
            # reached a non-faulty process, exactly when it has a rank
            r = None if op.ts is None else _write_rank(op, chain)
            if r is not None:
                keyed.append(((r, 0, op.ts), op))
            elif done:
                return _fail(prop, f"{op.label}: tag {op.ts} dominates no array")
        elif done:
            if op.tsa not in meta.rank:
                return _fail(prop, f"{op.label}: returned array not in trajectory")
            keyed.append(((meta.rank[op.tsa], 1, op.invoke_idx), op))
    keyed.sort(key=lambda pair: pair[0])
    order = [op for _, op in keyed]
    why = _misorder(order, h.nregs)
    if why:
        return _fail(prop, why)
    return _pass(prop, f"{len(order)} ops over {len(chain)} arrays")


def _write_rank(op: OpRecord, chain) -> Optional[int]:
    """Smallest trajectory array whose register entry reports op's tag."""
    k = bisect_left(chain, op.ts, key=lambda a: a[op.r - 1])
    return k if k < len(chain) else None


def _misorder(order: list, nregs: int) -> str:
    """Why `order` is not a linearization, or "" when it is one: replayed
    through _apply, every read and snapshot returns the state it reaches,
    and no op finishes before an op placed ahead of it began.  A backward
    pass keeping the earliest return among the later ops checks that last
    part in O(k)."""
    regs = (INITIAL_VALUE,) * nregs
    for op in order:
        regs = _apply(regs, op)
        if regs is None:
            what = "saw a state" if op.kind == "snapshot" else "read a value"
            return f"{op.label} {what} never current"
    first = None  # the op placed after the current one that returns first
    for op in reversed(order):
        if first is not None and first.return_idx < op.invoke_idx:
            return f"{first.label} finished before {op.label} began but is placed after it"
        if op.return_idx is not None and (first is None or op.return_idx < first.return_idx):
            first = op
    return ""


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
    if run.config.workload not in RW_WORKLOADS:
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
