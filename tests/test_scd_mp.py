"""Protocol state machine: buffer entries, forwarding, delivery, purge."""
from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from scdkit import scd_mp
from scdkit.core import AppMessage, MsgId, UsageError
from scdkit.scd_mp import (
    BufferEntry,
    ForwardMsg,
    INFINITE,
    ScdProcess,
    purge_blocked,
    threshold,
)


def msg(sender, seq, payload=b"m"):
    return AppMessage(MsgId(sender, seq), payload)


def seen_first_count(entry: BufferEntry, other: BufferEntry, n: int) -> int:
    """How many processes forwarded `entry` before `other`."""
    return sum(1 for f in range(1, n + 1) if entry.cl[f] < other.cl[f])


def blocker_count(entry: BufferEntry, outside, n: int) -> int:
    """How many entries of `outside` block `entry` at the threshold."""
    half = scd_mp.threshold(n)
    return sum(1 for o in outside if o is not entry and entry.ahead[o] <= half)


def with_counts(entries: list, n: int, candidates: list) -> list:
    """Fill the pair counts and blocker counts of hand-built entries from
    their columns, as ScdProcess keeps them for its buffer, taking
    `candidates` as the entries with a majority."""
    for e in entries:
        e.ahead = {o: seen_first_count(e, o, n) for o in entries if o is not e}
    outside = [e for e in entries if e not in candidates]
    for e in entries:
        e.blockers = blocker_count(e, outside, n)
    return entries


def assert_counts_match_columns(p: ScdProcess) -> None:
    """Every buffered entry's forwarder count, pair counts and blocker count
    equal a recount from its columns and the candidacy of the others."""
    outside = [o for o in p.buffer.values() if o.forwarders < p._majority]
    for e in p.buffer.values():
        assert e.forwarders == sum(c != INFINITE for c in e.cl[1:]), e
        assert list(e.ahead) == [o for o in p.buffer.values() if o is not e]
        for o, count in e.ahead.items():
            assert count == seen_first_count(e, o, p.n), (e, o)
        assert e.blockers == blocker_count(e, outside, p.n), e


def purge(candidates: list, n: int) -> list:
    """purge_blocked at the threshold, as try_deliver calls it."""
    return purge_blocked(candidates, scd_mp.threshold(n))


def purge_blocked_oracle(candidates: list, buffer: list, n: int) -> list:
    """The purge as first written: restart the scan after every drop.  The
    differential test below holds purge_blocked to its result."""
    todeliver = list(candidates)
    changed = True
    while changed:
        changed = False
        outside = [e for e in buffer if all(e is not d for d in todeliver)]
        for e in list(todeliver):
            if any(2 * seen_first_count(e, other, n) <= n for other in outside):
                todeliver = [d for d in todeliver if d is not e]
                changed = True
                break
    return todeliver


class AlwaysPurgeProcess(ScdProcess):
    """on_forward and try_deliver as first written: every receipt, a stale
    copy too, attempts a delivery, and the full purge runs whenever some
    entry has a majority.  Only the call to forward skips a stale copy, as
    forward requires.  The differential tests here and in test_sim hold the
    gated receipt to its results."""

    def on_forward(self, fmsg):
        out = None if fmsg.sn_sd <= self.clock[fmsg.sd] else self.forward(*fmsg)
        return out, self.try_deliver()

    def try_deliver(self):
        candidates = [e for e in self.buffer.values() if e.forwarders >= self._majority]
        todeliver = purge(candidates, self.n)
        if not todeliver:
            return None
        return self._deliver(todeliver)


RELATIONS = {
    "real": threshold,
    # protocol mutants of the one blocking relation, patched as
    # scd_mp.threshold so that the stored counts, the gate and the purge
    # all read them
    "never-blocks": lambda n: -1,
    "threshold-half-1": lambda n: n // 2 - 1,
}


def test_fresh_broadcast_creates_entry_and_forward():
    p = ScdProcess(1, 3)
    m = msg(1, 0)
    out = p.scbroadcast(m)
    assert out == ForwardMsg(m, 1, 0, 1, 0)
    assert p.sn == 1
    ((key, e),) = p.buffer.items()
    assert key == (e.sd, e.sn) == (1, 0)
    assert e.cl == [INFINITE, 0, INFINITE, INFINITE]
    assert p.pending_broadcast == m.id
    assert p.broadcast_complete() is None  # own entry still buffered


def test_second_broadcast_while_pending_is_rejected():
    p = ScdProcess(1, 3)
    p.scbroadcast(msg(1, 0))
    with pytest.raises(UsageError):
        p.scbroadcast(msg(1, 1))


def test_first_foreign_forward_creates_entry_and_reforwards():
    p = ScdProcess(2, 3)
    m = msg(1, 0)
    out, delivered = p.on_forward(ForwardMsg(m, 1, 0, 1, 0))
    # p2 echoes with its own counter value, which then advances; its own
    # column stays unknown until the self copy of that echo arrives
    assert out == ForwardMsg(m, 1, 0, 2, 0)
    assert p.sn == 1
    assert delivered is None
    (e,) = p.buffer.values()
    assert e.cl == [INFINITE, 0, INFINITE, INFINITE]


def test_known_message_updates_forwarder_column_only():
    p = ScdProcess(2, 3)
    m = msg(1, 0)
    p.on_forward(ForwardMsg(m, 1, 0, 1, 0))
    (e,) = p.buffer.values()
    out, delivered = p.on_forward(ForwardMsg(m, 1, 0, 3, 5))
    assert out is None  # no re-forward for an already buffered message
    # only column 3 was written; p2's own column waits for the self copy of
    # its echo, so p1 and p3 are known: 2 of 3 > 3/2, a majority
    assert e.cl == [INFINITE, 0, INFINITE, 5]
    assert e.forwarders == 2
    assert delivered == frozenset({m})
    assert p.buffer == {}
    assert p.clock[1] == 0


def test_stale_forward_is_absorbed_silently():
    p = ScdProcess(2, 3)
    m = msg(1, 0)
    p.on_forward(ForwardMsg(m, 1, 0, 1, 0))
    p.on_forward(ForwardMsg(m, 1, 0, 3, 0))
    assert p.clock[1] == 0
    # self copy and any further copies of the delivered message are stale
    out, delivered = p.on_forward(ForwardMsg(m, 1, 0, 2, 0))
    assert out is None and delivered is None
    assert p.buffer == {}


def test_majority_of_forwarders_required_to_deliver():
    p = ScdProcess(3, 5)
    m = msg(1, 0)
    echo, _ = p.on_forward(ForwardMsg(m, 1, 0, 1, 0))
    _, delivered = p.on_forward(ForwardMsg(m, 1, 0, 2, 0))
    assert delivered is None  # two known forwarders of five: not a majority
    _, delivered = p.on_forward(echo)  # own copy makes three
    assert delivered == frozenset({m})


def test_clock_advances_monotonically_per_sender():
    p = ScdProcess(2, 3)
    for k in range(3):
        m = msg(1, k)
        p.on_forward(ForwardMsg(m, 1, k, 1, k))
        _, delivered = p.on_forward(ForwardMsg(m, 1, k, 3, k))
        assert delivered == frozenset({m})
        assert p.clock[1] == k


def test_seen_first_count_compares_columns():
    a = BufferEntry(msg(1, 0), 1, 0, [INFINITE, 0, 1, INFINITE])
    b = BufferEntry(msg(2, 0), 2, 0, [INFINITE, 2, 0, INFINITE])
    assert seen_first_count(a, b, 3) == 1  # only p1 saw a first
    assert seen_first_count(b, a, 3) == 1  # only p2 saw b first


def test_purge_drops_candidate_behind_outside_entry():
    # candidate a is known-before the outside entry b at only 1 of 3
    # processes, so a cannot be delivered yet
    a = BufferEntry(msg(1, 0), 1, 0, [INFINITE, 0, 1, INFINITE])
    b = BufferEntry(msg(2, 0), 2, 0, [INFINITE, 2, 0, INFINITE])
    with_counts([a, b], 3, [a])
    assert purge([a], 3) == []


def test_purge_keeps_candidate_ahead_at_majority():
    a = BufferEntry(msg(1, 0), 1, 0, [INFINITE, 0, 0, INFINITE])
    b = BufferEntry(msg(2, 0), 2, 0, [INFINITE, 2, 7, INFINITE])
    with_counts([a, b], 3, [a])
    assert purge([a], 3) == [a]


def test_purge_cascade():
    # b precedes the outside entry c at p1 only, so b is dropped; a must then
    # also beat b, the candidate just dropped: it does, at p1 and p2
    a = BufferEntry(msg(1, 0), 1, 0, [INFINITE, 0, 0, INFINITE])
    b = BufferEntry(msg(2, 0), 2, 0, [INFINITE, 1, INFINITE, 3])
    c = BufferEntry(msg(3, 0), 3, 0, [INFINITE, INFINITE, 1, 0])
    with_counts([a, b, c], 3, [a, b])
    kept = purge([a, b], 3)
    assert b not in kept
    # a vs c: a precedes c at p1 (0 < inf) and p2 (0 < 1), not at p3 (inf),
    # so at 2 of 3 processes, a majority: a stays
    assert kept == [a]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_purge_result_ignores_candidate_order(seed):
    """The fixpoint does not depend on the order candidates are examined."""
    rng = random.Random(seed)
    n = rng.choice([3, 5])
    entries = []
    for k in range(rng.randint(2, 5)):
        cl = [INFINITE] * (n + 1)
        for f in range(1, n + 1):
            if rng.random() < 0.7:
                cl[f] = rng.randint(0, 4)
        entries.append(BufferEntry(msg(1 + k % n, k), 1 + k % n, k, cl))
    cands = [e for e in entries if 2 * sum(1 for c in e.cl[1:] if c != INFINITE) > n]
    with_counts(entries, n, cands)
    baseline = purge(cands, n)
    for _ in range(4):
        shuffled = cands[:]
        rng.shuffle(shuffled)
        assert set(map(id, purge(shuffled, n))) == set(map(id, baseline))


@st.composite
def purge_inputs(draw):
    """A buffer of up to 12 entries whose columns mix small sequence numbers
    (ties included) with INFINITE, and its majority-forwarded candidates."""
    n = draw(st.integers(min_value=1, max_value=9))
    column = st.one_of(st.just(INFINITE), st.integers(min_value=0, max_value=6))
    entries = []
    for k in range(draw(st.integers(min_value=0, max_value=12))):
        cl = [INFINITE] + draw(st.lists(column, min_size=n, max_size=n))
        entries.append(BufferEntry(msg(1 + k % n, k), 1 + k % n, k, cl))
    cands = [e for e in entries if 2 * sum(1 for c in e.cl[1:] if c != INFINITE) > n]
    return cands, with_counts(entries, n, cands), n


@settings(max_examples=400, deadline=None)
@given(purge_inputs())
def test_purge_matches_rescanning_oracle(inputs):
    cands, entries, n = inputs
    got = purge(cands, n)
    assert [id(e) for e in got] == [id(e) for e in purge_blocked_oracle(cands, entries, n)]


@st.composite
def forward_streams(draw):
    """A receiving process and a stream of FORWARDs to it, with scbroadcast
    calls (sender 0) mixed in, and whether the stream is legal.

    An arbitrary stream is not FIFO, and a column may come back with another
    number, which the receiver rejects.  A legal stream is what FIFO channels
    deliver.  Each forwarder f other than the receiver names the messages of
    each sender in order (sequence numbers 0, 1, ...; the receiver's own
    messages are its broadcasts, picked when it runs) with increasing numbers
    of its own, and an item whose forwarder is the receiver takes the
    receiver's next self copy."""
    n = draw(st.integers(min_value=1, max_value=5))
    pid = draw(st.integers(min_value=1, max_value=n))
    proc = st.integers(min_value=1, max_value=n)
    item = st.tuples(st.integers(0, n), st.integers(0, 3), proc, st.integers(0, 6))
    stream = draw(st.lists(item, min_size=10, max_size=80))
    legal = draw(st.booleans())
    if legal:
        named, last = {}, {}  # (f, sd) -> messages named; f -> last number
        for k, (sd, _, f, gap) in enumerate(stream):
            if sd and f != pid:
                sn = named[f, sd] = named.get((f, sd), -1) + 1
                last[f] = last.get(f, -1) + 1 + gap
                stream[k] = (sd, sn, f, last[f])
    return n, pid, stream, legal


def _outcome(call, *args):
    try:
        return call(*args)
    except AssertionError:
        return AssertionError


@pytest.mark.parametrize("relation", RELATIONS)
@settings(max_examples=500, deadline=None)
@given(inputs=forward_streams())
def test_gated_delivery_matches_always_purge(relation, inputs):
    """The gate never skips a purge that would deliver, whatever the
    blocking threshold: its proof uses only how counts move.  After every
    event, the stored pair and blocker counts equal a recount from the
    columns, and a legal stream never fails an assertion."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scd_mp, "threshold", RELATIONS[relation])
        _gated_matches_always_purge(*inputs)


def _gated_matches_always_purge(n, pid, stream, legal):
    gated, oracle = ScdProcess(pid, n), AlwaysPurgeProcess(pid, n)
    # of a legal stream: the receiver's self copies in flight, the self
    # copies of its broadcasts, and how many of them each forwarder named
    selfq, own, named = deque(), [], [0] * (n + 1)
    for k, (sd, sn, f, snf) in enumerate(stream):
        if not sd:
            if gated.pending_broadcast is not None:
                continue
            call, arg = "scbroadcast", msg(pid, 100 + k)
        elif legal and f == pid:
            if not selfq:
                continue
            call, arg = "on_forward", selfq.popleft()
        elif legal and sd == pid:
            if named[f] == len(own):
                continue
            call, arg = "on_forward", own[named[f]]._replace(f=f, sn_f=snf)
            named[f] += 1
        else:
            call, arg = "on_forward", ForwardMsg(msg(sd, sn), sd, sn, f, snf)
        got = _outcome(getattr(gated, call), arg)
        assert got == _outcome(getattr(oracle, call), arg)
        if got is AssertionError:
            assert not legal, (call, arg)
            return
        if legal:
            out = got if call == "scbroadcast" else got[0]
            if out is not None:
                selfq.append(out)
            if call == "scbroadcast":
                own.append(out)
        # the own-entry count and the stored counts against the buffer scans
        # they replaced
        for p in (gated, oracle):
            assert p._own == sum(e.sd == pid for e in p.buffer.values())
            assert_counts_match_columns(p)
        done = gated.broadcast_complete()
        assert done == oracle.broadcast_complete()
        # the simulator asks only after a delivered set: on a legal stream
        # nothing else completes a broadcast (an illegal one can name the
        # receiver's next broadcast as delivered before it is made)
        assert not legal or done is None or (call == "on_forward" and got[1] is not None), \
            (call, arg)
    assert [(e.sd, e.sn, e.cl) for e in gated.buffer.values()] == \
        [(e.sd, e.sn, e.cl) for e in oracle.buffer.values()]


def test_rewritten_column_is_rejected():
    """A process forwards a message only on first receipt, so a second
    number for one (message, forwarder) pair is not a protocol state."""
    p = ScdProcess(1, 3)
    m = msg(3, 0)
    p.on_forward(ForwardMsg(m, 3, 0, 2, 0))
    with pytest.raises(AssertionError):
        p.on_forward(ForwardMsg(m, 3, 0, 2, 1))


class LoopbackNet:
    """Single-process-view network: FIFO queues between live processes."""

    def __init__(self, n):
        self.procs = {i: ScdProcess(i, n) for i in range(1, n + 1)}
        self.queues = {(i, j): deque() for i in self.procs for j in self.procs}
        self.delivered = {i: [] for i in self.procs}

    def send_all(self, src, fm):
        """fifo-broadcast a handler's FORWARD, if it returned one."""
        if fm is not None:
            for dst in self.procs:
                self.queues[(src, dst)].append(fm)

    def pump(self, rng):
        while True:
            ready = [k for k, q in self.queues.items() if q]
            if not ready:
                return
            src, dst = rng.choice(ready)
            fm = self.queues[(src, dst)].popleft()
            out, ms = self.procs[dst].on_forward(fm)
            self.send_all(dst, out)
            if ms is not None:
                self.delivered[dst].append(ms)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_all_processes_deliver_all_messages(seed):
    rng = random.Random(seed)
    n = rng.choice([3, 5])
    net = LoopbackNet(n)
    msgs = []
    for i in range(1, n + 1):
        m = msg(i, 0, f"payload{i}".encode())
        msgs.append(m)
        net.send_all(i, net.procs[i].scbroadcast(m))
    net.pump(rng)
    for i, sets in net.delivered.items():
        got = set().union(*sets) if sets else set()
        assert got == set(msgs)
        assert net.procs[i].broadcast_complete() == MsgId(i, 0)
        assert net.procs[i].buffer == {}


def test_delivery_respects_first_seen_majority_order():
    """If every process forwards m before m', no process delivers m' first."""
    rng = random.Random(7)
    for trial in range(30):
        net = LoopbackNet(3)
        m1, m2 = msg(1, 0, b"a"), msg(2, 0, b"b")
        net.send_all(1, net.procs[1].scbroadcast(m1))
        net.pump(rng)  # m1 fully settles first
        net.send_all(2, net.procs[2].scbroadcast(m2))
        net.pump(rng)
        for sets in net.delivered.values():
            flat = [m for s in sets for m in (s,)]
            pos1 = next(k for k, s in enumerate(flat) if m1 in s)
            pos2 = next(k for k, s in enumerate(flat) if m2 in s)
            assert pos1 < pos2


def test_receipts_that_cannot_deliver_skip_the_purge(monkeypatch):
    """A receipt that leaves its entry short of a majority, or a stale copy
    of a delivered message, calls no try_deliver, and so no purge_blocked.
    The counts are taken only while some other entry has a majority: the
    ungated try_deliver purged on each of those receipts."""
    purges, attempts = [], []
    real_purge, real_try = scd_mp.purge_blocked, ScdProcess.try_deliver

    def counting_purge(*args):
        purges.append(args)
        return real_purge(*args)

    def counting_try(self):
        attempts.append(self.pid)
        return real_try(self)

    monkeypatch.setattr(scd_mp, "purge_blocked", counting_purge)
    monkeypatch.setattr(ScdProcess, "try_deliver", counting_try)
    rng = random.Random(5)
    net = LoopbackNet(5)
    sent = dict.fromkeys(net.procs, 1)  # each process broadcasts 4 messages
    for i, p in net.procs.items():
        net.send_all(i, p.scbroadcast(msg(i, 0)))
    skipped = {"short": 0, "stale": 0}
    receipts = 0
    while any(net.queues.values()):
        src, dst = rng.choice([key for key, q in net.queues.items() if q])
        fm = net.queues[(src, dst)].popleft()
        p = net.procs[dst]
        stale = fm.sn_sd <= p.clock[fm.sd]
        majority_elsewhere = any(2 * e.forwarders > p.n for e in p.buffer.values())
        before = len(purges), len(attempts)
        out, _ = p.on_forward(fm)
        receipts += 1
        net.send_all(dst, out)
        entry = p.buffer.get((fm.sd, fm.sn_sd))
        if stale or (entry is not None and 2 * entry.forwarders <= p.n):
            assert (len(purges), len(attempts)) == before, fm
            skipped["stale" if stale else "short"] += majority_elsewhere
        if p.broadcast_complete() is not None and sent[dst] < 4:
            net.send_all(dst, p.scbroadcast(msg(dst, sent[dst])))
            sent[dst] += 1
    assert skipped["short"] and skipped["stale"], skipped
    # the receipts that can deliver still attempt it, and purge
    assert purges and len(purges) <= len(attempts) < receipts
