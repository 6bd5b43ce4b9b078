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
)


def msg(sender, seq, payload=b"m"):
    return AppMessage(MsgId(sender, seq), payload)


def seen_first_count(entry: BufferEntry, other: BufferEntry, n: int) -> int:
    """How many processes forwarded `entry` before `other`."""
    return sum(1 for f in range(1, n + 1) if entry.cl[f] < other.cl[f])


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
    """try_deliver as first written: the full purge whenever some entry has
    a majority.  The differential tests here and in test_sim hold the gated
    try_deliver to its results."""

    def try_deliver(self):
        if not self._candidates:
            return None
        candidates = [e for e in self.buffer if e.forwarders >= self._majority]
        todeliver = purge_blocked(candidates, self.buffer, self.n)
        if not todeliver:
            return None
        return self._deliver(todeliver)


def test_fresh_broadcast_creates_entry_and_forward():
    p = ScdProcess(1, 3)
    m = msg(1, 0)
    out = p.scbroadcast(m)
    assert out == [ForwardMsg(m, 1, 0, 1, 0)]
    assert p.sn == 1
    (e,) = p.buffer
    assert (e.sd, e.sn) == (1, 0)
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
    assert out == [ForwardMsg(m, 1, 0, 2, 0)]
    assert p.sn == 1
    assert delivered == []
    (e,) = p.buffer
    assert e.cl == [INFINITE, 0, INFINITE, INFINITE]


def test_known_message_updates_forwarder_column_only():
    p = ScdProcess(2, 3)
    m = msg(1, 0)
    p.on_forward(ForwardMsg(m, 1, 0, 1, 0))
    out, delivered = p.on_forward(ForwardMsg(m, 1, 0, 3, 5))
    assert out == []  # no re-forward for an already buffered message
    assert p.buffer == [] or delivered  # majority reached, see below
    # with cl = [0, 0, 5] all three known, 3 of 3 > 3/2: delivered
    assert delivered == [frozenset({m})]
    assert p.clock[1] == 0


def test_stale_forward_is_absorbed_silently():
    p = ScdProcess(2, 3)
    m = msg(1, 0)
    p.on_forward(ForwardMsg(m, 1, 0, 1, 0))
    p.on_forward(ForwardMsg(m, 1, 0, 3, 0))
    assert p.clock[1] == 0
    # self copy and any further copies of the delivered message are stale
    out, delivered = p.on_forward(ForwardMsg(m, 1, 0, 2, 0))
    assert out == [] and delivered == []
    assert p.buffer == []


def test_majority_of_forwarders_required_to_deliver():
    p = ScdProcess(3, 5)
    m = msg(1, 0)
    (echo,), _ = p.on_forward(ForwardMsg(m, 1, 0, 1, 0))
    _, delivered = p.on_forward(ForwardMsg(m, 1, 0, 2, 0))
    assert delivered == []  # two known forwarders of five: not a majority
    _, delivered = p.on_forward(echo)  # own copy makes three
    assert delivered == [frozenset({m})]


def test_clock_advances_monotonically_per_sender():
    p = ScdProcess(2, 3)
    for k in range(3):
        m = msg(1, k)
        p.on_forward(ForwardMsg(m, 1, k, 1, k))
        _, delivered = p.on_forward(ForwardMsg(m, 1, k, 3, k))
        assert delivered == [frozenset({m})]
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
    assert purge_blocked([a], [a, b], 3) == []


def test_purge_keeps_candidate_ahead_at_majority():
    a = BufferEntry(msg(1, 0), 1, 0, [INFINITE, 0, 0, INFINITE])
    b = BufferEntry(msg(2, 0), 2, 0, [INFINITE, 2, 7, INFINITE])
    assert purge_blocked([a], [a, b], 3) == [a]


def test_purge_cascade():
    # b precedes the outside entry c at p1 only, so b is dropped; a must then
    # also beat b, the candidate just dropped: it does, at p1 and p2
    a = BufferEntry(msg(1, 0), 1, 0, [INFINITE, 0, 0, INFINITE])
    b = BufferEntry(msg(2, 0), 2, 0, [INFINITE, 1, INFINITE, 3])
    c = BufferEntry(msg(3, 0), 3, 0, [INFINITE, INFINITE, 1, 0])
    kept = purge_blocked([a, b], [a, b, c], 3)
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
    baseline = purge_blocked(cands, entries, n)
    for _ in range(4):
        shuffled = cands[:]
        rng.shuffle(shuffled)
        assert set(map(id, purge_blocked(shuffled, entries, n))) == set(map(id, baseline))


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
    return cands, entries, n


@settings(max_examples=400, deadline=None)
@given(purge_inputs())
def test_purge_matches_rescanning_oracle(inputs):
    cands, entries, n = inputs
    got = purge_blocked(cands, entries, n)
    assert [id(e) for e in got] == [id(e) for e in purge_blocked_oracle(cands, entries, n)]


@st.composite
def forward_streams(draw):
    """A receiving process and an arbitrary stream of FORWARDs to it, not
    FIFO, with scbroadcast calls mixed in.  In a rewriting stream a column
    may come back with another sequence number; otherwise every (message,
    forwarder) pair keeps its first number, as in the protocol."""
    n = draw(st.integers(min_value=1, max_value=5))
    pid = draw(st.integers(min_value=1, max_value=n))
    proc = st.integers(min_value=1, max_value=n)
    # sender 0 stands for an scbroadcast, made if none is pending
    item = st.tuples(st.integers(0, n), st.integers(0, 3), proc, st.integers(0, 6))
    stream = draw(st.lists(item, min_size=10, max_size=80))
    if not draw(st.booleans()):
        first = {}
        stream = [(*it[:3], first.setdefault(it[:3], it[3])) for it in stream]
    return n, pid, stream


def _outcome(call, *args):
    try:
        return call(*args)
    except AssertionError:
        return AssertionError


@settings(max_examples=500, deadline=None)
@given(forward_streams())
def test_gated_delivery_matches_always_purge(inputs):
    n, pid, stream = inputs
    gated, oracle = ScdProcess(pid, n), AlwaysPurgeProcess(pid, n)
    for k, (sd, sn, f, snf) in enumerate(stream):
        if not sd:
            if gated.pending_broadcast is None:
                m = msg(pid, 100 + k)
                assert gated.scbroadcast(m) == oracle.scbroadcast(m)
        else:
            fm = ForwardMsg(msg(sd, sn), sd, sn, f, snf)
            got = _outcome(gated.on_forward, fm)
            assert got == _outcome(oracle.on_forward, fm)
            if got is AssertionError:
                return
        # the own-entry count against the buffer scan it replaced
        for p in (gated, oracle):
            assert p._own == sum(e.sd == pid for e in p.buffer)
        assert gated.broadcast_complete() == oracle.broadcast_complete()
    assert [(e.sd, e.sn, e.cl) for e in gated.buffer] == \
        [(e.sd, e.sn, e.cl) for e in oracle.buffer]


class LoopbackNet:
    """Single-process-view network: FIFO queues between live processes."""

    def __init__(self, n):
        self.procs = {i: ScdProcess(i, n) for i in range(1, n + 1)}
        self.queues = {(i, j): deque() for i in self.procs for j in self.procs}
        self.delivered = {i: [] for i in self.procs}

    def send_all(self, src, fwds):
        for fm in fwds:
            for dst in self.procs:
                self.queues[(src, dst)].append(fm)

    def pump(self, rng):
        while True:
            ready = [k for k, q in self.queues.items() if q]
            if not ready:
                return
            src, dst = rng.choice(ready)
            fm = self.queues[(src, dst)].popleft()
            out, sets = self.procs[dst].on_forward(fm)
            self.send_all(dst, out)
            self.delivered[dst].extend(sets)


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
        assert net.procs[i].buffer == []


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
    of a delivered message, calls no purge_blocked.  The counts are taken
    only while some other entry has a majority: the ungated try_deliver
    purged on each of those receipts."""
    calls = []
    real = scd_mp.purge_blocked

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(scd_mp, "purge_blocked", counting)
    rng = random.Random(5)
    net = LoopbackNet(5)
    sent = dict.fromkeys(net.procs, 1)  # each process broadcasts 4 messages
    for i, p in net.procs.items():
        net.send_all(i, p.scbroadcast(msg(i, 0)))
    skipped = {"short": 0, "stale": 0}
    while any(net.queues.values()):
        src, dst = rng.choice([key for key, q in net.queues.items() if q])
        fm = net.queues[(src, dst)].popleft()
        p = net.procs[dst]
        stale = fm.sn_sd <= p.clock[fm.sd]
        majority_elsewhere = any(2 * e.forwarders > p.n for e in p.buffer)
        before = len(calls)
        out, _ = p.on_forward(fm)
        net.send_all(dst, out)
        entry = p._index.get((fm.sd, fm.sn_sd))
        if stale or (entry is not None and 2 * entry.forwarders <= p.n):
            assert len(calls) == before, fm
            skipped["stale" if stale else "short"] += majority_elsewhere
        if p.broadcast_complete() is not None and sent[dst] < 4:
            net.send_all(dst, p.scbroadcast(msg(dst, sent[dst])))
            sent[dst] += 1
    assert skipped["short"] and skipped["stale"], skipped
    assert calls  # the receipts that can deliver still purge
