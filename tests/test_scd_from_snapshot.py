"""Broadcast construction on top of single-writer snapshot objects."""
from __future__ import annotations

import pytest

from scdkit.core import AppMessage, MsgId, UsageError
from scdkit.scd_from_snapshot import RwProcess
from scdkit.sim import SharedSnapshotMemory, explore_rw


def msg(sender, seq):
    return AppMessage(MsgId(sender, seq), f"{sender}.{seq}".encode())


def drive(proc, memory):
    """Run the active frame to completion against one memory, collecting the
    sets it delivers."""
    sets = []
    while (op := proc.pending_memop()) is not None:
        got = proc.complete_memop(memory.execute(proc.pid, op))
        if got is not None:
            sets.append(got)
    return sets


def test_broadcast_delivers_own_message():
    mem = SharedSnapshotMemory(2, "atomic")
    p1 = RwProcess(1, 2)
    m = msg(1, 0)
    p1.start_broadcast(m)
    assert drive(p1, mem) == [frozenset({m})]
    assert p1.log == (frozenset({m}),)
    # the delivery is published: SETSEQ[1] holds one set
    assert mem.store[("SETSEQ", 1)] == (frozenset({m}),)
    assert mem.store[("SENT", 1)] == frozenset({m})


def test_tick_catches_up_full_residue():
    """A set seen in another sequence minus what is already delivered here
    comes out as one delivery."""
    m1, m2 = msg(1, 0), msg(1, 1)
    mem = SharedSnapshotMemory(2, "atomic")
    mem.store[("SETSEQ", 1)] = (frozenset({m1, m2}),)
    mem.store[("SENT", 1)] = frozenset({m1, m2})
    p2 = RwProcess(2, 2)
    p2.start_tick()
    assert drive(p2, mem) == [frozenset({m1, m2})]


def test_tick_delivers_only_missing_part_of_first_set():
    m1, m2 = msg(1, 0), msg(1, 1)
    mem = SharedSnapshotMemory(2, "atomic")
    mem.store[("SETSEQ", 1)] = (frozenset({m1, m2}),)
    mem.store[("SENT", 1)] = frozenset({m1, m2})
    p2 = RwProcess(2, 2)
    # p2 already delivered {m1} on its own earlier
    p2.setseq = ((), (), (frozenset({m1}),))
    p2.delivered = frozenset({m1})
    mem.store[("SETSEQ", 2)] = (frozenset({m1}),)
    p2.start_tick()
    assert drive(p2, mem) == [frozenset({m2})]


def test_tick_walks_sequence_sets_in_order():
    m1, m2 = msg(1, 0), msg(1, 1)
    mem = SharedSnapshotMemory(2, "atomic")
    mem.store[("SETSEQ", 1)] = (frozenset({m1}), frozenset({m2}))
    mem.store[("SENT", 1)] = frozenset({m1, m2})
    p2 = RwProcess(2, 2)
    p2.start_tick()
    assert drive(p2, mem) == [frozenset({m1}), frozenset({m2})]


def test_tick_skips_fully_covered_head_sets():
    m1, m2, m3 = msg(1, 0), msg(1, 1), msg(1, 2)
    mem = SharedSnapshotMemory(2, "atomic")
    mem.store[("SETSEQ", 1)] = (frozenset({m1}), frozenset({m2, m3}))
    mem.store[("SENT", 1)] = frozenset({m1, m2, m3})
    p2 = RwProcess(2, 2)
    p2.setseq = ((), (), (frozenset({m1, m2}),))
    p2.delivered = frozenset({m1, m2})
    mem.store[("SETSEQ", 2)] = (frozenset({m1, m2}),)
    p2.start_tick()
    # head set {m1} is covered; the second set still owes m3
    assert drive(p2, mem) == [frozenset({m3})]


def test_round_picks_up_sent_messages_missing_from_sequences():
    # a message parked in SENT but in nobody's sequence comes out in the
    # final delivery of the round
    m1 = msg(1, 0)
    mem = SharedSnapshotMemory(2, "atomic")
    mem.store[("SENT", 1)] = frozenset({m1})
    p2 = RwProcess(2, 2)
    p2.start_tick()
    assert drive(p2, mem) == [frozenset({m1})]


def test_one_round_at_a_time():
    p = RwProcess(1, 2)
    p.start_tick()
    with pytest.raises(UsageError):
        p.start_broadcast(msg(1, 0))


def test_clone_is_independent():
    mem = SharedSnapshotMemory(2, "atomic")
    p = RwProcess(1, 2)
    p.start_broadcast(msg(1, 0))
    c = p.clone()
    drive(p, mem)
    assert c.frame is not None and p.frame is None
    assert c.state_key() != p.state_key()


def test_exhaustive_interleavings_agree_on_outcome():
    """Every interleaving of two concurrent broadcasts ends with both
    processes holding both messages, in inclusion-compatible logs."""
    scripts = {1: [msg(1, 0)], 2: [msg(2, 0)]}
    terminals, _ = explore_rw(2, scripts, "atomic")
    assert terminals
    for world in terminals:
        for p in world.procs.values():
            assert set().union(*p.log) == {msg(1, 0), msg(2, 0)}


def test_exhaustive_state_count_is_stable():
    scripts = {1: [msg(1, 0), msg(1, 1)], 2: [msg(2, 0)]}
    t_atomic, s_atomic = explore_rw(2, scripts, "atomic")
    t_again, s_again = explore_rw(2, scripts, "atomic")
    # exploration is deterministic
    assert len(t_atomic) == len(t_again) and s_atomic == s_again
