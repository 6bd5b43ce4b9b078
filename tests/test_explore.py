"""The exhaustive explorer of the shared-memory construction (explore_rw).

The explorer keys states by interned component ids and expands each state
through one successor table per process, stepping each choice on fresh
copies of only what it writes.  These tests pin its counts and its n = 3
reach, compare it with the explorer it replaced (every process copied,
nested keys; kept here as an oracle), and check that neither a copy-on-write
step nor an exploration mutates a component it shares.
"""
from __future__ import annotations

import copy
import hashlib

import pytest

from scdkit.core import AppMessage, MsgId, UsageError, format_id_set
from scdkit.scd_from_snapshot import RwProcess
from scdkit.sim import RwWorld, SharedSnapshotMemory, explore_rw

MODES = ("atomic", "sc")


def scripts_for(*counts):
    """Scripts for processes 1..len(counts), counts[i-1] messages each."""
    return {
        i: [AppMessage(MsgId(i, k), f"{i}.{k}".encode()) for k in range(c)]
        for i, c in enumerate(counts, start=1)
    }


# ---------------------------------------------------------------------------
# the explorer before copy-on-write and interning, as an oracle


def full_copy(w: RwWorld) -> RwWorld:
    """A successor that copies every process, as the explorer once made."""
    c = copy.copy(w)
    c.procs = {i: p.clone() for i, p in w.procs.items()}
    c.memory = w.memory.clone()
    c.next_op, c.alive = dict(w.next_op), dict(w.alive)
    c.key_ids = list(w.key_ids)
    return c


def nested_key(w: RwWorld) -> tuple:
    """The whole world's state as nested tuples, sorting the memory's slots."""
    m = w.memory
    return (
        tuple(w.procs[i].state_key() for i in range(1, w.n + 1)),
        (tuple(m.store[k] for k in sorted(m.store)),
         tuple(tuple(m.queues[i]) for i in range(1, m.n + 1))),
        tuple(w.next_op[i] for i in range(1, w.n + 1)),
        tuple(w.alive[i] for i in range(1, w.n + 1)),
    )


def oracle_explore(n: int, scripts: dict, mem_mode: str):
    root = RwWorld(n, scripts, mem_mode)
    seen = {nested_key(root)}
    terminals = {}
    stack = [root]
    while stack:
        w = stack.pop()
        choices = w.choices()
        if not choices:
            terminals.setdefault(nested_key(w), w)
            continue
        for c in choices:
            w2 = full_copy(w)
            w2.step(c)
            k = nested_key(w2)
            if k not in seen:
                seen.add(k)
                stack.append(w2)
    return list(terminals.values()), len(seen)


def full_state(w: RwWorld) -> tuple:
    """Every component of a world, including what state keys leave out."""
    return (
        nested_key(w),
        tuple(frozenset(p.delivered) for p in w.procs.values()),
    )


def logs(terminals) -> list:
    return [[tuple(p.log) for p in w.procs.values()] for w in terminals]


def logs_digest(terminals) -> str:
    """sha256 of every terminal's delivery logs in discovery order, one line
    per terminal as tests/digest_sweep.py writes them."""
    digest = hashlib.sha256()
    for w in terminals:
        digest.update((" ".join(
            f"p{i}=" + "/".join(format_id_set(m.id for m in s) for s in p.log)
            for i, p in w.procs.items()) + "\n").encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------


# (messages of p1, messages of p2) -> (terminals, states atomic, states sc)
PINNED = {
    (0, 1): (3, 28, 41),
    (0, 2): (7, 135, 231),
    (0, 3): (17, 433, 820),
    (1, 1): (25, 404, 698),
    (1, 2): (101, 2148, 3998),
    (2, 2): (567, 13577, 25967),
}


@pytest.mark.parametrize("mem", MODES)
@pytest.mark.parametrize("split", sorted(PINNED) + sorted(s[::-1] for s in PINNED if s[0] != s[1]),
                         ids=lambda s: f"{s[0]}+{s[1]}")
def test_pinned_counts(split, mem):
    want = PINNED[tuple(sorted(split))]
    terminals, states = explore_rw(2, scripts_for(*split), mem)
    assert (len(terminals), states) == (want[0], want[1 + MODES.index(mem)])


DIFF_CASES = [((c1, c2), mem) for c1 in range(4) for c2 in range(4)
              if 1 <= c1 + c2 <= 3 for mem in MODES]
DIFF_CASES += [((2, 2), mem) for mem in MODES] + [((1, 1, 0), mem) for mem in MODES]
# states of the n = 3 case with one message each at p1 and p2
THREE_PROCESS_STATES = {"atomic": 19828, "sc": 39877}


@pytest.mark.parametrize("counts,mem", DIFF_CASES,
                         ids=[f"{'+'.join(map(str, c))}-{m}" for c, m in DIFF_CASES])
def test_explorer_matches_full_copy_oracle(counts, mem):
    scripts = scripts_for(*counts)
    got, got_states = explore_rw(len(counts), scripts, mem)
    want, want_states = oracle_explore(len(counts), scripts, mem)
    assert got_states == want_states
    if len(counts) == 3:
        assert got_states == THREE_PROCESS_STATES[mem]
    assert logs(got) == logs(want)
    assert [nested_key(w) for w in got] == [nested_key(w) for w in want]


@pytest.mark.parametrize("mem", MODES)
def test_copy_on_write_step_leaves_parent_unchanged(mem):
    """At every state of the 1+2 exploration, stepping a clone for each
    choice leaves the parent's full state and key as they were, and the
    clone's cached key equals one computed from scratch."""
    root = RwWorld(2, scripts_for(1, 2), mem)
    seen = {root.state_key()}
    stack = [root]
    transitions = 0
    while stack:
        w = stack.pop()
        before, key = full_state(w), w.state_key()
        for c in w.choices():
            w2 = w.clone(c[1])
            w2.step(c)
            assert full_state(w) == before, c
            assert w.state_key() == key, c
            k = w2.state_key()
            w2.key_ids = [None] * len(w2.key_ids)
            assert w2.state_key() == k, c
            transitions += 1
            if k not in seen:
                seen.add(k)
                stack.append(w2)
    assert len(seen) == PINNED[(1, 2)][1 + MODES.index(mem)]
    assert transitions > len(seen)


def test_state_limit_raises():
    with pytest.raises(UsageError, match="state limit 100"):
        explore_rw(2, scripts_for(2, 2), "atomic", state_limit=100)


@pytest.mark.parametrize("n,scripts,mem,match", [
    (2, {3: scripts_for(0, 0, 1)[3]}, "atomic", "not a process id"),
    (2, {0: []}, "atomic", "not a process id"),
    (2, scripts_for(1), "weird", "unknown memory mode"),
    (0, {}, "atomic", "n must be"),
    (2, {1: [AppMessage(MsgId(2, 0), b"x")], 2: [AppMessage(MsgId(2, 0), b"x")]}, "atomic",
     "message 0 of p1's script is 2.0, not 1.0"),
    (2, {1: scripts_for(1)[1] * 2}, "atomic", "message 1 of p1's script is 1.0, not 1.1"),
    (2, {2: [AppMessage(MsgId(2, 1), b"x")]}, "atomic", "message 0 of p2's script is 2.1, not 2.0"),
], ids=["script-of-p3-at-n2", "script-of-p0", "unknown-mode", "n0",
        "foreign-message", "repeated-message", "sequence-gap"])
def test_rejects_inputs_it_cannot_explore(n, scripts, mem, match):
    with pytest.raises(UsageError, match=match):
        explore_rw(n, scripts, mem)


def test_field_widths_follow_the_state_limit():
    """Keys pack their fields by widths taken from the inputs, so neither a
    state limit far past any machine word nor a long script overflows."""
    want = PINNED[(1, 2)]
    terminals, states = explore_rw(2, scripts_for(1, 2), "atomic", state_limit=10**40)
    assert (len(terminals), states) == want[:2]
    terminals, states = explore_rw(1, scripts_for(40), "atomic")
    assert len(terminals) == 1
    assert len(terminals[0].procs[1].log) == 40


# distinct local transitions (choice, process-i state, memory, next_op[i]) of 2+2
LOCAL_TRANSITIONS = {"atomic": 6550, "sc": 21740}


@pytest.mark.parametrize("mem", MODES)
def test_each_local_transition_steps_once(mem, monkeypatch):
    """A step of process i reads and writes only process i, the memory and
    next_op[i], so the explorer steps each distinct such transition once,
    however many global states share it."""
    steps = []
    step = RwWorld.step

    def counted(self, choice, *args):
        steps.append(choice)
        return step(self, choice, *args)

    monkeypatch.setattr(RwWorld, "step", counted)
    terminals, states = explore_rw(2, scripts_for(2, 2), mem)
    assert (len(terminals), states) == (PINNED[(2, 2)][0], PINNED[(2, 2)][1 + MODES.index(mem)])
    assert len(steps) == LOCAL_TRANSITIONS[mem]


def test_three_process_reach_is_pinned():
    """1+1+1 at n = 3 is past the full-copy oracle's reach, and it is where
    the per-process successor tables share most.  Its counts and terminal
    logs were pinned on the per-choice memo those tables replaced."""
    terminals, states = explore_rw(3, scripts_for(1, 1, 1), "atomic")
    assert (states, len(terminals)) == (1_065_657, 28_396)
    assert logs_digest(terminals) == (
        "e238f52d35612ee24dc8506e3bb7e08ff435da6165343b9e6ea57d4ca064ae16")


@pytest.mark.parametrize("mem", MODES)
def test_exploring_mutates_no_interned_component(mem, monkeypatch):
    """The explorer interns each component it keys and shares it from then
    on, stepping only fresh copies of what a choice writes.  So after each
    exploration, every process and memory it keyed still has that key."""
    original = {cls: cls.state_key for cls in (RwProcess, SharedSnapshotMemory)}
    keyed = []
    for cls, state_key in original.items():
        def recording(self, _state_key=state_key):
            k = _state_key(self)
            keyed.append((self, k))
            return k
        monkeypatch.setattr(cls, "state_key", recording)
    for counts in sorted(PINNED) + [(1, 1, 0)]:
        explore_rw(len(counts), scripts_for(*counts), mem)
        assert keyed, counts
        changed = [part for part, k in keyed if original[type(part)](part) != k]
        assert not changed, counts
        keyed.clear()
