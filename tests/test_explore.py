"""The exhaustive explorer of the shared-memory construction (explore_rw).

The explorer keys states by interned ids of each process and each memory
entry, and expands each state through one successor table per process, keyed
by what that process's choices read (RwWorld.READS).  These tests pin its
counts and its n = 3 reach, compare it with the explorer it replaced (every
process copied, nested keys; kept here as an oracle), check that the oracle
sees a read set that is too small, that neither a copy-on-write step nor an
exploration mutates a component it shares, that every process it keys holds
only immutable values, and that both memory modes give the same outcomes.
"""
from __future__ import annotations

import copy
import hashlib

import pytest

from scdkit.core import AppMessage, MsgId, UsageError, format_id_set
from scdkit.scd_from_snapshot import Frame, RwProcess
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
    return c


def nested_key(w: RwWorld) -> tuple:
    """The whole world's state as nested tuples, sorting the memory's slots."""
    m = w.memory
    return (
        tuple(w.procs[i].state_key() for i in range(1, w.n + 1)),
        tuple(m.store[k] for k in sorted(m.store)),
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


def test_oracle_sees_a_read_set_too_small(monkeypatch):
    """With an idle process's read set cut to its own entries, its table
    would hand the tick enabling of one state to states where another
    process's broadcast is visible: the oracle comparison must catch that."""
    monkeypatch.setitem(RwWorld.READS, None, ())

    def agrees(counts, mem):
        scripts = scripts_for(*counts)
        got, got_states = explore_rw(len(counts), scripts, mem)
        want, want_states = oracle_explore(len(counts), scripts, mem)
        return got_states == want_states and logs(got) == logs(want)

    assert not all(agrees(counts, mem) for counts, mem in DIFF_CASES)


@pytest.mark.parametrize("mem", MODES)
def test_copy_on_write_step_leaves_parent_unchanged(mem):
    """At every state of the 1+2 exploration, stepping a clone for each
    choice leaves the parent's full state and key as they were, and the
    clone reaches the full state that a full copy of the parent reaches."""
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
            w3 = full_copy(w)
            w3.step(c)
            assert full_state(w2) == full_state(w3), c
            k = w2.state_key()
            transitions += 1
            if k not in seen:
                seen.add(k)
                stack.append(w2)
    assert len(seen) == PINNED[(1, 2)][1 + MODES.index(mem)]
    assert transitions > len(seen)


@pytest.mark.parametrize("mem", MODES)
def test_crash_writes_only_its_process_and_queue(mem):
    """At every state of the 1+2 exploration where a process has an open
    frame, crashing it changes only that process's state key and its own
    queue, which it empties, and leaves it no choices.  In sc mode some of
    those states hold a write in the victim's queue."""
    root = RwWorld(2, scripts_for(1, 2), mem)
    seen = {nested_key(root)}
    stack = [root]
    crashed = queued = 0
    while stack:
        w = stack.pop()
        for i, p in w.procs.items():
            if p.frame is None:
                continue
            c = full_copy(w)
            c.crash(i)
            procs = {j: q.state_key() for j, q in c.procs.items() if j != i}
            store = {k: v for k, v in c.memory.store.items() if k != ("queue", i)}
            assert procs == {j: q.state_key() for j, q in w.procs.items() if j != i}
            assert store == {k: v for k, v in w.memory.store.items() if k != ("queue", i)}
            assert c.procs[i].state_key() != p.state_key()
            assert c.memory.store["queue", i] == () and c.choices((i,)) == []
            crashed += 1
            queued += bool(w.memory.store["queue", i])
        for choice in w.choices():
            w2 = full_copy(w)
            w2.step(choice)
            k = nested_key(w2)
            if k not in seen:
                seen.add(k)
                stack.append(w2)
    assert crashed and (queued > 0) == (mem == "sc"), (crashed, queued)


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


# distinct local transitions of 2+2: (choice, process-i state, the entries
# process i's read set holds)
LOCAL_TRANSITIONS = {"atomic": 3166, "sc": 6934}


@pytest.mark.parametrize("mem", MODES)
def test_each_local_transition_steps_once(mem, monkeypatch):
    """A step of process i reads and writes only process i and the memory
    entries of its read set, so the explorer steps each distinct such
    transition once, however many global states share it.  No step copies
    the memory, whether it writes an entry or not: the explorer puts back
    in its scratch memory what a step changed."""
    writes, copies = [], []
    step, clone = RwWorld.step, SharedSnapshotMemory.clone

    def counted(self, choice, *args):
        before = self.memory.state_key()
        step(self, choice, *args)
        writes.append(self.memory.state_key() != before)

    def counted_clone(self):
        copies.append(self)
        return clone(self)

    monkeypatch.setattr(RwWorld, "step", counted)
    monkeypatch.setattr(SharedSnapshotMemory, "clone", counted_clone)
    terminals, states = explore_rw(2, scripts_for(2, 2), mem)
    assert (len(terminals), states) == (PINNED[(2, 2)][0], PINNED[(2, 2)][1 + MODES.index(mem)])
    assert len(writes) == LOCAL_TRANSITIONS[mem]
    assert any(writes) and not all(writes)
    assert not copies


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
    """The explorer interns each process it keys and each memory entry's
    value, and shares them from then on: it steps only fresh copies of a
    process, and its scratch memory only ever holds interned entry values.
    So after each exploration, every process it keyed still has that key,
    and every entry value a memory operation met still equals a copy taken
    then."""
    state_key = RwProcess.state_key
    keyed, met = [], {}

    def recording(self):
        k = state_key(self)
        keyed.append((self, k))
        return k

    def meeting(method):
        def op(self, *args):
            for v in self.store.values():
                met.setdefault(id(v), (v, copy.deepcopy(v)))
            return method(self, *args)
        return op

    monkeypatch.setattr(RwProcess, "state_key", recording)
    for name in ("execute", "apply_one"):
        monkeypatch.setattr(SharedSnapshotMemory, name, meeting(getattr(SharedSnapshotMemory, name)))
    for counts in sorted(PINNED) + [(1, 1, 0)]:
        explore_rw(len(counts), scripts_for(*counts), mem)
        assert keyed and met, counts
        assert not [p for p, k in keyed if state_key(p) != k], counts
        assert not [v for v, then in met.values() if v != then], counts
        keyed.clear()
        met.clear()


def frozen(v) -> bool:
    """Whether v is an immutable value all the way down."""
    if isinstance(v, (tuple, frozenset)):  # Frame and AppMessage are tuples
        return all(map(frozen, v))
    return isinstance(v, (int, str, bytes, type(None)))


@pytest.mark.parametrize("mem", MODES)
def test_interned_processes_hold_only_immutable_values(mem, monkeypatch):
    """Every process the explorer keys holds only tuples, frozensets and
    Frames, and a clone shares each of them with its original, so a table
    miss copies no field and keys the fields as they are."""
    state_key = RwProcess.state_key
    keyed = []

    def recording(self):
        keyed.append(self)
        return state_key(self)

    monkeypatch.setattr(RwProcess, "state_key", recording)
    for counts in ((2, 2), (1, 1, 0)):
        explore_rw(len(counts), scripts_for(*counts), mem)
    assert any(p.frame for p in keyed) and any(len(p.log) > 1 for p in keyed)
    for p in keyed:
        assert all(map(frozen, vars(p).values())), vars(p)
        assert type(p.sent) is type(p.setseq) is tuple and type(p.delivered) is frozenset
        assert p.frame is None or type(p.frame) is Frame
        c = p.clone()
        assert all(getattr(c, k) is v for k, v in vars(p).items())


# distinct delivery-log outcomes of each split at n = 2, and of each n = 3
# split with one message at each of two processes
OUTCOMES = {(0, 1): 1, (0, 2): 2, (0, 3): 4, (1, 1): 7, (1, 2): 23, (2, 2): 121}
THREE_PROCESS_OUTCOMES = 15
OUTCOME_CASES = (sorted(PINNED) + sorted(s[::-1] for s in PINNED if s[0] != s[1])
                 + [(1, 1, 0), (1, 0, 1), (0, 1, 1)])


@pytest.mark.parametrize("counts", OUTCOME_CASES, ids=lambda c: "+".join(map(str, c)))
def test_memory_modes_give_equal_outcomes(counts):
    """An outcome is the tuple of every process's delivery log.  The sc
    memory reaches more states than the atomic one, but the same outcome
    set: SCD-broadcast has no real-time clause to tell them apart."""
    outcomes = [
        {tuple(map(tuple, log)) for log in logs(explore_rw(len(counts), scripts_for(*counts), mem)[0])}
        for mem in MODES
    ]
    assert outcomes[0] == outcomes[1]
    want = OUTCOMES[tuple(sorted(counts))] if len(counts) == 2 else THREE_PROCESS_OUTCOMES
    assert len(outcomes[0]) == want
