"""SCD-broadcast built from single-writer snapshot objects.

Two shared arrays, each a snapshot object with one single-writer entry per
process:

  SENT[i]    set of messages p_i has scd-broadcast so far
  SETSEQ[i]  sequence of message sets p_i has scd-delivered so far

To broadcast m, p_i adds m to SENT[i] and runs one progress round.  A progress
round first catches up: it snapshots SETSEQ and, while some process's sequence
has a first set not yet fully delivered here (walking each sequence from the
head and skipping fully covered sets), delivers the missing part of that set
and appends it to its own sequence.  It then snapshots SENT and delivers
whatever remains undelivered as one final set.  A background tick runs the
same round so that messages broadcast by others keep arriving.  Any number of
processes may crash.

Each round runs as an explicit frame: a tiny program counter plus the one
pending shared-memory operation.  The host executes that operation against
whatever memory implementation it has and feeds the result back; frames of
one process never interleave with each other.

Every field of a process holds an immutable value (tuples, frozensets, a
Frame), and a step rebinds the fields it changes rather than mutating them.
So a clone copies references and shares every value with its original, and a
process's state key is its fields as they are, which the exhaustive
interleaving explorer relies on.
"""
from __future__ import annotations

from typing import NamedTuple, Optional

from .core import AppMessage, UsageError


class Frame(NamedTuple):
    """One activation of broadcast-and-progress or of a background tick."""

    kind: str                 # broadcast | tick
    msg: Optional[AppMessage]
    stage: str                # sent_write | catch_snap | catch_write | sent_snap | deliver_write
    todeliver: Optional[frozenset] = None


class RwProcess:
    """Per-process state of the shared-memory construction, with the host's
    position in this process's script (`next_op`) and its liveness."""

    def __init__(self, pid: int, n: int):
        self.pid = pid
        self.sent = (frozenset(),) * (n + 1)   # local copy of SENT, 1-based
        self.setseq = ((),) * (n + 1)          # local copy of SETSEQ, 1-based
        self.delivered = frozenset()           # members(setseq[pid]), memoized
        self.frame: Optional[Frame] = None
        self.next_op = 0
        self.alive = True

    @property
    def log(self) -> tuple:
        """The sets delivered here, in order: this process's own sequence,
        which a SETSEQ snapshot hands back unchanged (see catch_snap)."""
        return self.setseq[self.pid]

    # -- starting work ----------------------------------------------------

    def start_broadcast(self, m: AppMessage) -> None:
        if self.frame is not None:
            raise UsageError(f"p{self.pid}: round already active")
        i, sent = self.pid, self.sent
        self.sent = sent[:i] + (sent[i] | {m},) + sent[i + 1:]
        self.frame = Frame("broadcast", m, "sent_write")

    def start_tick(self) -> None:
        if self.frame is not None:
            raise UsageError(f"p{self.pid}: round already active")
        self.frame = Frame("tick", None, "catch_snap")

    # -- frame stepping ---------------------------------------------------

    def pending_memop(self):
        """The shared-memory operation this process wants to run next."""
        f = self.frame
        if f is None:
            return None
        if f.stage == "sent_write":
            return ("write", "SENT", self.pid, self.sent[self.pid])
        if f.stage == "catch_snap":
            return ("snapshot", "SETSEQ")
        if f.stage in ("catch_write", "deliver_write"):
            return ("write", "SETSEQ", self.pid, self.setseq[self.pid] + (f.todeliver,))
        if f.stage == "sent_snap":
            return ("snapshot", "SENT")
        raise AssertionError(f.stage)

    def complete_memop(self, result) -> Optional[frozenset]:
        """Feed back the result of the pending operation; a snapshot's
        result tuple is adopted as is.

        Returns a message set if this step scd-delivered one.  Deliveries
        coincide with the SETSEQ write that publishes them, so a crash can
        never separate the local delivery from its publication.
        """
        f = self.frame
        if f is None:
            raise UsageError(f"p{self.pid}: no active round")
        if f.stage == "sent_write":
            self.frame = Frame(f.kind, f.msg, "catch_snap", f.todeliver)
            return None
        if f.stage == "catch_snap":
            # Own writes are never reordered past own snapshots, so the
            # snapshot can not hand back a stale copy of our own sequence.
            assert result[self.pid] == self.setseq[self.pid]
            self.setseq = result
            self._next_catch_up(f)
            return None
        if f.stage == "catch_write":
            delivered = self._commit_delivery(f.todeliver)
            self._next_catch_up(f)
            return delivered
        if f.stage == "sent_snap":
            self.sent = result
            rest = frozenset().union(*result[1:]) - self.delivered
            if rest:
                self.frame = Frame(f.kind, f.msg, "deliver_write", rest)
            else:
                self._finish(f)
            return None
        if f.stage == "deliver_write":
            delivered = self._commit_delivery(f.todeliver)
            self._finish(f)
            return delivered
        raise AssertionError(f.stage)

    # -- internals --------------------------------------------------------

    def _next_catch_up(self, f: Frame) -> None:
        """Find the next not-fully-delivered first set in the snapshot taken
        at the top of catch-up; lowest process id first, rescanning after
        every delivery."""
        delivered = self.delivered
        for seq in self.setseq[1:]:
            for s in seq:
                if s <= delivered:
                    continue
                self.frame = Frame(f.kind, f.msg, "catch_write", s - delivered)
                return
        self.frame = Frame(f.kind, f.msg, "sent_snap", None)

    def _commit_delivery(self, todeliver: frozenset) -> frozenset:
        i, setseq = self.pid, self.setseq
        self.setseq = setseq[:i] + (setseq[i] + (todeliver,),) + setseq[i + 1:]
        self.delivered |= todeliver
        return todeliver

    def _finish(self, f: Frame) -> None:
        if f.kind == "broadcast":
            assert f.msg in self.delivered, "own message must be delivered by round end"
        self.frame = None

    # -- cloning for the explorer ----------------------------------------

    def clone(self) -> "RwProcess":
        """A copy sharing every field's value: a step rebinds fields, never
        mutates their values."""
        c = RwProcess.__new__(RwProcess)
        c.__dict__.update(self.__dict__)
        return c

    def state_key(self):
        """Everything a step of this process reads, as the fields are.
        `delivered` is left out: it is the union of this process's own
        sequence, setseq[pid], which the key holds (pid is fixed per
        process)."""
        return (self.sent, self.setseq, self.frame, self.next_op, self.alive)
