"""SCD-broadcast for asynchronous message passing with a minority of crashes.

Each process keeps a buffer of application messages it has heard of but not
yet delivered.  A buffer entry records, per process f, the sequence number
that f's own counter had when f forwarded the message (INFINITE while no
forward from f has been seen).  A message becomes deliverable once a strict
majority has forwarded it; the candidate set is then purged to a fixpoint,
dropping any candidate that is not known to precede some still-buffered
message at a majority of forwarders.  Whatever survives is delivered as one
message set.

The buffer is indexed by (sender, sequence number), and each entry counts
its known forwarders as its columns leave INFINITE, so absorbing a receipt
costs no scan over the buffer.  Delivery is attempted only while some entry
has a majority, and the purge runs only when an entry changed since the last
attempt is a candidate that beats every non-candidate at a majority.  This
gate rests on an invariant: after each attempt, every candidate left reaches
a non-candidate through a chain of "forwarded first by at most half the
processes" edges, and a receipt can free no set that lacks the entry it
changed (ScdProcess.try_deliver has the proof).  The purge checks every
candidate once against the non-candidates, then re-checks the survivors only
against the candidates just dropped, until none drops; a drop only grows the
non-candidate side, so this reaches the same fixpoint as restarting the scan
after every drop.

The processes only emit FORWARD messages.  A fifo_broadcast here is a request
to send the same FORWARD to every process (self included; the receipt guard
absorbs the self copy), so one scd-broadcast costs at most n*n point-to-point
sends overall.  Completion of an scd-broadcast is a predicate, re-checked
after every event: no buffer entry of the caller's own message remains.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import lt
from typing import NamedTuple

from .core import AppMessage, MsgId, UsageError

INFINITE = math.inf


class ForwardMsg(NamedTuple):
    """FORWARD(m, sd, sn_sd, f, sn_f): message m, first broadcast by sd with
    sequence number sn_sd, forwarded by f whose counter read sn_f."""

    m: AppMessage
    sd: int
    sn_sd: int
    f: int
    sn_f: int


@dataclass
class BufferEntry:
    m: AppMessage
    sd: int
    sn: int
    cl: list = field(default_factory=list)  # 1-based, entries int or INFINITE
    forwarders: int = 0                      # columns of cl that are not INFINITE


def purge_blocked(candidates: list, buffer: list, n: int) -> list:
    """Shrink the candidate set to a fixpoint: drop any candidate that at most
    half the processes are known to have forwarded before some non-candidate.

    Candidates are checked once against the buffer outside the candidate set,
    then only against the candidates dropped in the round before: a drop only
    grows the non-candidate side, so earlier comparisons stay valid and the
    fixpoint is the one of re-scanning everything after each drop.
    """
    half = n // 2
    inside = {id(e) for e in candidates}
    check = [e.cl for e in buffer if id(e) not in inside]
    keep = candidates
    while check and keep:
        kept, dropped = [], []
        for e in keep:
            cl = e.cl
            # column 0 is INFINITE everywhere and never counts
            if any(sum(map(lt, cl, other)) <= half for other in check):
                dropped.append(cl)
            else:
                kept.append(e)
        keep, check = kept, dropped
    return list(keep)


class ScdProcess:
    """Per-process protocol state machine.

    Handlers mutate local state and return the FORWARD broadcasts to expand
    (one entry per fifo_broadcast, to be sent to all n processes) plus any
    delivered message sets; the transport lives elsewhere.
    """

    def __init__(self, pid: int, n: int):
        self.pid = pid
        self.n = n
        self.buffer: list[BufferEntry] = []
        self._majority = n // 2 + 1
        self._index: dict = {}   # (sd, sn) -> the buffered entry
        self._candidates = 0     # buffered entries forwarded by a majority
        # entries given a forwarder since the last try_deliver; None once a
        # finite column was rewritten, which voids try_deliver's gate
        self._touched: list[BufferEntry] | None = []
        self.sn = 0
        # clock[j] = greatest sn of a j-initiated message delivered here;
        # -1 while nothing from j was delivered (first messages carry sn 0).
        self.clock = [-1] * (n + 1)
        self.pending_broadcast: MsgId | None = None

    def scbroadcast(self, m: AppMessage) -> list[ForwardMsg]:
        if self.pending_broadcast is not None:
            raise UsageError(f"p{self.pid}: scbroadcast while one is pending")
        self.pending_broadcast = m.id
        out: list[ForwardMsg] = []
        self.forward(m, self.pid, self.sn, self.pid, self.sn, out)
        return out

    def on_forward(self, fmsg: ForwardMsg):
        """Receipt of a FORWARD: absorb it, then attempt delivery."""
        out: list[ForwardMsg] = []
        self.forward(fmsg.m, fmsg.sd, fmsg.sn_sd, fmsg.f, fmsg.sn_f, out)
        delivered = self.try_deliver()
        return out, ([delivered] if delivered is not None else [])

    def forward(self, m, sd, sn_sd, f, sn_f, out) -> None:
        if sn_sd <= self.clock[sd]:
            return  # already delivered here; stale copy
        entry = self._index.get((sd, sn_sd))
        if entry is None:
            entry = BufferEntry(m, sd, sn_sd, [INFINITE] * (self.n + 1))
            self.buffer.append(entry)
            self._index[(sd, sn_sd)] = entry
            out.append(ForwardMsg(m, sd, sn_sd, self.pid, self.sn))
            self.sn += 1
        old = entry.cl[f]
        if old == INFINITE:
            entry.forwarders += 1
            self._candidates += entry.forwarders == self._majority
            if self._touched is not None:
                self._touched.append(entry)
        elif old != sn_f:
            self._touched = None
        entry.cl[f] = sn_f

    def try_deliver(self):
        """Deliver one message set if possible, None otherwise.

        Say o blocks e when at most half the processes forwarded e before o,
        and call a set of candidates deliverable when none of its members is
        blocked by an entry outside it; the purge returns the largest
        deliverable set.  It runs only if an entry touched since the last
        call is a candidate that no non-candidate blocks (`_unblocked`),
        because otherwise no set is deliverable:

        - After every call, each candidate left in the buffer reaches a
          non-candidate through a chain of blocks, so no set is deliverable.
          The purge drops exactly such candidates, and removing the set it
          delivers cuts none of their chains.
        - A receipt of FORWARD(x, f) changes only column f of entry x, from
          INFINITE to a number, or adds x with that one column.  So for any
          other entry e the count of processes that forwarded e before x
          cannot rise, and no block between two other entries changes: only
          entries that block x can stop blocking it, and only x can become
          a candidate.
        - Hence a set without x was deliverable before the receipt, which
          the first point rules out.  A deliverable set holds x, so x is a
          candidate that no non-candidate blocks.

        The same holds for all the entries touched between two calls.
        `scbroadcast` touches its own entry, which matters at n = 1: there
        that entry is a candidate at once, and its self copy changes
        nothing.  A finite column rewritten with another sequence number
        breaks the second point; the protocol never does that, but if it
        happens the full purge runs.
        """
        touched, self._touched = self._touched, []
        if not self._candidates:
            return None
        if touched is not None and not any(map(self._unblocked, touched)):
            return None
        candidates = [e for e in self.buffer if e.forwarders >= self._majority]
        todeliver = purge_blocked(candidates, self.buffer, self.n)
        if not todeliver:
            return None
        for e in todeliver:
            # Delivered entries always outrun the clock: an entry exists only
            # while sn > clock[sd], and no later entry of sd can overtake it.
            assert self.clock[e.sd] < e.sn
            self.clock[e.sd] = e.sn
            del self._index[(e.sd, e.sn)]
        self._candidates -= len(todeliver)
        gone = {id(e) for e in todeliver}
        self.buffer = [e for e in self.buffer if id(e) not in gone]
        return frozenset(e.m for e in todeliver)

    def _unblocked(self, e: BufferEntry) -> bool:
        """Whether e is a candidate that beats every non-candidate at a
        majority."""
        majority = self._majority
        if e.forwarders < majority:
            return False
        cl, half = e.cl, self.n // 2
        return all(sum(map(lt, cl, o.cl)) > half
                   for o in self.buffer if o.forwarders < majority)

    def broadcast_complete(self) -> MsgId | None:
        """Report (and clear) a completed pending scd-broadcast, if any."""
        if self.pending_broadcast is None:
            return None
        if any(e.sd == self.pid for e in self.buffer):
            return None
        done = self.pending_broadcast
        self.pending_broadcast = None
        return done
