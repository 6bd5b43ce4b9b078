"""SCD-broadcast for asynchronous message passing with a minority of crashes.

Each process keeps a buffer of application messages it has heard of but not
yet delivered.  A buffer entry records, per process f, the sequence number
that f's own counter had when f forwarded the message (INFINITE, an int
above every sequence number, while no forward from f has been seen).  A
message becomes deliverable once a strict majority has forwarded it; the
candidate set is then purged to a fixpoint, dropping any candidate that is
not known to precede some still-buffered message at a majority of
forwarders.  Whatever survives is delivered as one message set.

The buffer is one map (sender, sequence number) -> entry, in arrival order,
and each entry counts its known forwarders as its columns leave INFINITE.
Each entry also stores, for every other buffered entry o, the pair count
`ahead[o]`: how many processes forwarded it before o.  How counts move: a
receipt of FORWARD(x, f) takes column f of x off INFINITE, so only x.ahead[o]
(which can only rise) and o.ahead[x] (which can only fall) change, each by
at most one, and `forward` updates them in one pass over the buffer.  A new
entry starts with every column INFINITE, so x.ahead[o] = 0 and o.ahead[x] =
o.forwarders.  A process forwards a message only on first receipt, so a
column is written once: only the self copy of the process's own
scbroadcast finds its column set, with the same number, and any other
rewrite fails an assertion.  Delivered entries leave the map and the
survivors' pair counts.  Entries are hashed by identity (`eq=False`), so
they key each other's maps without building a (sd, sn) tuple per lookup.

The blocking relation is "o blocks e when at most `threshold(n)` (half) of
the processes forwarded e before o" (`e.ahead[o] <= half`); each process
reads the threshold once.  Each entry also stores `blockers`, how many
non-candidates (entries short of a majority) block it, kept by the same
moves as the pair counts:

- A new entry x blocks every other entry o with at most half forwarders
  (o.ahead[x] = o.forwarders), and every non-candidate blocks x
  (x.ahead[o] = 0), so x starts at the number of non-candidates, or at 0
  under a negative threshold, which blocks nothing.  Under a strict
  majority a candidate has more than half forwarders, so a new entry never
  blocks one; the counts compare against the threshold, not the majority,
  so they stay exact under any threshold and any quorum of at least one.
- A receipt of FORWARD(x, f) changes a count only where x.ahead[o] rises
  past half (o, a non-candidate, stops blocking x) or o.ahead[x] falls to
  half (x, a non-candidate, starts blocking o).
- When x reaches a majority it leaves the counts of every entry it blocks.
- A delivery removes candidates only, which no count holds.

The purge's first round keeps the candidates whose count is 0, and
`_unblocked` follows blocks through the candidates it drops, to a
fixpoint.  The delivery gate purges only if a candidate touched since the
last attempt has no blocker; ScdProcess.try_deliver proves that this skips
no delivery, whatever the threshold.

The touched list holds only candidates: `forward` puts an entry on it once
the entry has a majority, and a receipt that leaves it empty cannot deliver,
so `on_forward` calls `try_deliver` only when it is not.

The processes only emit FORWARD messages.  A fifo_broadcast here is a request
to send the same FORWARD to every process (self included; the receipt guard
absorbs the self copy), so one scd-broadcast costs at most n*n point-to-point
sends overall.  Completion of an scd-broadcast is a predicate: no buffer
entry of the caller's own message remains.  The buffer's own entries are
counted as they are added and delivered, so the check reads one number, and
it needs checking only after a delivered set, the one event that lowers it.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import NamedTuple

from .core import AppMessage, MsgId, UsageError

INFINITE = sys.maxsize  # an int, so the count pass compares ints only


class ForwardMsg(NamedTuple):
    """FORWARD(m, sd, sn_sd, f, sn_f): message m, first broadcast by sd with
    sequence number sn_sd, forwarded by f whose counter read sn_f."""

    m: AppMessage
    sd: int
    sn_sd: int
    f: int
    sn_f: int


@dataclass(eq=False, slots=True)  # hashed by identity: entries key each other's `ahead`
class BufferEntry:
    m: AppMessage
    sd: int
    sn: int
    cl: list = field(default_factory=list)  # 1-based, entries int or INFINITE
    forwarders: int = 0                      # columns of cl that are not INFINITE
    # ahead[o]: processes that forwarded this entry before o, for every other
    # buffered entry o (column f counts when cl[f] < o.cl[f])
    ahead: dict = field(default_factory=dict, repr=False)
    # non-candidate entries o that block this one: ahead[o] <= threshold(n)
    blockers: int = 0


def threshold(n: int) -> int:
    """The blocking threshold: o blocks e when at most this many of the n
    processes forwarded e before o (`e.ahead[o] <= threshold(n)`), that is,
    when e is not known to precede o at a strict majority."""
    return n // 2


def _unblocked(keep: list, check: list, half: int) -> list:
    """The entries of `keep` that no entry in `check` blocks, directly or
    through entries of `keep` it drops; o blocks e when at most `half`
    processes forwarded e before o (`e.ahead[o] <= half`).  Each entry is
    checked once against `check`, then only against the entries dropped in
    the round before: a drop only grows the blocking side, so this is the
    fixpoint of re-scanning everything after each drop.
    """
    while check and keep:
        kept, dropped = [], []
        for e in keep:
            if min(map(e.ahead.__getitem__, check)) <= half:
                dropped.append(e)
            else:
                kept.append(e)
        keep, check = kept, dropped
    return keep


def purge_blocked(candidates: list, half: int) -> list:
    """Shrink the candidate set, in buffer order, to a fixpoint: drop any
    candidate that at most `half` processes are known to have forwarded
    before some non-candidate, directly or through dropped candidates.  The
    first round reads the stored `blockers` counts; `_unblocked` follows
    the drops."""
    keep, check = [], []
    for e in candidates:
        (check if e.blockers else keep).append(e)
    return _unblocked(keep, check, half)


class ScdProcess:
    """Per-process protocol state machine.

    Handlers mutate local state and return the FORWARD to expand (sent to
    all n processes by one fifo_broadcast), or None, and on a receipt also
    the message set it delivered, or None; the transport lives elsewhere.
    """

    def __init__(self, pid: int, n: int):
        self.pid = pid
        self.n = n
        self.buffer: dict = {}   # (sd, sn) -> its entry, in arrival order
        self._majority = n // 2 + 1
        self._half = threshold(n)
        self._outside = 0        # buffered non-candidates
        self._own = 0            # buffered entries of this process's messages
        # the candidates given a forwarder since the last try_deliver
        self._touched: list[BufferEntry] = []
        self.sn = 0
        # clock[j] = greatest sn of a j-initiated message delivered here;
        # -1 while nothing from j was delivered (first messages carry sn 0).
        self.clock = [-1] * (n + 1)
        self.pending_broadcast: MsgId | None = None

    def scbroadcast(self, m: AppMessage) -> ForwardMsg:
        if self.pending_broadcast is not None:
            raise UsageError(f"p{self.pid}: scbroadcast while one is pending")
        self.pending_broadcast = m.id
        return self.forward(m, self.pid, self.sn, self.pid, self.sn)

    def on_forward(self, fmsg: ForwardMsg):
        """Receipt of a FORWARD: absorb it, then attempt delivery if some
        entry is a touched candidate.  Returns (this process's FORWARD or
        None, the delivered message set or None).  A stale copy changes
        nothing."""
        m, sd, sn_sd, f, sn_f = fmsg
        out = None if sn_sd <= self.clock[sd] else self.forward(m, sd, sn_sd, f, sn_f)
        if self._touched:
            return out, self.try_deliver()
        return out, None

    def forward(self, m, sd, sn_sd, f, sn_f) -> ForwardMsg | None:
        """Absorb FORWARD(m, sd, sn_sd, f, sn_f) of a message not delivered
        here (sn_sd > clock[sd]: `on_forward` drops stale copies, and
        `scbroadcast`'s sn is above every own one delivered); return this
        process's own FORWARD of m on its first receipt, else None."""
        out = None
        buffer = self.buffer
        half = self._half
        entry = buffer.get((sd, sn_sd))
        if entry is None:
            # all columns INFINITE: forwarded before nothing, so every
            # non-candidate blocks it, and every other entry is ahead of it
            # at each of that entry's forwarders, so it blocks the entries
            # with at most `half` forwarders
            entry = BufferEntry(m, sd, sn_sd, [INFINITE] * (self.n + 1), 0,
                                dict.fromkeys(buffer.values(), 0),
                                self._outside if half >= 0 else 0)
            for o in buffer.values():
                k = o.forwarders
                o.ahead[entry] = k
                if k <= half:
                    o.blockers += 1
            buffer[sd, sn_sd] = entry
            self._outside += 1
            self._own += sd == self.pid
            out = ForwardMsg(m, sd, sn_sd, self.pid, self.sn)
            self.sn += 1
        cl = entry.cl
        if cl[f] != INFINITE:
            assert cl[f] == sn_f  # the self copy of this process's scbroadcast
            return out
        cl[f] = sn_f
        majority = self._majority
        forwarders = entry.forwarders = entry.forwarders + 1
        ahead = entry.ahead
        if forwarders >= majority:
            self._touched.append(entry)
            if forwarders == majority:  # a candidate now: it leaves every count
                self._outside -= 1
                for o in ahead:
                    if o.ahead[entry] <= half:
                        o.blockers -= 1
        outside = forwarders < majority
        over = half + 1
        # only the pairs (entry, o) and (o, entry) change, by at most one,
        # and a blocker count only where its pair crosses the threshold
        for o in ahead:
            c = o.cl[f]
            if sn_f < c:
                k = ahead[o] + 1
                ahead[o] = k
                if k == over and o.forwarders < majority:
                    entry.blockers -= 1
                if c == INFINITE:
                    continue
            elif c != sn_f:
                continue
            # o was ahead of entry at f and no longer is
            oa = o.ahead
            k = oa[entry] - 1
            oa[entry] = k
            if k == half and outside:
                o.blockers += 1
        return out

    def try_deliver(self):
        """Deliver one message set if possible, None otherwise.

        Call a set of candidates deliverable when no entry outside it blocks
        a member (`_unblocked`); the purge returns the largest deliverable
        set.  Its first round keeps the candidates that no non-candidate
        blocks (`blockers == 0`), and `_unblocked` follows blocks through
        the candidates it drops.  The gate purges only if some candidate
        touched since the last call has no blocker, because otherwise no set
        is deliverable:

        - After every call, each candidate left in the buffer reaches a
          non-candidate through a chain of blocks, so no set is deliverable.
          The purge drops exactly such candidates, and removing the set it
          delivers cuts none of their chains.
        - A receipt of FORWARD(x, f) changes only column f of entry x, from
          INFINITE to a number, or adds x with that one column.  So of the
          stored counts only x.ahead[o] can rise and only o.ahead[x] can
          fall, and no block between two other entries changes: only
          entries that block x can stop blocking it, and only x can become
          a candidate.
        - Hence a set without x was deliverable before the receipt, which
          the first point rules out.  A deliverable set D holds x, and no
          non-candidate blocks a member of D, so x.blockers is 0 and the
          gate lets the purge run.

        The same holds for all the entries touched between two calls, and,
        since only the direction in which counts move matters, for any
        threshold.  `scbroadcast` touches its own entry, which matters at
        n = 1: there that entry is a candidate at once, and its self copy
        changes nothing.  `forward` rejects a receipt that would rewrite a
        finite column, which would break the second point.

        `on_forward` calls this only when a touched candidate is left.  A
        receipt that leaves its entry x short of a majority adds no
        candidate, and by the second point it only makes x block more, so
        every chain of the first point survives it and no set is
        deliverable.
        """
        touched = self._touched
        self._touched = []
        for e in touched:
            if not e.blockers:
                break
        else:
            return None
        majority = self._majority
        candidates = [e for e in self.buffer.values() if e.forwarders >= majority]
        todeliver = purge_blocked(candidates, self._half)
        if not todeliver:
            return None
        return self._deliver(todeliver)

    def _deliver(self, todeliver: list) -> frozenset:
        """Take the entries of a deliverable set out of the buffer and
        return their messages."""
        for e in todeliver:
            # Delivered entries always outrun the clock: an entry exists only
            # while sn > clock[sd], and no later entry of sd can overtake it
            # in todeliver, which keeps the buffer's arrival order.
            assert self.clock[e.sd] < e.sn
            self.clock[e.sd] = e.sn
            del self.buffer[e.sd, e.sn]
            self._own -= e.sd == self.pid
            e.ahead = None  # it keys the entries delivered with it: free it now
        for e in self.buffer.values():
            ahead = e.ahead
            for d in todeliver:
                del ahead[d]
        return frozenset(e.m for e in todeliver)

    def release(self) -> None:
        """Drop the pair counts of the entries still buffered, once this
        process takes no more steps: they key each other, so a crashed or
        stalled process then frees by reference counting too."""
        for e in self.buffer.values():
            e.ahead = None

    def broadcast_complete(self) -> MsgId | None:
        """Report (and clear) a completed pending scd-broadcast, if any."""
        if self.pending_broadcast is None or self._own:
            return None
        done = self.pending_broadcast
        self.pending_broadcast = None
        return done
