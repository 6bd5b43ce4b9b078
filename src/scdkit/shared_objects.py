"""Snapshot objects and read/write registers built on SCD-broadcast.

The multi-writer multi-reader snapshot object keeps, per process, an array of
register values with one timestamp each.  A snapshot performs one SYNC round
(broadcast an empty marker, wait until a set containing it is delivered) and
returns the local array.  A write performs a SYNC round, then broadcasts the
value tagged with (local date + 1, writer id) and waits for that WRITE to come
back.  Delivery of a message set installs, per register, the greatest-tagged
WRITE of the set if it beats the local tag; all WRITEs of a set are processed
before the own-origin test that terminates a pending round.

A register is the one-slot snapshot: begin_read runs the same SYNC round and
returns the slot as a read.  SWMR only restricts the writer: SwmrRegister
rejects writes by any process but the designated one.  synchronized=False
drops the SYNC rounds, trading linearizability for sequential consistency:
reads and snapshots return the local state immediately and cost no messages,
writes cost one broadcast instead of two.

Objects never talk to a network directly.  Operations and delivery handlers
return an ObjStep holding at most one payload to scd-broadcast next and, when
a pending operation just completed, its result.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .core import INITIAL_TS, Timestamp, UsageError


class WritePayload(NamedTuple):
    r: int
    value: bytes
    ts: Timestamp


class SyncPayload(NamedTuple):
    origin: int


def encode_payload(p) -> bytes:
    if isinstance(p, WritePayload):
        return f"W|{p.r}|{p.value.hex()}|{p.ts}".encode("ascii")
    if isinstance(p, SyncPayload):
        return f"S|{p.origin}".encode("ascii")
    raise UsageError(f"not an object payload: {p!r}")


def decode_payload(raw: bytes):
    text = raw.decode("ascii")
    tag, rest = text.split("|", 1)
    if tag == "W":
        r, value, ts = rest.split("|")
        return WritePayload(int(r), bytes.fromhex(value), Timestamp.parse(ts))
    if tag == "S":
        return SyncPayload(int(rest))
    raise UsageError(f"unknown payload tag: {text!r}")


@dataclass
class OpResult:
    kind: str                       # snapshot | read | write
    values: Optional[tuple] = None  # snapshot: full array; read: 1-tuple
    ts: Optional[Timestamp] = None  # write: tag used; read: tag of the value
    tsa: Optional[tuple] = None     # snapshot/read: tag array at return


@dataclass
class ObjStep:
    broadcast: Optional[bytes] = None
    result: Optional[OpResult] = None


INITIAL_VALUE = b""


class SnapshotObject:
    """Multi-writer multi-reader snapshot over an SCD-broadcast layer."""

    def __init__(self, pid: int, nregs: int, synchronized: bool = True):
        if nregs < 1:
            raise UsageError("need at least one register")
        self.pid = pid
        self.nregs = nregs
        self.synchronized = synchronized
        self.reg = [INITIAL_VALUE] * (nregs + 1)      # 1-based
        self.tsa = [INITIAL_TS] * (nregs + 1)
        self._pending = None

    # -- operations -------------------------------------------------------

    def begin_snapshot(self) -> ObjStep:
        return self._begin_scan("snapshot")

    def begin_read(self) -> ObjStep:
        """Read of a one-slot object: a snapshot returned as a read."""
        if self.nregs != 1:
            raise UsageError(f"read needs a one-slot object, not {self.nregs} slots")
        return self._begin_scan("read")

    def begin_write(self, r: int, value: bytes) -> ObjStep:
        self._require_idle()
        if not 1 <= r <= self.nregs:
            raise UsageError(f"register {r} out of range 1..{self.nregs}")
        if not self.synchronized:
            return self._cast_write(r, value)
        self._pending = ("write_sync", r, value)
        return ObjStep(broadcast=encode_payload(SyncPayload(self.pid)))

    # -- delivery ---------------------------------------------------------

    def on_set_delivered(self, ms) -> ObjStep:
        self._install_writes(ms)
        if self._pending is None or not any(m.id.sender == self.pid for m in ms):
            return ObjStep()
        pending, self._pending = self._pending, None
        if pending[0] in ("snapshot", "read"):
            return ObjStep(result=self._scan_result(pending[0]))
        if pending[0] == "write_sync":
            _, r, value = pending
            return self._cast_write(r, value)
        _, r, value, ts = pending  # write_cast
        return ObjStep(result=OpResult("write", ts=ts))

    # -- internals --------------------------------------------------------

    def _install_writes(self, ms) -> None:
        per_reg: dict[int, WritePayload] = {}
        for m in ms:
            p = decode_payload(m.payload)
            if isinstance(p, WritePayload):
                best = per_reg.get(p.r)
                if best is None or best.ts < p.ts:
                    per_reg[p.r] = p
        for r, w in per_reg.items():
            if self.tsa[r] < w.ts:
                self.reg[r] = w.value
                self.tsa[r] = w.ts

    def _cast_write(self, r, value) -> ObjStep:
        ts = Timestamp(self.tsa[r].date + 1, self.pid)
        self._pending = ("write_cast", r, value, ts)
        return ObjStep(broadcast=encode_payload(WritePayload(r, value, ts)))

    def _begin_scan(self, kind) -> ObjStep:
        self._require_idle()
        if not self.synchronized:
            return ObjStep(result=self._scan_result(kind))
        self._pending = (kind,)
        return ObjStep(broadcast=encode_payload(SyncPayload(self.pid)))

    def _scan_result(self, kind) -> OpResult:
        tsa = tuple(self.tsa[1:])
        ts = tsa[0] if kind == "read" else None
        return OpResult(kind, values=tuple(self.reg[1:]), ts=ts, tsa=tsa)

    def _require_idle(self):
        if self._pending is not None:
            raise UsageError(f"p{self.pid}: operation already in progress")


class SwmrRegister(SnapshotObject):
    """Single-writer register: the one-slot snapshot object, written only by
    `writer`."""

    def __init__(self, pid: int, writer: int, synchronized: bool = True):
        super().__init__(pid, 1, synchronized)
        self.writer = writer

    def begin_write(self, r: int, value: bytes) -> ObjStep:
        if self.pid != self.writer:
            raise UsageError(f"p{self.pid} is not the writer (p{self.writer})")
        return super().begin_write(r, value)

    # perfbench/tracing.py wraps these names in this class's own __dict__
    begin_read = SnapshotObject.begin_read
    on_set_delivered = SnapshotObject.on_set_delivered
