"""Shared vocabulary: process ids, timestamps, message identity, and the
orders built on them.

Process ids are integers 1..n.  The writer slot of a timestamp may instead
hold NONE_PROC = 0, the distinguished identity of the initial register value.
Timestamps and message ids are tuples, so their orders are the tuple order:
a timestamp compares by date, then writer id (NONE_PROC sorting lowest), and
a message id by sender, then sequence number.
"""
from __future__ import annotations

import enum
from typing import NamedTuple

NONE_PROC = 0


class UsageError(Exception):
    """A caller violated an operation precondition."""


class Timestamp(NamedTuple):
    """Version tag for a written value: a date paired with the writer id."""

    date: int
    proc: int = NONE_PROC

    def __str__(self) -> str:
        return f"{self.date}:{'-' if self.proc == NONE_PROC else self.proc}"

    @staticmethod
    def parse(text: str) -> "Timestamp":
        date, proc = text.split(":")
        return Timestamp(int(date), NONE_PROC if proc == "-" else int(proc))


INITIAL_TS = Timestamp(0, NONE_PROC)


class Cmp(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


TimestampArray = tuple[Timestamp, ...]


def tsa_compare(a: TimestampArray, b: TimestampArray) -> Cmp:
    """Pointwise comparison of two equal-length timestamp arrays.

    less/greater require every entry to be <= (resp >=) with the arrays not
    identical; mixed strict entries in both directions are incomparable.
    """
    if len(a) != len(b):
        raise UsageError(f"array length mismatch: {len(a)} vs {len(b)}")
    some_less = some_greater = False
    for x, y in zip(a, b):
        if x == y:
            continue
        if x < y:
            some_less = True
        else:
            some_greater = True
    if some_less and some_greater:
        return Cmp.INCOMPARABLE
    if some_less:
        return Cmp.LESS
    if some_greater:
        return Cmp.GREATER
    return Cmp.EQUAL


class MsgId(NamedTuple):
    """Toolkit-assigned message identity: sender id plus a per-sender counter
    starting at 0."""

    sender: int
    seq: int

    def __str__(self) -> str:
        return f"{self.sender}.{self.seq}"

    @staticmethod
    def parse(text: str) -> "MsgId":
        sender, seq = text.split(".")
        return MsgId(int(sender), int(seq))


class AppMessage(NamedTuple):
    """An application message: identity plus an opaque payload.

    Payload equality is byte equality; the toolkit never interprets it except
    in the object layers that define their own codec.
    """

    id: MsgId
    payload: bytes


def format_id_set(ids) -> str:
    return ",".join(str(i) for i in sorted(ids))


def parse_id_set(text: str) -> frozenset:
    if not text:
        return frozenset()
    return frozenset(MsgId.parse(part) for part in text.split(","))
