"""Shared vocabulary: process ids, timestamps, message identity, and the
orders built on them.

Process ids are integers 1..n.  The writer slot of a timestamp may instead
hold NONE_PROC = 0, the distinguished identity of the initial register value.
Timestamps and message ids are tuples, so their orders are the tuple order:
a timestamp compares by date, then writer id (NONE_PROC sorting lowest), and
a message id by sender, then sequence number.
"""
from __future__ import annotations

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


def parse_id_set(text: str, parse=MsgId.parse) -> frozenset:
    """The ids of a format_id_set text, each read by parse."""
    if not text:
        return frozenset()
    return frozenset(map(parse, text.split(",")))
