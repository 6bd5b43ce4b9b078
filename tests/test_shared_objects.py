"""Snapshot object and register layers over the broadcast."""
from __future__ import annotations

import pytest

from scdkit.core import AppMessage, INITIAL_TS, MsgId, Timestamp, UsageError
from scdkit.shared_objects import (
    INITIAL_VALUE,
    OpResult,
    SnapshotObject,
    SwmrRegister,
    SyncPayload,
    WritePayload,
    decode_payload,
    encode_payload,
)


def wire(sender, seq, payload) -> AppMessage:
    return AppMessage(MsgId(sender, seq), encode_payload(payload))


def test_payload_roundtrip():
    w = WritePayload(2, b"\x00\xff", Timestamp(4, 2))
    assert decode_payload(encode_payload(w)) == w
    s = SyncPayload(3)
    assert decode_payload(encode_payload(s)) == s
    assert decode_payload(encode_payload(WritePayload(1, b"", Timestamp(1, 1)))).value == b""


def test_first_write_uses_date_one():
    obj = SnapshotObject(1, 2)
    step = obj.begin_write(1, b"v")
    assert decode_payload(step.broadcast) == SyncPayload(1)
    # own SYNC comes back, write phase starts with tag (0 + 1, writer)
    step = obj.on_set_delivered([wire(1, 0, SyncPayload(1))])
    cast = decode_payload(step.broadcast)
    assert cast == WritePayload(1, b"v", Timestamp(1, 1))
    step = obj.on_set_delivered([wire(1, 1, cast)])
    assert step.result == OpResult("write", ts=Timestamp(1, 1))
    assert obj.reg[1] == b"v" and obj.tsa[1] == Timestamp(1, 1)


def test_write_tag_advances_past_highest_seen_date():
    # a register already at date 4 written elsewhere gets tag (5, writer)
    obj = SnapshotObject(1, 1)
    obj.on_set_delivered([wire(2, 0, WritePayload(1, b"x", Timestamp(4, 2)))])
    assert obj.tsa[1] == Timestamp(4, 2)
    step = obj.begin_write(1, b"y")
    step = obj.on_set_delivered([wire(1, 0, SyncPayload(1))])
    assert decode_payload(step.broadcast).ts == Timestamp(5, 1)


def test_delivery_installs_greatest_tag_of_set():
    obj = SnapshotObject(3, 1)
    obj.on_set_delivered(
        [
            wire(1, 0, WritePayload(1, b"a", Timestamp(1, 1))),
            wire(2, 0, WritePayload(1, b"b", Timestamp(1, 2))),
        ]
    )
    # same date: writer id 2 wins the tie
    assert obj.reg[1] == b"b" and obj.tsa[1] == Timestamp(1, 2)


def test_delivery_never_regresses_register():
    obj = SnapshotObject(3, 1)
    obj.on_set_delivered([wire(2, 0, WritePayload(1, b"new", Timestamp(7, 2)))])
    obj.on_set_delivered([wire(1, 0, WritePayload(1, b"old", Timestamp(3, 1)))])
    assert obj.reg[1] == b"new" and obj.tsa[1] == Timestamp(7, 2)


def test_snapshot_waits_for_own_sync():
    obj = SnapshotObject(2, 2)
    step = obj.begin_snapshot()
    assert decode_payload(step.broadcast) == SyncPayload(2)
    # foreign deliveries do not complete the snapshot
    step = obj.on_set_delivered([wire(1, 0, WritePayload(2, b"z", Timestamp(1, 1)))])
    assert step.result is None and step.broadcast is None
    step = obj.on_set_delivered([wire(2, 0, SyncPayload(2))])
    assert step.result.kind == "snapshot"
    assert step.result.values == (INITIAL_VALUE, b"z")
    assert step.result.tsa == (INITIAL_TS, Timestamp(1, 1))


def test_writes_of_a_set_install_before_own_origin_test():
    # the same delivered set both completes the pending round and carries a
    # write; the returned snapshot must already include that write
    obj = SnapshotObject(2, 1)
    obj.begin_snapshot()
    step = obj.on_set_delivered(
        [
            wire(2, 0, SyncPayload(2)),
            wire(1, 0, WritePayload(1, b"w", Timestamp(1, 1))),
        ]
    )
    assert step.result.values == (b"w",)


def test_operations_are_one_at_a_time():
    obj = SnapshotObject(1, 1)
    obj.begin_snapshot()
    with pytest.raises(UsageError):
        obj.begin_write(1, b"x")
    with pytest.raises(UsageError):
        SnapshotObject(1, 1).begin_write(2, b"x")  # register out of range


def test_unsynchronized_snapshot_is_immediate_and_free():
    obj = SnapshotObject(1, 2, synchronized=False)
    step = obj.begin_snapshot()
    assert step.broadcast is None
    assert step.result.values == (INITIAL_VALUE, INITIAL_VALUE)


def test_unsynchronized_write_skips_sync_round():
    obj = SnapshotObject(1, 1, synchronized=False)
    step = obj.begin_write(1, b"q")
    # straight to the value broadcast, one message instead of two
    assert decode_payload(step.broadcast) == WritePayload(1, b"q", Timestamp(1, 1))
    done = obj.on_set_delivered([wire(1, 0, decode_payload(step.broadcast))])
    assert done.result.kind == "write"


def test_mwmr_register_read_projects_single_slot():
    # a register is the one-slot snapshot object; its read returns the slot
    reg = SnapshotObject(2, 1)
    reg.on_set_delivered([wire(1, 0, WritePayload(1, b"val", Timestamp(3, 1)))])
    reg.begin_read()
    step = reg.on_set_delivered([wire(2, 0, SyncPayload(2))])
    assert step.result.kind == "read"
    assert step.result.values == (b"val",)
    assert step.result.ts == Timestamp(3, 1)
    assert step.result.tsa == (Timestamp(3, 1),)


def test_read_needs_one_slot_object():
    with pytest.raises(UsageError):
        SnapshotObject(1, 2).begin_read()
    with pytest.raises(UsageError):
        SnapshotObject(1, 2, synchronized=False).begin_read()


def synced_read(reg):
    """The result of a read of reg whose SYNC round is delivered alone."""
    sync = decode_payload(reg.begin_read().broadcast)
    return reg.on_set_delivered([wire(reg.pid, 0, sync)]).result


class TestSwmrRegister:
    def test_only_writer_writes(self):
        reg = SwmrRegister(2, writer=1)
        with pytest.raises(UsageError):
            reg.begin_write(1, b"x")
        step = SwmrRegister(1, writer=1).begin_write(1, b"x")
        assert decode_payload(step.broadcast) == SyncPayload(1)

    def test_write_dates_count_up(self):
        reg = SwmrRegister(1, writer=1)
        for expect in (1, 2):
            sync = decode_payload(reg.begin_write(1, f"v{expect}".encode()).broadcast)
            # the SYNC round completes, then the WRITE goes out
            payload = decode_payload(reg.on_set_delivered([wire(1, 2 * expect, sync)]).broadcast)
            assert payload.ts == Timestamp(expect, 1)
            done = reg.on_set_delivered([wire(1, 2 * expect + 1, payload)])
            assert done.result == OpResult("write", ts=Timestamp(expect, 1))

    def test_delivery_takes_greatest_date(self):
        reg = SwmrRegister(3, writer=1)
        reg.on_set_delivered(
            [
                wire(1, 0, WritePayload(1, b"a", Timestamp(1, 1))),
                wire(1, 1, WritePayload(1, b"b", Timestamp(2, 1))),
            ]
        )
        result = synced_read(reg)
        assert result.values == (b"b",)
        assert result.ts == Timestamp(2, 1)

    def test_read_of_initial_value_has_anonymous_tag(self):
        result = synced_read(SwmrRegister(2, writer=1))
        assert result.values == (INITIAL_VALUE,)
        assert result.ts == INITIAL_TS

    def test_synchronized_read_waits_for_own_sync(self):
        reg = SwmrRegister(2, writer=1)
        step = reg.begin_read()
        assert decode_payload(step.broadcast) == SyncPayload(2)
        step = reg.on_set_delivered(
            [
                wire(2, 0, SyncPayload(2)),
                wire(1, 0, WritePayload(1, b"w", Timestamp(1, 1))),
            ]
        )
        assert step.result.values == (b"w",)
        assert step.result.ts == Timestamp(1, 1)
