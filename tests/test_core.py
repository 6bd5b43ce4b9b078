"""Timestamps, timestamp arrays and message identities."""
from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from scdkit.core import (
    AppMessage,
    Cmp,
    INITIAL_TS,
    MsgId,
    NONE_PROC,
    Timestamp,
    UsageError,
    format_id_set,
    parse_id_set,
    tsa_compare,
)


def test_initial_timestamp_is_minimal():
    assert INITIAL_TS == Timestamp(0, NONE_PROC)
    assert INITIAL_TS < Timestamp(1, 1)
    assert not Timestamp(1, 1) < INITIAL_TS


def test_timestamp_order_is_date_then_proc():
    # dates dominate; the writing process breaks ties
    assert Timestamp(1, 9) < Timestamp(2, 1)
    assert Timestamp(3, 1) < Timestamp(3, 2)
    assert not Timestamp(3, 2) < Timestamp(3, 2)


def test_timestamp_render_parse():
    assert str(Timestamp(4, 2)) == "4:2"
    assert Timestamp.parse("4:2") == Timestamp(4, 2)
    assert str(INITIAL_TS) == "0:-"
    assert Timestamp.parse("0:-") == INITIAL_TS


ts_strategy = st.builds(
    Timestamp,
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=1, max_value=9),
)


@given(ts_strategy, ts_strategy)
def test_timestamp_order_total(a, b):
    """Exactly one of <, ==, > holds for any two timestamps."""
    assert ((a < b) + (b < a) + (a == b)) == 1


@given(st.lists(ts_strategy, min_size=2, max_size=6), st.lists(ts_strategy, min_size=2, max_size=6))
def test_tsa_compare_duality(xs, ys):
    n = min(len(xs), len(ys))
    a, b = tuple(xs[:n]), tuple(ys[:n])
    fwd, rev = tsa_compare(a, b), tsa_compare(b, a)
    dual = {
        Cmp.LESS: Cmp.GREATER,
        Cmp.GREATER: Cmp.LESS,
        Cmp.EQUAL: Cmp.EQUAL,
        Cmp.INCOMPARABLE: Cmp.INCOMPARABLE,
    }
    assert rev == dual[fwd]
    if a == b:
        assert fwd is Cmp.EQUAL


def test_tsa_compare_pointwise():
    lo = (Timestamp(1, 1), Timestamp(2, 2))
    hi = (Timestamp(1, 1), Timestamp(3, 1))
    assert tsa_compare(lo, hi) is Cmp.LESS
    assert tsa_compare(hi, lo) is Cmp.GREATER
    assert tsa_compare(lo, lo) is Cmp.EQUAL
    crossed = (Timestamp(9, 1), Timestamp(1, 1))
    assert tsa_compare(lo, crossed) is Cmp.INCOMPARABLE


def test_tsa_compare_length_mismatch():
    with pytest.raises(UsageError):
        tsa_compare((INITIAL_TS,), (INITIAL_TS, INITIAL_TS))


def test_msgid_render_parse():
    mid = MsgId(3, 17)
    assert str(mid) == "3.17"
    assert MsgId.parse("3.17") == mid


def test_id_set_roundtrip():
    ids = frozenset({MsgId(2, 0), MsgId(1, 3), MsgId(2, 1)})
    text = format_id_set(ids)
    assert text == "1.3,2.0,2.1"  # sorted, comma joined
    assert parse_id_set(text) == ids


def test_app_message_is_hashable_identity():
    a = AppMessage(MsgId(1, 0), b"x")
    b = AppMessage(MsgId(1, 0), b"x")
    assert a == b and hash(a) == hash(b)
