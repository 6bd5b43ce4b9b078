"""The trace codec against the code it replaced.

`old_render_trace` and `old_parse_trace` are the first render and parse,
one f-string and one sort per record, one partition per payload field.  The
codec in `scdkit.sim` shares work and strings between records; these tests
hold it to the old output on arbitrary input, malformed text included.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from scdkit.sim import (
    WORKLOADS,
    ScenarioConfig,
    TraceEvent,
    TraceParseError,
    parse_trace,
    render_trace,
    run_scenario,
)


def old_render_event(ev: TraceEvent) -> str:
    body = " ".join(f"{k}={v}" for k, v in sorted(ev.payload.items()))
    return f"{ev.step}|{ev.kind}|{ev.proc}|{body}"


def old_render_trace(events) -> str:
    return "".join(old_render_event(ev) + "\n" for ev in events)


def old_parse_trace(text: str) -> list:
    lines = text.splitlines()
    if text and not text.endswith("\n"):
        raise TraceParseError(f"line {len(lines)}: trace ends mid-record")
    events = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split("|", 3)
        if len(parts) != 4:
            raise TraceParseError(f"line {lineno}: want step|kind|proc|payload")
        try:
            step, kind, proc = int(parts[0]), parts[1], int(parts[2])
            payload = {}
            if parts[3]:
                for chunk in parts[3].split(" "):
                    k, _, v = chunk.partition("=")
                    payload[k] = v
        except ValueError as e:
            raise TraceParseError(f"line {lineno}: {e}") from None
        events.append(TraceEvent(step, kind, proc, payload))
    return events


def _parsed(parse, text):
    """The records with their payload key order, or the exception."""
    try:
        events = parse(text)
    except Exception as e:  # noqa: BLE001 - the type and message are compared
        return type(e), str(e)
    return [(type(ev), ev, list(ev.payload.items())) for ev in events]


# Few distinct keys and values, so that heads, last fields and keys repeat.
_WORDS = st.sampled_from(["", "a", "b", "to", "m", "x=y", "|", "1.0", " ", "=", "3"])
_CHUNK = st.one_of(
    st.builds(lambda k, v: f"{k}={v}", _WORDS, _WORDS),
    _WORDS,                                  # a chunk without "=" or empty
    st.text(alphabet="ab =|-", max_size=4),
)
_PAYLOAD = st.lists(_CHUNK, max_size=5).map(" ".join)
_NUMBER = st.one_of(st.integers(-3, 300).map(str), st.sampled_from([" 7", "+2", "1_0", "٣"]))
_BAD_NUMBER = st.sampled_from(["", "x", "1.5"])
_KIND = st.sampled_from(["send", "recv", "", " "])


def _records(number, kind):
    return st.builds(
        lambda step, kind, proc, payload: f"{step}|{kind}|{proc}|{payload}",
        number, kind, number, _PAYLOAD,
    )


_BLANK = st.sampled_from(["", " ", "\t"])
_BREAK = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0b", " "])
_MALFORMED = st.one_of(
    _records(st.one_of(_NUMBER, _BAD_NUMBER), st.sampled_from(["k|", "send"])),
    st.sampled_from(["1|send|2", "1|send", "|||"]),
    st.text(alphabet="0123456789|= ab", max_size=12),
)


@st.composite
def trace_texts(draw):
    """Well-formed texts (blank lines, odd line breaks and spacing allowed)
    half the time; otherwise some lines may be malformed and the end cut."""
    malformed = draw(st.booleans())
    record = _records(_NUMBER, _KIND)
    line = st.one_of(record, record, _BLANK, *([_MALFORMED] if malformed else []))
    lines = draw(st.lists(line, max_size=12))
    breaks = draw(st.lists(_BREAK, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + br for line, br in zip(lines, breaks))
    if not malformed:
        return text + "\n" if text else text
    if text and draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text) - 1))]  # missing final newline
    return text


@settings(max_examples=600, deadline=None)
@given(trace_texts())
def test_parser_matches_old_parser(text):
    assert _parsed(parse_trace, text) == _parsed(old_parse_trace, text)


@pytest.mark.parametrize("body,payload", [
    (" x=1", {"": "", "x": "1"}),
    ("x=1 ", {"x": "1", "": ""}),
    ("  ", {"": ""}),
    ("a=1 a=2", {"a": "2"}),
    ("a=1 b=2 a=3", {"a": "3", "b": "2"}),
    ("k=a=b v", {"k": "a=b", "v": ""}),
    ("p=| q", {"p": "|", "q": ""}),
])
def test_payload_edge_cases(body, payload):
    text = f"1|k|2|{body}\n" * 2
    for ev in parse_trace(text):
        assert list(ev.payload.items()) == list(payload.items())
    assert _parsed(parse_trace, text) == _parsed(old_parse_trace, text)


_KEYS = st.sampled_from(["", "a", "b", "m", "to", "{}", "}{", "{0}", "%s", "=", "é", "a b"])
_VALUES = st.one_of(st.text(max_size=6), st.integers(-5, 5))


@st.composite
def event_lists(draw):
    """Records over a few key sets, each listed in arbitrary orders."""
    key_sets = draw(st.lists(st.lists(_KEYS, unique=True, max_size=6), min_size=1, max_size=3))
    events = []
    for _ in range(draw(st.integers(0, 12))):
        keys = draw(st.permutations(draw(st.sampled_from(key_sets))))
        payload = {k: draw(_VALUES) for k in keys}
        step = draw(st.integers(-2, 10**6))
        kind = draw(st.sampled_from(["send", "recv", "{}", "a|b"]))
        events.append(TraceEvent(step, kind, draw(st.integers(0, 9)), payload))
    return events


@settings(max_examples=300, deadline=None)
@given(event_lists())
def test_render_matches_old_render(events):
    assert render_trace(events) == old_render_trace(events)


def _workload_events(workload):
    cfg = ScenarioConfig(n=4, t=1, workload=workload, op_count=8, crash="random:1",
                         nregs=2, writer=2, seed=5)
    return run_scenario(cfg).events


@pytest.mark.parametrize("workload", WORKLOADS)
def test_codec_matches_old_codec_on_simulated_traces(workload):
    events = _workload_events(workload)
    text = render_trace(events)
    assert text == old_render_trace(events)
    assert _parsed(parse_trace, text) == _parsed(old_parse_trace, text)


def test_parsed_records_share_field_text():
    events = parse_trace(render_trace(_workload_events("raw_broadcast")))
    first = next(ev for ev in events if ev.kind == "send")
    sends = [ev for ev in events
             if ev.kind == "send" and ev.payload["m"] == first.payload["m"]
             and ev.payload["f"] == first.payload["f"]]
    assert len(sends) == 4
    for ev in sends[1:]:
        assert ev.payload["m"] is first.payload["m"]
        assert ev.kind is first.kind
    recvs = [ev for ev in events if ev.kind == "recv"
             and (ev.payload["m"], ev.payload["f"]) == (first.payload["m"], first.payload["f"])]
    assert len(recvs) > 1
    for ev in recvs:
        assert ev.payload["m"] is first.payload["m"]


@pytest.mark.parametrize("kind,key", [("send", "to"), ("send", "m"), ("recv", "from")])
def test_parsed_records_own_their_payloads(kind, key):
    events = parse_trace(render_trace(_workload_events("raw_broadcast")))
    before = [TraceEvent(*ev[:3], dict(ev.payload)) for ev in events]
    k = next(k for k, ev in enumerate(events) if ev.kind == kind)
    del events[k].payload[key]
    del before[k].payload[key]
    assert events == before  # no other record, and no later parse, lost the field
