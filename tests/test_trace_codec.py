"""The trace codec against the code it replaced.

`old_render_trace` and `old_parse_trace` are the first render and parse,
one f-string and one sort per record, one partition per payload field.  The
codec in `scdkit.sim` shares work and strings between records, and parses a
FORWARD's send and recv lines into compact TraceLog entries; these tests
hold it to the old output on arbitrary input, malformed text included, and
hold load_run on those entries to load_run on the records they stand for.
The parser reads a text's lines in chunks; the oracle tests also run it
with chunks of a few characters, so that chunk ends fall all over a text.
"""
from __future__ import annotations

import gc
import tracemalloc
from dataclasses import fields
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from scdkit import sim
from scdkit.check import load_run
from scdkit.sim import (
    WORKLOADS,
    RunData,
    ScenarioConfig,
    TraceEvent,
    TraceLog,
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


def assert_parses_like_old_parser(text):
    """parse_trace(text), with its own chunk length and with chunks of 1, 3
    and 7 characters, gives old_parse_trace's records, or its error type,
    message and line number."""
    want = _parsed(old_parse_trace, text)
    assert _parsed(parse_trace, text) == want
    for size in (1, 3, 7):
        with mock.patch.object(sim, "_CHUNK_CHARS", size):
            assert _parsed(parse_trace, text) == want, f"chunks of {size}"


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
    assert_parses_like_old_parser(text)


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


# One FORWARD's send lines (to=1..reach) or recv line, keys sorted, in the
# exact form parse_trace folds into one TraceLog entry or perturbed out of it.
_FIELD_VALUES = st.sampled_from(["0", "1", "3", "", "a=b", "1.0"])
_M_VALUES = st.sampled_from(["1.0", "1.00", "2.1", "2.1", "x"])
_FROM_VALUES = st.sampled_from(["1", "2", "3", "01", "+1", "a=b", "9"])
_PROCS = st.sampled_from([1, 2, 3, 1, 2, 3, 4])
_PERTURBATIONS = st.sampled_from([None, None, None, None, "gap", "repeat", "zero-padded",
                                  "step", "proc", "missing", "extra", "duplicate", "swap",
                                  "renamed"])


@st.composite
def forward_lines(draw):
    step, proc = draw(st.integers(1, 6)), draw(_PROCS)
    values = [draw(_FIELD_VALUES), draw(_M_VALUES), *(draw(_FIELD_VALUES) for _ in range(3))]
    items = list(zip(("f", "m", "sd", "sn", "snf"), values))
    if draw(st.booleans()):
        kind, reach = "send", draw(st.integers(1, 4))
        records = [[step, proc, [*items, ("to", str(dst))]] for dst in range(1, reach + 1)]
    else:
        kind = "recv"
        records = [[step, proc, [items[0], ("from", draw(_FROM_VALUES)), *items[1:]]]]
    k = draw(st.integers(0, len(records) - 1))
    rec_items = records[k][2]
    at = draw(st.integers(0, len(rec_items) - 1))
    perturbation = draw(_PERTURBATIONS)
    if perturbation == "gap" and len(records) > 1:
        del records[k]
    elif perturbation == "repeat":
        records.insert(k, [records[k][0], records[k][1], list(rec_items)])
    elif perturbation == "zero-padded":  # to=01, from=01
        key = "to" if kind == "send" else "from"
        i = next(i for i, (name, _) in enumerate(rec_items) if name == key)
        rec_items[i] = (key, "0" + rec_items[i][1])
    elif perturbation in ("step", "proc"):  # from the k-th line on
        for rec in records[k:]:
            rec[perturbation == "proc"] += 1
    elif perturbation == "missing":
        del rec_items[at]
    elif perturbation == "extra":
        rec_items.insert(at, draw(st.sampled_from([("x", "1"), ("g", ""), ("", "")])))
    elif perturbation == "duplicate":
        rec_items.insert(at, rec_items[draw(st.integers(0, len(rec_items) - 1))])
    elif perturbation == "swap" and at + 1 < len(rec_items):
        rec_items[at], rec_items[at + 1] = rec_items[at + 1], rec_items[at]
    elif perturbation == "renamed":  # from -> fro, snf -> sn, f -> "", ...
        rec_items[at] = (rec_items[at][0][:-1], rec_items[at][1])
    return [f"{step}|{kind}|{proc}|" + " ".join(f"{name}={value}" for name, value in items)
            for step, proc, items in records]


_FORWARD_CONFIG = render_trace(TraceLog.of([TraceEvent(0, "config", 0, ScenarioConfig(
    n=3, t=1, workload="snapshot_ops", op_count=2).to_payload())]))
# records that mark a crash (crash silence) or move the record index of an op
_OTHER_LINES = st.sampled_from([
    "2|crash|2|", "3|op_invoke|1|op=snapshot seq=0",
    "7|op_return|1|op=snapshot seq=0 tsa=0:- vals=-", "4|bcast|1|data=- id=1.0",
])
_FORWARD_BREAK = st.sampled_from(["\n"] * 8 + ["\r\n", "\r", "\x0b", " "])


@st.composite
def forward_traces(draw):
    """A snapshot_ops trace of FORWARD-shaped lines among a few other
    records, between a config and an end record."""
    lines = []
    for group in draw(st.lists(st.one_of(forward_lines(), _OTHER_LINES.map(lambda x: [x])),
                               max_size=8)):
        lines += group
    lines.append("9|end|0|expected=0 status=quiescent steps=9")
    breaks = draw(st.lists(_FORWARD_BREAK, min_size=len(lines), max_size=len(lines)))
    text = _FORWARD_CONFIG + "".join(line + br for line, br in zip(lines, breaks))
    return text if text.endswith("\n") else text + "\n"


def _loaded(log):
    """Every field of load_run(log), or the exception.  The log's records
    are listed, and the late entry cut to the step delta, kind and proc of
    its record; crash silence reads the kind and proc."""
    try:
        run = load_run(log)
    except Exception as e:  # noqa: BLE001 - the type and message are compared
        return type(e), str(e)
    shown = {"events": list(run.events), "late": run.late and run.late[:3]}
    return [(f.name, shown.get(f.name, getattr(run, f.name))) for f in fields(RunData)]


@settings(max_examples=500, deadline=None)
@given(forward_traces())
def test_forward_lines_parse_render_and_load_as_their_records(text):
    assert _parsed(parse_trace, text) == _parsed(old_parse_trace, text)
    try:
        log = parse_trace(text)
    except TraceParseError:
        return
    assert (render_trace(log).splitlines(True)
            == old_render_trace(old_parse_trace(text)).splitlines(True))
    assert _loaded(parse_trace(text)) == _loaded(TraceLog.of(parse_trace(text)))


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
    assert (render_trace(TraceLog.of(events)).splitlines(True)
            == old_render_trace(events).splitlines(True))


def _workload_events(workload):
    cfg = ScenarioConfig(n=4, t=1, workload=workload, op_count=8, crash="random:1",
                         nregs=2, writer=2, seed=5)
    return run_scenario(cfg).events


@pytest.mark.parametrize("workload", WORKLOADS)
def test_codec_matches_old_codec_on_simulated_traces(workload):
    events = _workload_events(workload)
    text = render_trace(events)
    # lists of lines (ends kept): pytest's diff of two long texts can take minutes
    assert text.splitlines(True) == old_render_trace(events).splitlines(True)
    assert_parses_like_old_parser(text)


def assert_one_text_per_field_value(log):
    """The FORWARD entries of log hold one string per distinct field text:
    all forwarders of one message share its m, sd and sn texts, and each
    pid has one text."""
    texts, forwarders = {}, {}
    for e in log.entries():
        if e[4] is not None:  # a FORWARD's entry
            for t in (*e[3], e[4]) if e[1] == "recv" else e[3]:
                assert texts.setdefault(t, t) is t
            forwarders.setdefault(e[3][0], set()).add(e[3][3])
    assert max(map(len, forwarders.values())) == 4


def test_parsed_records_share_field_text():
    simulated = _workload_events("raw_broadcast")
    events = parse_trace(render_trace(simulated))
    assert_one_text_per_field_value(simulated)
    assert_one_text_per_field_value(events)
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


def _traced_growth(fn):
    """(fn(), the bytes it allocated that are still held, their peak), by
    tracemalloc."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, kept - start, peak - start


_SNAPSHOT_300 = ScenarioConfig(n=5, t=2, workload="snapshot_ops", op_count=300, nregs=3,
                               seed=7)


def test_parse_holds_no_list_of_all_lines():
    """parse_trace of a 1.18 MB trace allocates less than 1.25 times the
    text's length beyond what its log keeps (a list of all its lines, with
    their strings, takes about 2.9 times)."""
    text = render_trace(run_scenario(_SNAPSHOT_300).events)
    assert len(text) > 10**6
    log, kept, peak = _traced_growth(lambda: parse_trace(text))
    assert len(log) > 10**4
    assert peak - kept < 1.25 * len(text)


def test_log_entries_are_untracked():
    """Every item of a simulated and of a parsed 300-op log is an int, a
    string, None or a tuple of strings, so one collection leaves none of
    them tracked by the cyclic collector."""
    log = run_scenario(_SNAPSHOT_300).events
    parsed = parse_trace(render_trace(log))
    gc.collect()
    for rows in (log.rows, parsed.rows):
        assert len(rows) > 5 * 10**4
        assert not any(map(gc.is_tracked, rows))


def test_simulated_run_data_is_small():
    """A 300-op run's RunData, its log included, holds under 2.0 MiB:
    1.57-1.66 MiB on CPython 3.10-3.13, against 2.61-2.65 MiB while each
    entry was a tuple holding its absolute step."""
    run, kept, _ = _traced_growth(lambda: run_scenario(_SNAPSHOT_300))
    assert len(run.events) > 2 * 10**4
    assert kept < 2.0 * 2**20


def test_parsed_log_is_small():
    """The parsed log of the same 300-op run holds under 1.5 MiB: 1.10-1.14
    MiB on CPython 3.10-3.13, against 2.10-2.13 MiB while each entry was a
    tuple holding its absolute step."""
    text = render_trace(run_scenario(_SNAPSHOT_300).events)
    log, kept, _ = _traced_growth(lambda: parse_trace(text))
    assert len(log) > 2 * 10**4
    assert kept < 1.5 * 2**20


@pytest.mark.parametrize("kind,key", [("send", "to"), ("send", "m"), ("recv", "from")])
def test_parsed_records_own_their_payloads(kind, key):
    log = parse_trace(render_trace(_workload_events("raw_broadcast")))
    records = list(log)
    before = [TraceEvent(*ev[:3], dict(ev.payload)) for ev in records]
    k = next(k for k, ev in enumerate(records) if ev.kind == kind)
    del records[k].payload[key]
    assert list(log) == before  # the log's next records have the field
    del before[k].payload[key]
    assert records == before  # no other record lost the field
