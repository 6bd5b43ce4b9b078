"""Property checkers: known-good and known-bad logs, mutations, oracles."""
from __future__ import annotations

import copy
import itertools
import random
import re
from operator import le

import digest_sweep
import pytest
from hypothesis import given, settings, strategies as st
from test_mutants import write_without_sync

from scdkit.core import INITIAL_TS, MsgId, Timestamp
from scdkit.shared_objects import INITIAL_VALUE, SnapshotObject, WritePayload
from scdkit.check import (
    History,
    Verdict,
    _misorder,
    _write_rank,
    OpRecord,
    RunData,
    check_containment,
    check_crash_silence,
    check_fifo,
    check_integrity,
    check_linearizable_bruteforce,
    check_linearizable_witness,
    check_message_bound,
    check_ms_ordering,
    check_sequentially_consistent,
    check_termination,
    check_validity,
    evaluate_run,
    extract_history,
    load_run,
    timestamp_metadata,
)
from scdkit.sim import MP_WORKLOADS, ScenarioConfig, parse_trace, run_scenario


def make_run(logs, n=3, status="quiescent"):
    """RunData from bare delivery logs; message k maps to id (1+k%n).k"""
    cfg = ScenarioConfig(n=n, t=(n - 1) // 2, workload="raw_broadcast", op_count=0)
    run = RunData(cfg, [], status)
    run.logs = {
        i: [frozenset(MsgId(1 + k % n, k) for k in s) for s in seq]
        for i, seq in logs.items()
    }
    for i in range(1, n + 1):
        run.logs.setdefault(i, [])
    run.broadcasts = {
        m: (m.sender, b"x") for seq in run.logs.values() for s in seq for m in s
    }
    run.completed = {i: set() for i in run.logs}
    return run


# a three-process run whose set orders are mutually consistent
GOOD_LOGS = {
    1: [{1, 2}, {3, 4, 5}, {6}, {7, 8}],
    2: [{1}, {3, 2}, {6, 4, 5}, {7}, {8}],
    3: [{3, 1, 2}, {6, 4, 5}, {7}, {8}],
}


def test_consistent_logs_pass_every_set_checker():
    run = make_run(GOOD_LOGS)
    for check in (check_validity, check_integrity, check_ms_ordering, check_containment):
        assert check(run).status == "pass", check.__name__


def test_opposite_set_orders_fail_ms_ordering():
    # first process delivers 2 strictly before 3, second does the opposite
    run = make_run({1: [{1, 2}, {3, 4, 5}], 2: [{1, 3}, {2}]})
    v = check_ms_ordering(run)
    assert v.status == "fail"
    assert str(MsgId(3, 2)) in v.detail and str(MsgId(1, 3)) in v.detail


def test_same_set_delivery_is_not_an_ordering_conflict():
    run = make_run({1: [{1}, {2}], 2: [{1, 2}]})
    assert check_ms_ordering(run).status == "pass"


def test_disjoint_prefixes_fail_containment():
    run = make_run({1: [{1}], 2: [{2}]})
    assert check_containment(run).status == "fail"
    # still fine for ms-ordering: no common messages at all
    assert check_ms_ordering(run).status == "pass"


def prefix_union_containment(logs):
    """Reference: a frozenset per distinct prefix union, sorted by size, with
    each adjacent pair compared."""
    reps = {}
    for i, sets in sorted(logs.items()):
        acc = set()
        for x, s in enumerate(sets):
            acc |= s
            reps.setdefault(frozenset(acc), (i, x + 1))
    chain = sorted(reps, key=len)
    return all(chain[k - 1] <= chain[k] for k in range(1, len(chain)))


@st.composite
def delivery_logs(draw):
    """Logs of 1-9 processes over up to 8 messages: prefixes of a few shared
    orders or of a private one, cut into sets that may be empty or repeat
    earlier deliveries; a process may deliver nothing."""
    ids = [MsgId(1 + k % 3, k) for k in range(draw(st.integers(0, 8)))]
    orders = [draw(st.permutations(ids)) for _ in range(draw(st.integers(1, 3)))]
    logs = {}
    for i in range(1, draw(st.integers(1, 9)) + 1):
        order = draw(st.sampled_from(orders) | st.permutations(ids))
        order = order[: draw(st.integers(0, len(order)))]
        sets, k = [], 0
        while k < len(order):
            width = draw(st.integers(0, 3))
            s = set(order[k : k + width])
            k += width
            if ids and draw(st.integers(0, 4)) == 0:
                s.add(draw(st.sampled_from(ids)))
            sets.append(frozenset(s))
        logs[i] = sets
    return logs


@settings(max_examples=500, deadline=None)
@given(delivery_logs())
def test_containment_matches_prefix_union_oracle(logs):
    """The level count against the sorted frozenset per prefix it replaced;
    a failure must name two incomparable prefix unions."""
    cfg = ScenarioConfig(n=9, t=4, workload="raw_broadcast", op_count=0)
    run = RunData(cfg, [], "quiescent")
    run.logs = logs
    v = check_containment(run)
    assert (v.status == "pass") == prefix_union_containment(logs), v.detail
    if v.status == "fail":
        pi, px, qi, qx = map(int, re.fullmatch(
            r"p(\d+) first (\d+) sets vs p(\d+) first (\d+) sets are incomparable",
            v.detail).groups())
        a = set().union(*logs[pi][:px])
        b = set().union(*logs[qi][:qx])
        assert not a <= b and not b <= a, v.detail


def test_duplicate_delivery_fails_integrity():
    run = make_run({1: [{1}, {2, 1}]})
    assert check_integrity(run).status == "fail"


def test_unknown_message_fails_validity():
    run = make_run({1: [{1}]})
    run.broadcasts = {}
    assert check_validity(run).status == "fail"


def naive_ms_ordering(logs):
    """Quadratic reference: search all pairs for opposite strict orders."""
    pos = {i: {m: x for x, s in enumerate(sets) for m in s} for i, sets in logs.items()}
    for i, j in itertools.combinations(sorted(pos), 2):
        for m, m2 in itertools.combinations(sorted(set(pos[i]) & set(pos[j]), key=str), 2):
            di = pos[i][m] - pos[i][m2]
            dj = pos[j][m] - pos[j][m2]
            if (di < 0 and dj > 0) or (di > 0 and dj < 0):
                return False
    return True


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_ms_ordering_scan_matches_quadratic_reference(seed):
    rng = random.Random(seed)
    nmsg = rng.randint(1, 8)
    logs = {}
    for i in (1, 2, 3):
        msgs = list(range(nmsg))
        rng.shuffle(msgs)
        msgs = msgs[: rng.randint(0, nmsg)]
        sets, k = [], 0
        while k < len(msgs):
            width = rng.randint(1, 3)
            sets.append(set(msgs[k : k + width]))
            k += width
        logs[i] = sets
    run = make_run(logs)
    expect = naive_ms_ordering(run.logs)
    assert (check_ms_ordering(run).status == "pass") == expect


def pair_sort_ms_ordering(run: RunData) -> Verdict:
    """The ms_ordering check it replaced: per pair of processes, the common
    messages sorted by (position at i, position at j), scanned with the
    running maximum of the positions at j over earlier sets at i."""
    pos = {
        i: {mid: x for x, s in enumerate(sets) for mid in s}
        for i, sets in run.logs.items()
    }
    procs = sorted(run.logs)
    for a in range(len(procs)):
        for b in range(a + 1, len(procs)):
            i, j = procs[a], procs[b]
            common = [mid for mid in pos[i] if mid in pos[j]]
            common.sort(key=lambda mid: (pos[i][mid], pos[j][mid]))
            run_max = None  # (pos_j, mid) over strictly earlier sets at i
            x = 0
            while x < len(common):
                y = x
                while y < len(common) and pos[i][common[y]] == pos[i][common[x]]:
                    y += 1
                if run_max is not None:
                    for mid in common[x:y]:
                        if pos[j][mid] < run_max[0]:
                            return Verdict(
                                "ms_ordering", "fail",
                                f"p{i} orders {run_max[1]}<{mid}, "
                                f"p{j} orders {mid}<{run_max[1]}",
                            )
                for mid in common[x:y]:
                    if run_max is None or pos[j][mid] > run_max[0]:
                        run_max = (pos[j][mid], mid)
                x = y
    return Verdict("ms_ordering", "pass")


def assert_names_an_inversion(logs, detail):
    """detail names m, m' that one process delivers in strictly one set
    order and another in the opposite, each at its last delivery."""
    i, a, b, j = re.fullmatch(r"p(\d+) orders (\S+)<(\S+), p(\d+) orders \3<\2",
                              detail).groups()
    a, b = MsgId.parse(a), MsgId.parse(b)
    pos = {k: {m: x for x, s in enumerate(logs[k]) for m in s} for k in (int(i), int(j))}
    assert pos[int(i)][a] < pos[int(i)][b] and pos[int(j)][b] < pos[int(j)][a], detail


@settings(max_examples=500, deadline=None)
@given(delivery_logs())
def test_ms_ordering_matches_pair_sort_on_delivery_logs(logs):
    """The set walk against the pair sort it replaced, repeated deliveries
    included: the same status, and a failure names a real inversion."""
    cfg = ScenarioConfig(n=9, t=4, workload="raw_broadcast", op_count=0)
    run = RunData(cfg, [], "quiescent")
    run.logs = logs
    v = check_ms_ordering(run)
    assert v.status == pair_sort_ms_ordering(run).status
    if v.status == "fail":
        assert_names_an_inversion(logs, v.detail)


def test_ms_ordering_matches_pair_sort_on_sweep_configs():
    """The same verdict line as the pair sort on every run of the
    determinism sweep's configs, and at the scale of perfbench's fanout."""
    for cfg in (*digest_sweep.configs(), *digest_sweep.fanout_configs()):
        run = run_scenario(cfg)
        assert check_ms_ordering(run).line() == pair_sort_ms_ordering(run).line(), cfg


def test_termination_skips_unfinished_runs():
    run = make_run(GOOD_LOGS, status="stalled")
    assert check_termination(run).status == "skip"


def test_termination_flags_missing_delivery():
    run = make_run({1: [{1}], 2: [], 3: [{1}]})
    for mid, (sender, _) in run.broadcasts.items():
        run.completed[sender].add(mid)
    v = check_termination(run)
    assert v.status == "fail" and "missing at p2" in v.detail


def test_termination_flags_incomplete_broadcast():
    run = make_run({1: [{1}], 2: [{1}], 3: [{1}]})
    assert "never completed" in check_termination(run).detail


def test_termination_ignores_crashed_processes():
    run = make_run({1: [{1}], 2: [{1}], 3: []})
    run.faulty = {3}
    for mid, (sender, _) in run.broadcasts.items():
        run.completed[sender].add(mid)
    assert check_termination(run).status == "pass"


def test_termination_skips_runs_where_a_majority_crashed():
    run = make_run({1: [{1}], 2: [], 3: []})
    run.faulty = {2, 3}
    v = check_termination(run)
    assert v.status == "skip" and v.detail.startswith("2 of 3 processes crashed")


def test_termination_judges_majority_plans_whose_crashes_never_fire():
    # three of five crashes are planned, but the run goes quiescent first
    cfg = ScenarioConfig(n=5, t=2, workload="raw_broadcast", op_count=2,
                         crash="explicit:1@10000,2@10000,3@10000", seed=3)
    assert cfg.expected_nonterminating()
    res = run_scenario(cfg)
    assert res.status == "quiescent"
    run = load_run(res.events)
    assert not run.faulty
    assert check_termination(run).status == "pass"


# -- trace-structure checks on live runs ------------------------------------


def test_first_failure_names_the_lowest_id():
    # as strings, "1.10" sorts before "1.2"
    run = make_run({})
    run.broadcasts = {MsgId(1, 10): (1, b"x"), MsgId(1, 2): (1, b"x")}
    run.sends = {MsgId(1, 10): 10, MsgId(1, 2): 10}
    assert check_termination(run).detail == "broadcast 1.2 never completed at p1"
    assert check_message_bound(run).detail == "1.2 used 10 sends, cap 9"


def test_live_run_passes_fifo_and_silence_and_bound():
    res = run_scenario(
        ScenarioConfig(n=5, t=2, workload="register_ops", op_count=10,
                       crash="random:2", seed=8)
    )
    run = load_run(res.events)
    assert check_fifo(run).status == "pass"
    assert check_crash_silence(run).status == "pass"
    assert check_message_bound(run).status == "pass"


def _tampered(text, edit):
    """The parsed log of a trace whose lines edit(lines) changed in place:
    a tampered trace reaches scdkit check rendered, edited and parsed."""
    lines = text.splitlines(keepends=True)
    edit(lines)
    return parse_trace("".join(lines))


def test_reordered_channel_fails_fifo():
    res = run_scenario(ScenarioConfig(n=3, t=1, workload="raw_broadcast", op_count=3))
    events = list(res.events)  # record k is line k
    recvs = [k for k, ev in enumerate(events) if ev.kind == "recv"]
    a = next(k for k in recvs if any(
        events[j].kind == "recv"
        and events[j].proc == events[k].proc
        and events[j].payload["from"] == events[k].payload["from"]
        for j in recvs if j > k))
    b = next(j for j in recvs if j > a
             and events[j].proc == events[a].proc
             and events[j].payload["from"] == events[a].payload["from"])

    def swap(lines):
        lines[a], lines[b] = lines[b], lines[a]
    assert check_fifo(load_run(_tampered(res.text, swap))).status == "fail"


def channels_of(log) -> dict:
    """The channel lists load_run once built, from the log's records:
    (src, dst) -> ((sd, sn, f) of each send, of each receipt), in log
    order."""
    channels = {}
    for ev in log:
        p = ev.payload
        if ev.kind == "send":
            channel, side = (ev.proc, int(p["to"])), 0
        elif ev.kind == "recv":
            channel, side = (int(p["from"]), ev.proc), 1
        else:
            continue
        channels.setdefault(channel, ([], []))[side].append((p["sd"], p["sn"], p["f"]))
    return channels


def channel_list_fifo(channels) -> Verdict:
    """The check_fifo it replaced: each channel's receipts a prefix of its
    sends, the first failing channel named."""
    for (src, dst), (sent, received) in sorted(channels.items()):
        if received != sent[: len(received)]:
            return Verdict("fifo", "fail", f"channel {src}->{dst} reorders or loses")
    return Verdict("fifo", "pass")


# crash-free, random crashes, and explicit ones whose keep cuts truncate a
# fan-out, at n = 5
_FIFO_CRASHES = ("none", "random:2", "explicit:2@9:1,4@40:3", "explicit:1@0:2,3@25:4")


@pytest.mark.parametrize("workload", MP_WORKLOADS)
def test_fifo_walk_matches_channel_lists(workload):
    """check_fifo's walk of the log gives the channel lists' verdict on
    simulated runs, judged live and from their parsed traces."""
    cut = False
    for delay in ("uniform", "fifo", "slow:1"):
        for crash in _FIFO_CRASHES:
            for seed in range(2):
                cfg = ScenarioConfig(n=5, t=2, workload=workload, op_count=10, crash=crash,
                                     delay=delay, seed=seed, nregs=2, writer=2)
                res = run_scenario(cfg)
                want = channel_list_fifo(channels_of(res.events))
                assert check_fifo(res) == want == Verdict("fifo", "pass"), cfg
                assert check_fifo(load_run(parse_trace(res.text))) == want, cfg
                cut |= any(e[1] == "send" and e[4] is not None and e[4] < 5
                           for e in res.events.entries())
    assert cut  # some keep cut truncated a fan-out


def _recv_lines(lines):
    """(index, receiver, sender) of each recv line."""
    return [(k, line.split("|")[2], re.search(" from=([0-9]+)", line)[1])
            for k, line in enumerate(lines) if line.split("|")[1] == "recv"]


def _swap_receipts(lines):
    recvs = _recv_lines(lines)
    a, b = next((a, b) for x, a in enumerate(recvs) for b in recvs[x + 1:] if a[1:] == b[1:])
    lines[a[0]], lines[b[0]] = lines[b[0]], lines[a[0]]


def _drop_send(lines):  # the fan-out's send to p2 is gone: its receipt there fails
    del lines[_first(lines, "send", " to=2\n")]


def _repeat_receipt(lines):
    k = _first(lines, "recv")
    lines.insert(k + 1, lines[k])


def _receipt_from_p3(lines):  # p3 crashed at step 0 and never sent
    assert not any(line.split("|")[1:3] == ["send", "3"] for line in lines)
    k = _first(lines, "recv")
    lines[k] = re.sub(" from=[0-9]+", " from=3", lines[k])


@pytest.mark.parametrize("edit,crash", [
    (_swap_receipts, "none"), (_drop_send, "none"), (_repeat_receipt, "none"),
    (_receipt_from_p3, "explicit:3@0"),
], ids=["reordered-receipt", "dropped-send", "duplicated-receipt", "never-sent-channel"])
def test_fifo_walk_matches_channel_lists_on_tampered_traces(edit, crash):
    res = run_scenario(ScenarioConfig(n=3, t=1, workload="raw_broadcast", op_count=4,
                                      crash=crash, seed=2))
    log = _tampered(res.text, edit)
    v = check_fifo(load_run(log))
    assert v == channel_list_fifo(channels_of(log))
    assert v.status == "fail"


def test_fifo_fails_a_receipt_before_its_send():
    """A receipt moved ahead of its fan-out's send lines keeps every
    channel's receipts in order, which the channel lists never looked
    past; the walk fails it, as no channel delivers what is not yet sent."""
    res = run_scenario(ScenarioConfig(n=3, t=1, workload="raw_broadcast", op_count=4, seed=2))
    lines = res.text.splitlines(keepends=True)
    k, dst, src = _recv_lines(lines)[0]
    fwd = re.search("(f=[^ ]*) from=[0-9]+ (.*)\n", lines[k])
    j = _first(lines, "send", f"|{src}|{fwd[1]} {fwd[2]} to=1\n")
    lines.insert(j, lines.pop(k))
    log = parse_trace("".join(lines))
    assert channel_list_fifo(channels_of(log)).status == "pass"
    v = check_fifo(load_run(log))
    assert (v.status, v.detail) == ("fail", f"channel {src}->{dst} reorders or loses")


def test_tampered_send_count_fails_bound():
    res = run_scenario(ScenarioConfig(n=3, t=1, workload="raw_broadcast", op_count=2))

    def send_twice(lines):
        lines += [line for line in lines if line.split("|")[1] == "send"]
    assert check_message_bound(load_run(_tampered(res.text, send_twice))).status == "fail"


def test_sends_sum_texts_that_spell_one_id():
    res = run_scenario(ScenarioConfig(n=3, t=1, workload="raw_broadcast", op_count=2))
    k, send = next((k, ev) for k, ev in enumerate(res.events) if ev.kind == "send")
    m = send.payload["m"]

    def respell(lines):  # "1.0" -> "1.00"
        lines[k] = lines[k].replace(f" m={m} ", f" m={m.replace('.', '.0')} ")
        assert m.replace(".", ".0") in lines[k]
    assert load_run(_tampered(res.text, respell)).sends == load_run(res.events).sends


def test_event_after_crash_fails_silence():
    res = run_scenario(
        ScenarioConfig(n=3, t=1, workload="raw_broadcast", op_count=4,
                       crash="explicit:2@5", seed=1)
    )
    events = list(res.events)
    crash_at = next(k for k, ev in enumerate(events) if ev.kind == "crash")
    early = next(k for k, ev in enumerate(events[:crash_at]) if ev.proc == 2)

    def replay(lines):
        lines.append(lines[early])
    assert check_crash_silence(load_run(_tampered(res.text, replay))).status == "fail"


@pytest.mark.parametrize("kind", ["recv", "send", "config", "end"])
def test_crash_silence_fails_on_a_parsed_late_entry(kind):
    """A recv line, or a fan-out's first send line, moved after its
    process's crash line parses into a recv or send entry, and that entry
    is the late record crash silence names.  A config or end line is the
    run's, whatever process it names: a copy of the run's own, naming the
    crashed process and put just after its crash line, leaves crash
    silence passing."""
    res = run_scenario(ScenarioConfig(n=3, t=1, workload="raw_broadcast", op_count=4,
                                      crash="explicit:2@30", seed=1))
    events = list(res.events)
    crash_at = next(k for k, ev in enumerate(events) if ev.kind == "crash")
    assert events[crash_at].proc == 2
    if kind in ("config", "end"):
        k = 0 if kind == "config" else len(events) - 1
        assert events[k].kind == kind

        def move(lines):
            step = lines[crash_at].split("|", 1)[0]
            lines.insert(crash_at + 1, f"{step}|{kind}|2|{lines[k].split('|', 3)[3]}")
        run = load_run(_tampered(res.text, move))
        assert run.faulty == {2} and run.late is None
        assert check_crash_silence(run).status == "pass"
        return
    k = max(k for k, ev in enumerate(events[:crash_at])
            if ev.proc == 2 and ev.kind == kind and ev.payload.get("to", "1") == "1")

    def move(lines):
        lines.insert(crash_at, lines.pop(k))  # now just after the crash line
    run = load_run(_tampered(res.text, move))
    assert type(run.late) is tuple and run.late[1:3] == (kind, 2)
    v = check_crash_silence(run)
    assert (v.status, v.detail) == ("fail", f"p2 emits {kind} after crashing")


def _first(lines, kind, text=""):
    return next(k for k, line in enumerate(lines) if line.split("|")[1] == kind and text in line)


def _drop_to(lines):
    k = _first(lines, "send")
    lines[k] = re.sub(" to=[0-9]+", "", lines[k])


def _bad_m(lines):
    k = _first(lines, "send")
    lines[k] = re.sub(" m=[^ ]*", " m=1.x", lines[k])


def _send_to_p9(lines):
    # the fan-out's run of send lines breaks there: a send record of its own
    k = max(k for k, line in enumerate(lines) if "|send|" in line and line.endswith(" to=3\n"))
    lines[k] = lines[k].replace(" to=3\n", " to=9\n")


def _recv_from_p9(exact):
    def mangle(lines):
        k = _first(lines, "recv")
        lines[k] = re.sub(" from=[0-9]+", " from=9", lines[k])
        if not exact:  # outside a FORWARD's exact form: a recv record
            lines[k] = lines[k].replace("\n", " x=1\n")
    return mangle


def _send_to_p4(lines):
    # one more line in a fan-out's run of send lines: a send entry of reach 4
    k = _first(lines, "send", " to=3")
    lines.insert(k + 1, lines[k].replace(" to=3", " to=4"))


def _bcast_by_p9(lines):
    k = _first(lines, "bcast")
    step, kind, _, body = lines[k].split("|", 3)
    lines[k] = f"{step}|{kind}|9|{body}"


def _write_to_register_3(lines):
    k = _first(lines, "op_invoke", "|op=write ")
    lines[k] = re.sub(" r=[0-9]+", " r=3", lines[k])


def _recv_renamed(lines):
    lines[:] = [line.replace("|recv|", "|recx|") for line in lines]


def _renamed_op(new):
    def mangle(lines):
        lines[:] = [line.replace("|op=snapshot ", f"|op={new} ") for line in lines]
    return mangle


def _register_reads_renamed(lines):
    # a register_ops trace whose reads are renamed to snapshots, in place of
    # the snapshot_ops trace: a register workload issues no snapshot
    text = run_scenario(ScenarioConfig(n=3, t=1, workload="register_ops", op_count=6,
                                       seed=3)).text
    assert "|op=read " in text
    lines[:] = [line.replace("|op=read ", "|op=snapshot ")
                for line in text.splitlines(keepends=True)]


def _untagged_write(lines):
    # no WRITE broadcast left to take the tag from, nor the return record
    lines[:] = [line for line in lines if line.split("|")[1] != "bcast"]
    k = _first(lines, "op_return", " ts=")
    lines[k] = re.sub(" ts=[^ \n]*", "", lines[k])


def _return_without(op, field):
    # the first return of an `op` loses a result field; the reads are taken
    # from a register_ops trace, as a snapshot workload issues none
    def mangle(lines):
        if op == "read":
            text = run_scenario(ScenarioConfig(n=3, t=1, workload="register_ops",
                                               op_count=6, seed=3)).text
            lines[:] = text.splitlines(keepends=True)
        k = _first(lines, "op_return", f"|op={op} ")
        lines[k], found = re.subn(f" {field}=[^ \n]*", "", lines[k])
        assert found == 1
    return mangle


@pytest.mark.parametrize("mangle,error,match", [
    (_drop_to, KeyError, "to"),
    (_bad_m, ValueError, "invalid literal"),
    (_bcast_by_p9, KeyError, "9"),
    (_write_to_register_3, ValueError, "register 3 outside 1..2"),
    (_untagged_write, KeyError, "ts"),
    pytest.param(_return_without("read", "ts"), KeyError, "'ts'", id="read-without-ts"),
    pytest.param(_return_without("read", "tsa"), KeyError, "'tsa'", id="read-without-tsa"),
    pytest.param(_return_without("read", "v"), KeyError, "'v'", id="read-without-v"),
    pytest.param(_return_without("snapshot", "tsa"), KeyError, "'tsa'",
                 id="snapshot-without-tsa"),
    pytest.param(_return_without("snapshot", "vals"), KeyError, "'vals'",
                 id="snapshot-without-vals"),
    (_recv_renamed, ValueError, "unknown record kind 'recx'"),
    # an unknown op kind would be replayed as a read; a bcast op would
    # leave the history
    (_renamed_op("frob"), ValueError, "snapshot_ops run has a 'frob' op"),
    (_renamed_op("bcast"), ValueError, "snapshot_ops run has a 'bcast' op"),
    (_send_to_p9, ValueError, "peer process '9' outside 1..3"),
    (_recv_from_p9(exact=True), ValueError, "peer process '9' outside 1..3"),
    (_recv_from_p9(exact=False), ValueError, "peer process '9' outside 1..3"),
    (_send_to_p4, ValueError, "peer process '4' outside 1..3"),
    # a snapshot workload issues no read, a register workload no snapshot
    (_renamed_op("read"), ValueError, "snapshot_ops run has a 'read' op"),
    (_register_reads_renamed, ValueError, "register_ops run has a 'snapshot' op"),
])
def test_load_run_rejects_malformed_record(mangle, error, match):
    res = run_scenario(ScenarioConfig(n=3, t=1, workload="snapshot_ops", op_count=6,
                                      nregs=2, seed=2))
    log = _tampered(res.text, mangle)
    with pytest.raises(error, match=match):
        load_run(log)


def _status_unknown(lines):
    lines[-1] = lines[-1].replace(" status=quiescent ", " status=unknown ")


@pytest.mark.parametrize("cut,match", [
    (lambda lines: lines.pop(), "no end record"),
    (_status_unknown, "unknown status 'unknown'"),
], ids=["no-end", "status-unknown"])
def test_load_run_rejects_a_trace_without_a_run_end(cut, match):
    text = run_scenario(ScenarioConfig(n=3, t=1, workload="snapshot_ops", op_count=6,
                                       seed=2)).text
    assert load_run(parse_trace(text)).status == "quiescent"
    log = _tampered(text, cut)
    with pytest.raises(ValueError, match=match):
        load_run(log)


# -- history checkers --------------------------------------------------------


def op(proc, seq, kind, invoke, ret, r=1, value=None, result=None):
    return OpRecord(
        proc=proc, seq=seq, kind=kind, r=r, value=value,
        result_values=result, invoke_idx=invoke, return_idx=ret,
    )


def test_bruteforce_accepts_overlapping_writes_and_late_read():
    h = History(
        ops=[
            op(1, 0, "write", 0, 4, value=b"a"),
            op(2, 0, "write", 1, 3, value=b"b"),
            op(3, 0, "read", 5, 6, result=(b"a",)),
        ],
        nregs=1,
    )
    assert check_linearizable_bruteforce(h).status == "pass"
    h.ops[2].result_values = (b"b",)
    assert check_linearizable_bruteforce(h).status == "pass"


def test_bruteforce_rejects_value_out_of_thin_air():
    h = History(
        ops=[
            op(1, 0, "write", 0, 1, value=b"a"),
            op(2, 0, "read", 2, 3, result=(b"ghost",)),
        ],
        nregs=1,
    )
    assert check_linearizable_bruteforce(h).status == "fail"


def test_bruteforce_rejects_stale_read_after_completed_write():
    h = History(
        ops=[
            op(1, 0, "write", 0, 1, value=b"a"),
            op(2, 0, "read", 2, 3, result=(b"",)),
        ],
        nregs=1,
    )
    assert check_linearizable_bruteforce(h).status == "fail"
    # sequential consistency only needs program order: this is allowed
    assert check_sequentially_consistent(h).status == "pass"


def test_bruteforce_branches_on_pending_write_of_crashed_process():
    pending = op(1, 0, "write", 0, None, value=b"a")
    saw_it = History(
        ops=[pending, op(2, 0, "read", 2, 3, result=(b"a",))],
        nregs=1,
    )
    missed_it = History(
        ops=[copy.copy(pending), op(2, 0, "read", 2, 3, result=(b"",))],
        nregs=1,
    )
    assert check_linearizable_bruteforce(saw_it).status == "pass"
    assert check_linearizable_bruteforce(missed_it).status == "pass"


def test_bruteforce_skips_oversized_history():
    ops = [op(1, k, "write", 2 * k, 2 * k + 1, value=b"x") for k in range(11)]
    h = History(ops=ops, nregs=1)
    v = check_linearizable_bruteforce(h)
    assert (v.status, v.detail) == ("skip", "11 ops exceed bound 10")


def test_sc_rejects_own_program_order_violation():
    h = History(
        ops=[
            op(1, 0, "write", 0, 1, value=b"a"),
            op(1, 1, "read", 2, 3, result=(b"",)),
        ],
        nregs=1,
    )
    assert check_sequentially_consistent(h).status == "fail"


def test_sc_rejects_two_readers_with_opposite_orders():
    h = History(
        ops=[
            op(1, 0, "write", 0, 1, value=b"a"),
            op(2, 0, "write", 2, 3, value=b"b"),
            op(3, 0, "read", 4, 5, result=(b"a",)),
            op(3, 1, "read", 6, 7, result=(b"b",)),
            op(4, 0, "read", 4, 5, result=(b"b",)),
            op(4, 1, "read", 6, 7, result=(b"a",)),
        ],
        nregs=1,
    )
    assert check_sequentially_consistent(h).status == "fail"


def real_time(a, b):
    return a.return_idx is not None and a.return_idx < b.invoke_idx


def program_order(a, b):
    return a.proc == b.proc and a.seq < b.seq


def replays(order, nregs):
    """Reference sequential semantics of the register/snapshot object."""
    regs = [INITIAL_VALUE] * nregs
    for o in order:
        if o.kind == "write":
            regs[o.r - 1] = o.value
        elif o.result_values != (tuple(regs) if o.kind == "snapshot" else (regs[0],)):
            return False
    return True


def extends(order, before):
    return not any(before(b, a) for x, a in enumerate(order) for b in order[x + 1:])


def oracle_legal(h, before):
    """Brute force: every complete op plus some subset of the pending writes,
    in some permutation that extends `before` and replays legally."""
    complete = [o for o in h.ops if o.return_idx is not None]
    pending = [o for o in h.ops if o.return_idx is None and o.kind == "write"]
    return any(
        extends(perm, before) and replays(perm, h.nregs)
        for k in range(len(pending) + 1)
        for extra in itertools.combinations(pending, k)
        for perm in itertools.permutations(complete + list(extra))
    )


@st.composite
def small_histories(draw):
    """Up to 7 ops over up to 3 processes, their invocations and returns
    interleaved at random; a crashed process's last op never returns."""
    nregs = draw(st.sampled_from([1, 2]))
    counts = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)
                  .filter(lambda c: 0 < sum(c) <= 7))
    procs = [p for p in range(1, len(counts) + 1) if counts[p - 1]]
    faulty = {p for p in procs if draw(st.booleans())}
    moves = {p: 2 * counts[p - 1] - (p in faulty) for p in procs}
    values = st.sampled_from([INITIAL_VALUE, b"a", b"b"])
    ops, open_ops, clock = [], {}, 0
    while any(moves.values()):
        p = draw(st.sampled_from([q for q in procs if moves[q]]))
        moves[p] -= 1
        if p in open_ops:
            open_ops.pop(p).return_idx = clock
        else:
            kind = draw(st.sampled_from(["write", "snapshot" if nregs > 1 else "read"]))
            o = op(p, sum(x.proc == p for x in ops), kind, clock, None)
            if kind == "write":
                o.r, o.value = draw(st.integers(1, nregs)), draw(values)
            else:
                width = nregs if kind == "snapshot" else 1
                o.result_values = tuple(draw(values) for _ in range(width))
            open_ops[p] = o
            ops.append(o)
        clock += 1
    return History(ops=ops, nregs=nregs)


@settings(max_examples=300, deadline=None)
@given(small_histories())
def test_search_agrees_with_permutation_oracle(h):
    for check, before in ((check_linearizable_bruteforce, real_time),
                          (check_sequentially_consistent, program_order)):
        v = check(h)
        assert v.status == ("pass" if oracle_legal(h, before) else "fail"), v.line()
        if v.status == "pass" and v.detail != "empty history":
            # the reported order is itself a witness
            by_label = {o.label: o for o in h.ops}
            order = [by_label[x] for x in v.detail.removeprefix("order ").split("<")]
            assert extends(order, before) and replays(order, h.nregs), v.line()
            assert all(o in order for o in h.ops if o.return_idx is not None)


@settings(max_examples=300, deadline=None)
@given(small_histories(), st.data())
def test_misorder_accepts_exactly_the_linearizations(h, data):
    """The witness's validator against the reference oracles, on a drawn
    order of the complete ops and some of the pending writes."""
    ops = [o for o in h.ops
           if o.return_idx is not None or (o.kind == "write" and data.draw(st.booleans()))]
    order = data.draw(st.permutations(ops))
    why = _misorder(order, h.nregs)
    assert (why == "") == (extends(order, real_time) and replays(order, h.nregs)), why


# -- witness checker ---------------------------------------------------------


def object_run(seed, workload="register_ops", n=3, ops=8, nregs=1, crash="none"):
    cfg = ScenarioConfig(n=n, t=(n - 1) // 2, workload=workload, op_count=ops,
                         nregs=nregs, crash=crash, seed=seed)
    return load_run(run_scenario(cfg).events)


def test_witness_passes_live_histories():
    for seed in range(6):
        run = object_run(seed, nregs=1)
        h = extract_history(run)
        assert check_linearizable_witness(h, timestamp_metadata(run)).status == "pass"


def test_witness_flags_corrupted_read():
    run = object_run(3)
    h = extract_history(run)
    meta = timestamp_metadata(run)
    bad = copy.deepcopy(h)
    victim = next(o for o in bad.ops if o.kind == "read" and o.return_idx is not None)
    victim.result_values = (b"never-written",)
    assert check_linearizable_witness(bad, meta).status == "fail"
    assert check_linearizable_witness(h, meta).status == "pass"


def test_witness_flags_unknown_tag_array():
    run = object_run(4, workload="snapshot_ops", nregs=2)
    h = extract_history(run)
    meta = timestamp_metadata(run)
    bad = copy.deepcopy(h)
    victim = next(o for o in bad.ops if o.kind == "snapshot" and o.return_idx is not None)
    victim.tsa = tuple(reversed(victim.tsa)) if len(set(victim.tsa)) > 1 else None
    if victim.tsa is None:  # degenerate draw; corrupt a value instead
        victim.result_values = (b"zz",) * len(victim.result_values)
    assert check_linearizable_witness(bad, meta).status == "fail"


def test_witness_fails_a_write_without_sync_round(monkeypatch):
    """With the SYNC round skipped, p1#2 takes tag 4:1 after p3#2 returned
    with 4:3, and p1#3 then reads p3#2's value: no linearization exists, but
    sorting the tag group by tag alone puts p1#2 first and replays legally."""
    monkeypatch.setattr(SnapshotObject, "begin_write", write_without_sync)
    run = object_run(12, ops=10)
    h = extract_history(run)
    assert check_linearizable_bruteforce(h).status == "fail"
    w = check_linearizable_witness(h, timestamp_metadata(run))
    assert w.status == "fail", w.line()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_witness_agrees_with_bruteforce_on_small_histories(seed):
    rng = random.Random(seed)
    run = object_run(
        rng.randint(0, 10**6),
        workload=rng.choice(["register_ops", "snapshot_ops"]),
        ops=rng.randint(2, 8),
        nregs=rng.choice([1, 2]),
        crash=rng.choice(["none", "random:1"]),
    )
    if run.status != "quiescent":
        return
    h = extract_history(run)
    w = check_linearizable_witness(h, timestamp_metadata(run))
    b = check_linearizable_bruteforce(h)
    if b.status != "skip":
        assert w.status == b.status, (w.line(), b.line())
    assert w.status == "pass"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_chain_check_matches_pairwise_comparison(data):
    """timestamp_metadata against the per-set install rule and an all-pairs
    comparability test, on fabricated logs whose arrays may not form a chain."""
    draw = data.draw
    cfg = ScenarioConfig(n=3, t=1, workload="snapshot_ops", op_count=0, nregs=2)
    run = RunData(cfg, [], "quiescent")
    ids = [MsgId(p, k) for p in (1, 2, 3) for k in range(3)]
    run.writes = {m: WritePayload(draw(st.integers(1, 2)), b"",
                                  Timestamp(draw(st.integers(1, 4)), m.sender))
                  for m in ids}
    subsets = st.frozensets(st.sampled_from(ids), max_size=3)
    run.logs = {i: draw(st.lists(subsets, max_size=4)) for i in (1, 2, 3)}
    arrays = set()
    for sets in run.logs.values():
        tsa = [INITIAL_TS, INITIAL_TS]
        for s in sets:
            for r in (1, 2):
                tags = [run.writes[m].ts for m in s if run.writes[m].r == r]
                best = max(tags, default=None)
                if best is not None and tsa[r - 1] < best:
                    tsa[r - 1] = best
            arrays.add(tuple(tsa))
    chain_ok = all(all(map(le, a, b)) or all(map(le, b, a))
                   for a, b in itertools.combinations(arrays, 2))
    meta = timestamp_metadata(run)
    assert (meta.error == "") == chain_ok, meta.error
    if chain_ok:
        assert set(meta.chain) == arrays and len(meta.chain) == len(arrays)
        assert all(a != b and all(map(le, a, b)) for a, b in zip(meta.chain, meta.chain[1:]))
        assert all(meta.rank[a] == k for k, a in enumerate(meta.chain))
    else:
        assert meta.error.startswith("incomparable arrays ")


# -- write rank against the loop it replaced ----------------------------------


def _tag(ts):
    return (ts.date, ts.proc)


def old_write_rank(op, chain):
    """Reference: hand-written binary search for the first array whose entry
    for op's register is at least op's tag."""
    lo, hi = 0, len(chain)
    while lo < hi:
        mid = (lo + hi) // 2
        entry = chain[mid][op.r - 1]
        if entry == op.ts or _tag(op.ts) < _tag(entry):
            hi = mid
        else:
            lo = mid + 1
    return lo if lo < len(chain) else None


small_tags = st.builds(Timestamp, st.integers(1, 3), st.integers(1, 3))


@st.composite
def ascending_chains(draw):
    """A chain of timestamp arrays, each pointwise above the one before."""
    chain = [(INITIAL_TS,) * draw(st.integers(1, 3))]
    for _ in range(draw(st.integers(0, 8))):
        arr = tuple(max(t, draw(small_tags)) for t in chain[-1])
        if arr != chain[-1]:
            chain.append(arr)
    return chain


@settings(max_examples=500, deadline=None)
@given(ascending_chains(), st.data())
def test_write_rank_matches_binary_search_reference(chain, data):
    w = op(1, 0, "write", 0, 1, r=data.draw(st.integers(1, len(chain[0]))))
    w.ts = data.draw(st.sampled_from([a[w.r - 1] for a in chain]) | small_tags)
    assert _write_rank(w, chain) == old_write_rank(w, chain)


def test_evaluate_run_covers_workload_specific_checks():
    run = object_run(2, workload="register_ops")
    props = [v.prop for v in evaluate_run(run)]
    assert "linearizable_witness" in props and "ms_ordering" in props
    run = object_run(2, workload="sc_register_ops")
    props = [v.prop for v in evaluate_run(run)]
    assert "sequentially_consistent" in props
    assert "linearizable_witness" not in props
