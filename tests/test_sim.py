"""Deterministic simulator: scheduling, crashes, tracing."""
from __future__ import annotations

import gc
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st
from test_acceptance import _bcasts_per_op
from test_check import channel_list_fifo, channels_of
from test_scd_mp import AlwaysPurgeProcess

from scdkit import sim
from scdkit.core import MsgId, UsageError, format_id_set
from scdkit.check import OBJECT_WORKLOADS, RunData, check_fifo, evaluate_run, load_run
from scdkit.cli import evaluate, main
from scdkit.scd_mp import ScdProcess
from scdkit.sim import (
    MP_WORKLOADS,
    RW_WORKLOADS,
    WORKLOADS,
    ScenarioConfig,
    Simulator,
    TraceEvent,
    TraceLog,
    TraceParseError,
    _CrashCut,
    _estimated_steps,
    parse_crash_schedule,
    parse_delay_policy,
    parse_trace,
    render_trace,
    run_scenario,
)


def config(**kw):
    base = dict(n=3, t=1, workload="raw_broadcast", op_count=4, seed=0)
    base.update(kw)
    return ScenarioConfig(**base)


def lines(text: str) -> list:
    """A trace's lines, ends kept: equal lists mean equal texts, and pytest
    explains a mismatch by its first differing line, where its diff of two
    long texts can take minutes."""
    return text.splitlines(keepends=True)


def test_same_config_gives_byte_identical_trace():
    a = run_scenario(config(seed=42))
    b = run_scenario(config(seed=42))
    assert lines(a.text) == lines(b.text)


def test_different_seeds_give_different_schedules():
    a = run_scenario(config(seed=1))
    b = run_scenario(config(seed=2))
    assert a.text != b.text


def test_trace_roundtrips_through_parser():
    res = run_scenario(config(workload="register_ops", op_count=6, crash="random:1"))
    events = parse_trace(res.text)
    assert lines(render_trace(events)) == lines(res.text)
    records = list(events)
    assert records[0].kind == "config" and records[-1].kind == "end"


def test_trace_cut_mid_record_fails_to_parse():
    text = run_scenario(config(workload="register_ops", op_count=4, seed=1)).text
    assert not text[:300].endswith("\n")
    with pytest.raises(TraceParseError, match="ends mid-record"):
        parse_trace(text[:300])
    # a cut at a record boundary is a shorter, well-formed trace
    head = text[: text.index("\n", 300) + 1]
    assert render_trace(parse_trace(head)) == head


def test_config_survives_trace_embedding():
    cfg = config(workload="snapshot_ops", nregs=3, crash="random:1", delay="fifo", seed=9)
    res = run_scenario(cfg)
    run = load_run(parse_trace(res.text))
    assert run.config == cfg


def test_failure_free_run_uses_exactly_n_squared_sends_per_broadcast():
    for n in (3, 5):
        cfg = config(n=n, t=(n - 1) // 2, op_count=2 * n, seed=5)
        res = run_scenario(cfg)
        assert res.status == "quiescent"
        counts = load_run(res.events).sends
        assert len(counts) == 2 * n
        assert set(counts.values()) == {n * n}


def test_crashed_process_goes_silent():
    res = run_scenario(config(op_count=6, crash="explicit:2@10", seed=3))
    seen_crash = False
    for ev in res.events:
        if ev.kind == "crash":
            assert ev.proc == 2
            seen_crash = True
        elif seen_crash:
            assert ev.proc != 2
    assert seen_crash


def test_interrupting_crash_truncates_sends():
    """keep=k lets exactly k point-to-point sends of the victim's final
    activity escape."""
    for keep in (0, 1, 2):
        res = run_scenario(
            config(op_count=4, crash=f"explicit:1@0:{keep}", seed=0)
        )
        first = [ev for ev in res.events if ev.kind == "send" and ev.proc == 1]
        assert len(first) == keep


def test_crash_schedule_parsing():
    assert parse_crash_schedule("none", 3) == []
    assert parse_crash_schedule("random:1", 3) == ("random", 1)
    assert parse_crash_schedule("explicit:2@7,1@3:4", 3) == [
        (3, 1, 4),
        (7, 2, None),
    ]
    with pytest.raises(UsageError):
        parse_crash_schedule("explicit:1@1,1@2", 3)  # duplicate victim
    with pytest.raises(UsageError):
        parse_crash_schedule("explicit:1@1,2@2,3@3", 3)  # nobody left
    with pytest.raises(UsageError):
        parse_crash_schedule("random:3", 3)
    with pytest.raises(UsageError):
        parse_crash_schedule("sometimes", 3)
    with pytest.raises(UsageError, match="negative"):
        parse_crash_schedule("explicit:1@5:-2,2@-3", 3)


def test_delay_policy_parsing():
    assert parse_delay_policy("uniform", 3) == ("uniform", frozenset())
    assert parse_delay_policy("slow:1,3", 3) == ("slow", frozenset({1, 3}))
    with pytest.raises(UsageError):
        parse_delay_policy("slow:9", 3)
    with pytest.raises(UsageError):
        parse_delay_policy("bursty", 3)


def test_all_delay_policies_reach_quiescence():
    for delay in ("uniform", "fifo", "slow:1", "slow:2,3"):
        res = run_scenario(config(op_count=5, delay=delay, seed=4))
        assert res.status == "quiescent", delay


def test_step_budget_cuts_run_short():
    res = run_scenario(config(op_count=6, step_budget=10))
    assert res.status == "budget"
    assert res.steps == 10
    assert list(res.events)[-1].payload["status"] == "budget"


def test_majority_crash_stalls_survivors():
    cfg = config(op_count=4, crash="explicit:1@0,2@1", step_budget=5000)
    res = run_scenario(cfg)
    assert res.status == "stalled"
    assert cfg.expected_nonterminating()
    run = load_run(res.events)
    assert run.completed[3] == set()  # survivor's broadcast never completes


def test_minority_crash_still_terminates():
    cfg = config(op_count=4, crash="explicit:1@0", step_budget=50000)
    assert not cfg.expected_nonterminating()
    res = run_scenario(cfg)
    assert res.status == "quiescent"


def test_rw_workload_runs_both_memory_modes():
    for mem in ("atomic", "sc"):
        cfg = config(workload="rw_equivalence", op_count=4, mem=mem)
        res = run_scenario(cfg)
        assert res.status == "quiescent"
        run = load_run(res.events)
        union = None
        for i, sets in run.logs.items():
            got = set().union(*sets)
            assert union is None or got == union
            union = got
        assert len(union) == 4


def test_rw_run_shares_each_delivered_set():
    """A simulated rw_equivalence run holds one frozenset, and one
    scd_deliver text, per distinct delivered set, as a message-passing run
    does: equal sets in its logs are one object, and so are their texts."""
    for mem in ("atomic", "sc"):
        res = run_scenario(config(workload="rw_equivalence", op_count=6, mem=mem))
        logs = {i: iter(sets) for i, sets in res.logs.items()}
        sets, texts = {}, {}
        for _, kind, proc, payload, _ in res.events.entries():
            if kind == "scd_deliver":
                ids, text = next(logs[proc]), payload[1]
                assert text == format_id_set(ids)
                assert sets.setdefault(ids, ids) is ids, mem
                assert texts.setdefault(text, text) is text, mem
        assert sum(map(len, res.logs.values())) > len(sets)  # some set delivered twice
        assert all(next(it, None) is None for it in logs.values())


def test_object_workloads_return_every_operation():
    for wl in ("snapshot_ops", "register_ops", "swmr_register_ops",
               "sc_register_ops", "sc_snapshot_ops"):
        cfg = config(workload=wl, op_count=7, nregs=2, writer=2, seed=6)
        res = run_scenario(cfg)
        assert res.status == "quiescent", wl
        invokes = sum(ev.kind == "op_invoke" for ev in res.events)
        returns = sum(ev.kind == "op_return" for ev in res.events)
        assert invokes == returns == 7, wl


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_trace_parse_is_total_on_generated_traces(seed):
    cfg = config(
        workload="register_ops",
        op_count=5,
        crash="random:1" if seed % 2 else "none",
        seed=seed,
    )
    res = run_scenario(cfg)
    events = parse_trace(res.text)
    assert len(events) == len(res.events)


def test_simulator_rejects_invalid_config():
    with pytest.raises(UsageError):
        Simulator(config(n=0))
    with pytest.raises(UsageError):
        Simulator(config(workload="nope"))
    with pytest.raises(UsageError):
        Simulator(config(mem="weird"))


class RescanningSimulator(Simulator):
    """The scheduler as first written: every step lists the deliverable
    channels in sender-major order, then the invocations, and picks from that
    list.  The differential test below holds Simulator to its traces."""

    def enabled_events(self):
        n = self.config.n
        evs = []
        for s in range(1, n + 1):
            for d in range(1, n + 1):
                if self.channels[(s - 1) * n + d - 1] and d not in self.data.faulty:
                    evs.append(("deliver", s, d))
        for i in range(1, n + 1):
            if i not in self.data.faulty and self.can_invoke(i):
                evs.append(("invoke", i))
        return evs

    def schedule_next(self, events):
        if self.policy == "fifo":
            return min(events, key=self._fifo_key)
        if self.policy == "slow":
            fast = [e for e in events if e[-1] not in self.slow_set]
            if fast and self.sched_rng.random() < 0.9375:
                return fast[self.sched_rng.randrange(len(fast))]
        return events[self.sched_rng.randrange(len(events))]

    def _fifo_key(self, ev):
        if ev[0] == "deliver":
            q = self.channels[(ev[1] - 1) * self.config.n + ev[2] - 1]
            return (0, q[0][0], 0)
        prio = {"mem": 0, "apply": 1, "invoke": 2, "tick": 3}[ev[0]]
        return (1, prio, ev[-1])


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1])
def test_uniform_pick_draws_as_randrange(seed):
    """schedule_next draws a uniform index with random.Random's own loop
    (_randbelow_with_getrandbits), written inline: the draws, and so the
    seed->trace mapping, are randrange's on the Python that runs this."""
    s = Simulator(config(seed=seed))
    s.sched_rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(2):
        for n in range(1, 301):
            assert s.schedule_next(list(range(n))) == ref.randrange(n), n


def mp_config(workload: str, rng: random.Random) -> ScenarioConfig:
    """A config of one message-passing workload: n up to 9, random or explicit
    crashes (explicit ones with keep cuts, up to n - 1 of them), and every
    delay policy, the slow set naming a crashed process when there is one."""
    n = rng.randint(2, 9)
    crash, victims = "none", []
    kind = rng.choice(["none", "random", "explicit"])
    if kind == "random":
        crash = f"random:{rng.randint(0, n - 1)}"
    elif kind == "explicit":
        victims = rng.sample(range(1, n + 1), rng.randint(1, n - 1))
        crash = "explicit:" + ",".join(
            f"{p}@{rng.randrange(4 * n * n)}" + rng.choice(["", f":{rng.randint(0, n)}"])
            for p in victims)
    delay = rng.choice(["uniform", "fifo", "slow"])
    if delay == "slow":
        slow = set(rng.sample(range(1, n + 1), rng.randint(1, n))) | set(victims[:1])
        delay = "slow:" + ",".join(map(str, sorted(slow)))
    cfg = ScenarioConfig(
        n=n, t=(n - 1) // 2, workload=workload, op_count=rng.randint(1, 2 * n),
        crash=crash, delay=delay, seed=rng.randrange(2**31),
        nregs=rng.randint(1, 3), writer=rng.randint(1, n))
    # a fault that keeps some event enabled forever then fails in seconds;
    # no run of 1800 draws took half the estimate
    cfg.step_budget = 4 * _estimated_steps(cfg)
    return cfg


@pytest.mark.parametrize("workload", MP_WORKLOADS)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**30))
def test_scheduler_matches_rescanning_scheduler(workload, seed):
    cfg = mp_config(workload, random.Random(seed))
    expected = render_trace(RescanningSimulator(cfg).run().events).splitlines()
    res = Simulator(cfg).run()
    # lists of lines: pytest explains a mismatch by its first differing
    # line, where a whole-text diff of two traces can take minutes
    assert render_trace(res.events).splitlines() == expected
    assert res.status != "budget"


class RescanCheckedSimulator(Simulator):
    """Holds Simulator.enabled, kept sorted in place, to RescanningSimulator's
    rescan of the same state after every step, crash steps included; and the
    policy's index into it to the picks it replaced: under slow the fast list
    to a filtered copy of the rescan, under fifo the pick to the minimum over
    the rescan's channel heads (that pick draws nothing)."""

    rescan = RescanningSimulator.enabled_events
    rescan_pick = RescanningSimulator.schedule_next
    _fifo_key = RescanningSimulator._fifo_key

    def __init__(self, config):
        super().__init__(config)
        self.checked = 0
        self._check()

    def _check(self):
        events = self.rescan()
        assert self.enabled == events, self.step
        if self.policy == "slow":
            assert self._fast == [e for e in events if e[-1] not in self.slow_set], self.step
        if self.policy == "fifo" and events:
            assert self.schedule_next(self.enabled) == self.rescan_pick(events), self.step
        self.checked += 1

    def execute(self, ev):
        super().execute(ev)  # an interrupting crash's cut leaves by _CrashCut
        self._check()

    def execute_crash(self, proc, keep):
        super().execute_crash(proc, keep)
        self._check()


@pytest.mark.parametrize("workload", MP_WORKLOADS)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**30))
def test_enabled_list_matches_rescan_at_every_step(workload, seed):
    sim = RescanCheckedSimulator(mp_config(workload, random.Random(seed)))
    res = sim.run()
    # one check per step and at the start, plus one per uncut victim event
    assert sim.checked >= res.steps + 1


class VictimOrderSimulator(RescanCheckedSimulator):
    """Counts the victim deliveries that take a message other than the
    oldest one in flight, which leave the fifo send-order queue with a
    gone entry behind a live one."""

    out_of_order = 0

    def execute_crash(self, proc, keep):
        ev = self._victim_event(proc) if keep is not None else None
        if ev is not None and ev[0] == "deliver":
            self.out_of_order += ev != self.rescan_pick(self.rescan())
        super().execute_crash(proc, keep)


@pytest.mark.parametrize("workload", ["raw_broadcast", "register_ops"])
def test_fifo_pick_skips_messages_gone_out_of_send_order(workload):
    """Keep-cut crashes whose victim deliveries are not the oldest message
    in flight, and whose cleared channels drop queued sends: the fifo pick
    still takes the oldest message left, step for step as the rescan's."""
    out_of_order = 0
    for n, crash in [(3, "explicit:2@6:1"), (4, "explicit:2@9:2,3@30:0"),
                     (5, "explicit:1@12:3,4@25:1"), (5, "explicit:3@7:0,5@40:4")]:
        for seed in range(3):
            cfg = config(n=n, t=(n - 1) // 2, workload=workload, op_count=2 * n,
                         crash=crash, delay="fifo", seed=seed)
            sim = VictimOrderSimulator(cfg)
            res = sim.run()
            out_of_order += sim.out_of_order
            expected = render_trace(RescanningSimulator(cfg).run().events).splitlines()
            assert render_trace(res.events).splitlines() == expected, cfg
    assert out_of_order


class AlwaysPurgeSimulator(Simulator):
    """Every process runs the ungated try_deliver (AlwaysPurgeProcess).  The
    differential test below holds Simulator, whose processes purge only when
    a receipt can deliver, to its traces."""

    def __init__(self, config):
        super().__init__(config)
        self.scd = [None, *(AlwaysPurgeProcess(i, config.n) for i in range(1, config.n + 1))]


@pytest.mark.parametrize("workload", MP_WORKLOADS)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**30))
def test_gated_delivery_matches_always_purge(workload, seed):
    rng = random.Random(seed)
    # at n = 1 a broadcast's own entry is its majority
    alone = config(n=1, t=0, workload=workload, op_count=rng.randint(1, 6),
                   delay=rng.choice(["uniform", "fifo", "slow:1"]), seed=seed)
    for cfg in (mp_config(workload, rng), alone):
        expected = render_trace(AlwaysPurgeSimulator(cfg).run().events).splitlines()
        assert render_trace(Simulator(cfg).run().events).splitlines() == expected


@pytest.mark.parametrize("workload", MP_WORKLOADS)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**30))
def test_forward_never_sees_a_delivered_message(workload, seed):
    """ScdProcess.forward keeps no stale-copy check of its own: every call,
    from a receipt or from scbroadcast, names a message that its process has
    not delivered yet."""
    real = ScdProcess.forward

    def checked(self, m, sd, sn_sd, f, sn_f):
        assert sn_sd > self.clock[sd], (self.pid, sd, sn_sd, self.clock[sd])
        return real(self, m, sd, sn_sd, f, sn_f)

    rng = random.Random(seed)
    alone = config(n=1, t=0, workload=workload, op_count=rng.randint(1, 6),
                   delay=rng.choice(["uniform", "fifo", "slow:1"]), seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ScdProcess, "forward", checked)
        for cfg in (mp_config(workload, rng), alone):
            Simulator(cfg).run()


class PerProcessStallSimulator(Simulator):
    """Where a run finds nothing enabled, records the per-process stall rule
    that Simulator.pending_work's RunData rule replaced: some live process
    has an open operation or a pending broadcast (message passing), or an
    open frame (shared memory)."""

    per_process = None  # None: the run never found nothing enabled

    def pending_work(self):
        live = [i for i in range(1, self.config.n + 1) if i not in self.data.faulty]
        if self.world is None:
            self.per_process = any(
                self.cur[i] is not None or self.scd[i].pending_broadcast is not None
                for i in live)
        else:
            self.per_process = any(self.world.procs[i].frame is not None for i in live)
        return super().pending_work()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_stall_rule_matches_per_process_rule(workload):
    """A run that ends with nothing enabled is stalled exactly when the
    per-process rule holds, over configs with up to n - 1 crashes, so
    majority crashes too, and both memory modes."""
    rng = random.Random(f"stall:{workload}")
    stalled = 0
    for _ in range(300):
        cfg = mp_config(workload, rng)
        if workload in RW_WORKLOADS:
            cfg.mem = rng.choice(sim.MEM_MODES)
        simulator = PerProcessStallSimulator(cfg)
        res = simulator.run()
        assert simulator.per_process is not None and res.status != "budget", cfg
        assert (res.status == "stalled") == simulator.per_process, cfg
        stalled += res.status == "stalled"
    # a shared-memory run never stalls: any number of processes may crash
    assert (stalled > 0) == (workload in MP_WORKLOADS), stalled


def _fields(fmsg):
    return ("m", str(fmsg.m.id), "sd", str(fmsg.sd), "sn", str(fmsg.sn_sd),
            "f", str(fmsg.f), "snf", str(fmsg.sn_f))


class PerCopyRecordSimulator(Simulator):
    """Trace records as first written: every send and recv record formats
    the FORWARD's fields itself.  The differential test below holds
    Simulator, which formats them once per FORWARD and writes one log entry
    per fan-out and per delivery, to its records and their lines.  Sends
    queue on the simulator's channels, send-order queue and enable helper;
    a delivery runs the simulator's own, whose recv entry is then replaced
    by the entry of the record formatted here."""

    def fifo_broadcast(self, src, fmsg):
        n = self.config.n
        for dst in range(1, n + 1):
            if self._cut is not None:
                if self._cut <= 0:
                    raise _CrashCut()
                self._cut -= 1
            self._send_seq += 1
            self.trace("send", src, "to", str(dst), *_fields(fmsg))
            if dst not in self.data.faulty:
                idx = (src - 1) * n + dst - 1
                q = self.channels[idx]
                q.append((self._send_seq, fmsg, None))
                if len(q) == 1:
                    self._enable(self._deliveries[idx])
                if self._order is not None:
                    self._order.append((self._send_seq, idx))

    def execute(self, ev):
        if ev[0] != "deliver":
            return super().execute(ev)
        _, s, d = ev
        fmsg = self.channels[(s - 1) * self.config.n + d - 1][0][1]
        rows = self.log.rows
        k = len(rows)  # the recv entry's delta, at rows[k]
        try:
            super().execute(ev)  # a keep cut leaves by _CrashCut
        finally:
            rows[k + 3:k + 5] = (("from", str(s), *_fields(fmsg)), None)


# (n, crash): crash-free (at n = 1 too), random:K, and explicit crashes whose
# keep cuts interrupt the victim's fifo-broadcast
_RECORD_CRASHES = [(1, "none"), (3, "none"), (5, "random:2"), (5, "explicit:2@9:1,4@40:3"),
                   (4, "explicit:1@0:2")]


@pytest.mark.parametrize("workload", MP_WORKLOADS)
def test_records_match_per_copy_records(workload):
    """The records built from Simulator's log equal the per-copy records,
    and render_trace writes the same lines from the log's entries as from
    those records."""
    cut = False
    for delay in ("uniform", "fifo", "slow:1"):
        for n, crash in _RECORD_CRASHES:
            for seed in range(3):
                cfg = config(n=n, t=(n - 1) // 2, workload=workload, op_count=2 * n,
                             crash=crash, delay=delay, seed=seed, nregs=2, writer=min(n, 2))
                log = Simulator(cfg).run().events
                per_copy = PerCopyRecordSimulator(cfg).run().events
                assert list(log) == list(per_copy), cfg
                assert len(log) == len(per_copy), cfg
                assert lines(render_trace(log)) == lines(render_trace(TraceLog.of(log))), cfg
                # a send entry stands for its records to p1..p{reach}
                cut |= any(e[1] == "send" and e[4] is not None and e[4] < n
                           for e in log.entries())
    assert cut  # some keep cut truncated a fifo-broadcast


def _raise(*args):
    raise AssertionError("a judged path built the trace records")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_judged_commands_build_no_records(workload, monkeypatch, capsys, tmp_path):
    """scdkit run, fuzz and stats judge the RunData, and scdkit check the
    parsed log: none of them builds the records of a log, whose send and
    recv entries are the bulk of a run.  The run commands store a crash-free
    and a crashed trace for check to judge."""
    n = "3" if workload in RW_WORKLOADS else "5"
    shape = ["--n", n, "--workload", workload, "--ops", "6", "--nregs", "2"]
    stored = [["run", *shape, "--seed", "4", "--trace-dir", str(tmp_path)],
              ["run", *shape, "--crash", "explicit:1@7:2", "--seed", "3",
               "--trace-dir", str(tmp_path)]]
    commands = [*stored,
                ["check", *(str(tmp_path / f"{workload}_n{n}_s{seed}.trace")
                            for seed in (4, 3))],
                ["fuzz", *shape, "--crash", "random:1", "--seeds", "8", "--delay", "slow:1"],
                ["stats", *shape, "--crash", "explicit:1@7:2", "--seed", "3"]]
    expected = []
    for argv in commands:
        expected.append((main(argv), capsys.readouterr().out))
    monkeypatch.setattr(sim, "_records_of", _raise)
    # an rw_equivalence log holds no send or recv entry: reading it record
    # by record would call no _records_of
    monkeypatch.setattr(sim.TraceLog, "__iter__", _raise)
    for argv, want in zip(commands, expected):
        assert (main(argv), capsys.readouterr().out) == want, argv


def _workload_config(workload):
    return config(n=4, workload=workload, op_count=8, crash="random:1", nregs=2,
                  writer=2, seed=11)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_rendered_trace_parses_back_to_the_events(workload):
    events = run_scenario(_workload_config(workload)).events
    assert list(parse_trace(render_trace(events))) == list(events)


def _rundata_configs(workload):
    """30 configs of one workload: n 2-6, no, random or explicit crashes
    (explicit ones cut the victim's handler half the time), the uniform, fifo
    and slow:1 policies, and both memory modes."""
    rng = random.Random(f"rundata:{workload}")
    for k in range(30):
        n = rng.randint(2, 6)
        crash = "none"
        if k % 3 == 1:
            crash = f"random:{rng.randint(1, n - 1)}"
        elif k % 3 == 2:
            victims = rng.sample(range(1, n + 1), rng.randint(1, n - 1))
            crash = "explicit:" + ",".join(
                f"{p}@{rng.randrange(4 * n * n)}" + rng.choice(["", f":{rng.randint(0, n)}"])
                for p in victims)
        yield config(n=n, t=(n - 1) // 2, workload=workload, op_count=rng.randint(1, 2 * n),
                     crash=crash, delay=("uniform", "fifo", "slow:1")[k // 3 % 3],
                     mem=("atomic", "sc")[k % 2], nregs=rng.randint(1, 3),
                     writer=rng.randint(1, n), seed=rng.randrange(2**31))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_live_and_parsed_events_load_alike(workload):
    """The RunData a run fills as it goes equals what load_run reads back
    from its records, in memory and after a render/parse round trip; the
    parsed trace is the simulator's own log, entry for entry."""
    for cfg in _rundata_configs(workload):
        res = run_scenario(cfg)
        parsed = parse_trace(res.text)
        assert parsed.rows == res.events.rows, cfg
        from_events, from_text = load_run(res.events), load_run(parsed)
        for f in fields(RunData):
            live = _field(res, f.name)
            assert live == _field(from_events, f.name), (cfg, f.name)
            assert live == _field(from_text, f.name), (cfg, f.name)


def _field(run, name):
    """A RunData field, its log compared by rows."""
    return run.events.rows if name == "events" else getattr(run, name)


@pytest.mark.parametrize("workload", OBJECT_WORKLOADS)
def test_op_indices_name_their_records(workload):
    """An op's invoke_idx and return_idx, counted as the run goes, index its
    own op_invoke and op_return records, crashed runs included."""
    left_open = 0
    for cfg in _rundata_configs(workload):
        res = run_scenario(cfg)
        records = list(res.events)
        for op in res.ops:
            ev = records[op.invoke_idx]
            assert (ev.kind, ev.proc, ev.payload["seq"]) == ("op_invoke", op.proc, str(op.seq))
            if op.return_idx is None:
                left_open += 1
                assert res.status != "quiescent" or op.proc in res.faulty, cfg
                continue
            ev = records[op.return_idx]
            assert (ev.kind, ev.proc, ev.payload["seq"]) == ("op_return", op.proc, str(op.seq))
    assert left_open  # some crashed or stalled run left an op open


# each object workload's row, pinned by behaviour: (the op that reads the
# object, the broadcasts a completed read and a completed write cost, whether
# only the writer writes)
OBJECT_ROWS = {
    "snapshot_ops": ("snapshot", 1, 2, False),
    "register_ops": ("read", 1, 2, False),
    "swmr_register_ops": ("read", 1, 2, True),
    "sc_register_ops": ("read", 0, 1, False),
    "sc_snapshot_ops": ("snapshot", 0, 1, False),
}


@pytest.mark.parametrize("workload", OBJECT_WORKLOADS)
def test_object_workloads_behave_as_their_rows(workload):
    """At n = 3 over fixed seeds, every planned op is the workload's read op
    or a write (to a slot of the object), a single-writer workload plans
    writes for its writer alone, and each completed op costs the broadcasts
    of its row: a read or snapshot 1 and a write 2 where the object runs
    SYNC rounds, 0 and 1 where it does not."""
    assert set(OBJECT_ROWS) == set(OBJECT_WORKLOADS)
    read, read_cost, write_cost, single_writer = OBJECT_ROWS[workload]
    cost = {read: read_cost, "write": write_cost}
    planned, writers = set(), set()
    for seed in range(12):
        cfg = config(workload=workload, op_count=9, nregs=2, writer=2, seed=seed)
        s = Simulator(cfg)
        for i, script in s.scripts.items():
            for op in script:
                assert op[0] in cost, (seed, op)
                if op[0] == "write":
                    assert 1 <= op[1] <= cfg.slots, (seed, op)
                    writers.add(i)
                planned.add(op[0])
        run = s.run()
        assert run.status == "quiescent"
        done = _bcasts_per_op(run.events)
        assert len(done) == 9
        for (proc, seq), (kind, bcasts) in done.items():
            assert bcasts == cost[kind], (seed, proc, seq, kind)
    assert planned == set(cost)
    assert writers == ({2} if single_writer else {1, 2, 3})


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_judged_run_frees_by_reference_counting(workload):
    """No reference cycle outlives a run judged live and from its parsed
    records, so a finished run never waits for the cyclic collector: not a
    crash-free run, nor a crashed or stalled one that leaves messages
    buffered at crashed or blocked processes."""
    # the survivors of the sc_snapshot_ops run finish their ops before a
    # majority has crashed, since sc snapshots wait for no delivery
    stalls = workload in MP_WORKLOADS and workload != "sc_snapshot_ops"
    for crash, status in [("none", "quiescent"), ("explicit:1@40:2,2@60", "quiescent"),
                          ("explicit:1@30,2@50,3@70", "stalled" if stalls else "quiescent")]:
        cfg = config(n=5, t=2, workload=workload, op_count=10, nregs=2, writer=2, seed=3,
                     crash=crash)
        gc.disable()
        try:
            gc.collect()
            res = run_scenario(cfg)
            assert res.status == status
            assert bool(res.faulty) == (crash != "none")
            evaluate(res)
            evaluate_run(load_run(parse_trace(res.text)))
            del res
            assert gc.collect() == 0, crash
        finally:
            gc.enable()


def test_log_len_is_the_record_count():
    log = run_scenario(config(n=3, op_count=3, seed=7, crash="explicit:1@0:2")).events
    count = len(log)  # counted, not built
    assert count == len(list(log))
    log.remove(next(ev for ev in log if ev.kind == "send"))
    assert len(log) == count - 1 == len(list(log))
    log.remove(next(ev for ev in log if ev.kind == "bcast"))
    assert len(log) == count - 2 == len(list(log))


@pytest.mark.parametrize("kind,to", [("send", "1"), ("send", "2"), ("recv", None)])
def test_remove_reaches_every_reader(kind, to):
    """remove() takes the record out of the log's entries: a fan-out's first
    or middle send record, or a recv record.  The rendered trace loses
    exactly its line, load_run one send, the channel lists of the records
    one send or one receipt, and len() one; check_fifo judges the log as
    those lists do."""
    log = run_scenario(config(n=3, op_count=3, seed=7)).events
    records, text, before = list(log), lines(render_trace(log)), load_run(log)
    channels = channels_of(log)
    assert not before.faulty
    k = next(k for k, ev in enumerate(records) if ev.kind == kind and ev.payload.get("to") == to)
    ev = records[k]
    log.remove(ev)
    after = load_run(log)
    assert lines(render_trace(log)) == text[:k] + text[k + 1:]
    assert list(log) == records[:k] + records[k + 1:]
    assert len(log) == len(records) - 1
    p, mid = ev.payload, MsgId.parse(ev.payload["m"])
    assert after.sends == {**before.sends, mid: before.sends[mid] - (kind == "send")}
    if kind == "send":
        channel, side = (ev.proc, int(p["to"])), 0
    else:
        channel, side = (int(p["from"]), ev.proc), 1
    now = channels_of(log)
    assert len(now[channel][side]) == len(channels[channel][side]) - 1
    assert now[channel][1 - side] == channels[channel][1 - side]
    assert check_fifo(after) == channel_list_fifo(now)


@pytest.mark.parametrize("kind,key", [("send", "to"), ("recv", "from")])
def test_records_own_their_payloads(kind, key):
    log = run_scenario(config(n=3, op_count=3, seed=7)).events
    records = list(log)
    before = [TraceEvent(*ev[:3], dict(ev.payload)) for ev in records]
    k = next(k for k, ev in enumerate(records) if ev.kind == kind)
    del records[k].payload[key]
    assert list(log) == before  # the log's next records have the field
    del before[k].payload[key]
    assert records == before  # no other send or recv record lost the field
