"""The five-slot TraceLog against the tuple-entry log it replaced.

`TupleLog` is the log as it was before its entries became flat rows: a
list of tuples, (step, kind, proc, fields) for one record and (step, kind,
proc, fwd, last) for a FORWARD's send or recv entry, each holding its
absolute step.  `TupleLogSimulator` writes every entry of a run to a
TupleLog as well, stamped with the simulator's own step, and a parsed trace
is held to the TupleLog of the records the old parser reads from it.  The
two logs must list equal records, count them alike, render the same text
and load the same RunData, before and after one record is removed.
"""
from __future__ import annotations

from dataclasses import fields

import pytest
from test_sim import lines
from test_trace_codec import old_parse_trace, old_render_trace

from scdkit.check import load_run
from scdkit.sim import (
    WORKLOADS,
    RunData,
    ScenarioConfig,
    Simulator,
    TraceEvent,
    _flat,
    parse_trace,
    render_trace,
)


def _records_of(entry: tuple) -> list:
    """The records of one TupleLog entry."""
    if len(entry) == 4:
        step, kind, proc, f = entry
        return [TraceEvent(step, kind, proc, dict(zip(f[::2], f[1::2])))]
    step, kind, proc, (m, sd, sn, f, snf), last = entry
    if kind == "send":
        return [TraceEvent(step, kind, proc, {"f": f, "m": m, "sd": sd, "sn": sn, "snf": snf,
                                              "to": str(dst)})
                for dst in range(1, last + 1)]
    return [TraceEvent(step, kind, proc, {"f": f, "from": last, "m": m, "sd": sd, "sn": sn,
                                          "snf": snf})]


class TupleLog:
    """The tuple-entry log: one tuple per entry, each with its step."""

    def __init__(self, tuples=()):
        self.tuples = list(tuples)

    @staticmethod
    def of(records) -> "TupleLog":
        return TupleLog((*ev[:3], _flat(ev.payload)) for ev in records)

    def __len__(self) -> int:
        return sum(e[4] if len(e) == 5 and e[1] == "send" else 1 for e in self.tuples)

    def __iter__(self):
        for e in self.tuples:
            yield from _records_of(e)

    def entries(self):
        """The entries as load_run and check_fifo read them, the delta slot
        None: neither reads it."""
        return ((None, *e[1:], None) if len(e) == 4 else (None, *e[1:]) for e in self.tuples)

    def remove(self, record) -> None:
        for k, e in enumerate(self.tuples):
            records = _records_of(e)
            if record in records:
                records.remove(record)
                self.tuples[k:k + 1] = TupleLog.of(records).tuples
                return
        raise ValueError("TupleLog.remove(x): x not in log")


class TupleLogSimulator(Simulator):
    """Simulator that also writes each entry to `tuples`, a TupleLog, with
    its own step in place of the entry's delta."""

    def __init__(self, config: ScenarioConfig):
        super().__init__(config)
        self.tuples = TupleLog([(0, "config", 0, _flat(dict(sorted(config.to_payload().items()))))])
        write = self._log_extend

        def write_both(entry):
            write(entry)
            head = (self.step, *entry[1:4])
            self.tuples.tuples.append(head if entry[4] is None else (*head, entry[4]))

        self._log_extend = write_both


def loaded(log) -> list:
    """Every field of load_run(log), or the exception: its records listed,
    and its late entry past the delta slot."""
    try:
        run = load_run(log)
    except Exception as e:  # noqa: BLE001 - the type and message are compared
        return [type(e), str(e)]
    shown = {"events": list(run.events), "late": run.late and run.late[1:]}
    return [(f.name, shown.get(f.name, getattr(run, f.name))) for f in fields(RunData)]


def assert_logs_alike(log, oracle) -> None:
    records = list(oracle)
    assert list(log) == records
    assert len(log) == len(oracle) == len(records)
    assert lines(render_trace(log)) == lines(old_render_trace(oracle))
    assert loaded(log) == loaded(oracle)


# (n, crash): crash-free, random:K, and explicit crashes whose keep cuts
# interrupt the victim's handler
_CRASHES = [(3, "none"), (5, "random:2"), (5, "explicit:2@9:1,4@40:3"), (4, "explicit:1@0:2")]


def _configs(workload):
    for delay in ("uniform", "fifo", "slow:1"):
        for n, crash in _CRASHES:
            for seed in range(2):
                yield ScenarioConfig(n=n, t=(n - 1) // 2, workload=workload, op_count=2 * n,
                                     crash=crash, delay=delay, seed=seed, nregs=2,
                                     writer=min(n, 2), mem=("atomic", "sc")[seed])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_logs_match_the_tuple_log(workload):
    """A simulated log and its parsed trace hold what the tuple log holds:
    the simulator's, written beside it, and the one of the old parser's
    records of the text."""
    cut = False
    for cfg in _configs(workload):
        sim = TupleLogSimulator(cfg)
        run = sim.run()
        assert_logs_alike(run.events, sim.tuples)
        text = render_trace(run.events)
        assert_logs_alike(parse_trace(text), TupleLog.of(old_parse_trace(text)))
        cut |= any(len(e) == 5 and e[1] == "send" and e[4] < cfg.n for e in sim.tuples.tuples)
    assert cut == (workload != "rw_equivalence")  # some keep cut truncated a fan-out


def _is(kind, to):
    return lambda ev: ev.kind == kind and ev.payload.get("to") == to


@pytest.mark.parametrize("pick", [
    _is("send", "1"),       # a fan-out's first send
    _is("send", "2"),       # a middle send
    _is("recv", None),      # a receipt
    _is("op_invoke", None),  # a plain record, its step's first entry
    _is("bcast", None),     # a plain record after its step's first
    _is("end", None),       # the last entry
], ids=["first-send", "middle-send", "recv", "first-of-step", "plain", "last"])
def test_remove_matches_the_tuple_log(pick):
    """remove() of a record out of a simulated or a parsed log gives the
    records, count, text and RunData that the tuple log gives."""
    cfg = ScenarioConfig(n=3, t=1, workload="snapshot_ops", op_count=4, seed=7)
    sim = TupleLogSimulator(cfg)
    log = sim.run().events
    text = render_trace(log)
    for log, oracle in ((log, sim.tuples),
                        (parse_trace(text), TupleLog.of(old_parse_trace(text)))):
        ev = next(filter(pick, log))
        log.remove(ev)
        oracle.remove(ev)
        assert_logs_alike(log, oracle)
        assert len(log) == text.count("\n") - 1

