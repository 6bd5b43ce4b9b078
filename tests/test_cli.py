"""Command line interface: subcommands, exit codes, trace files."""
from __future__ import annotations

import contextlib
import io
import multiprocessing
import os
import re
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from test_scd_mp import RELATIONS

from scdkit import cli, scd_mp, sim
from scdkit.cli import main


def test_run_reports_verdicts_and_succeeds(capsys):
    code = main(["run", "--n", "3", "--workload", "register_ops",
                 "--ops", "6", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status|quiescent" in out
    assert "verdict|linearizable_witness|pass" in out
    assert out.strip().endswith("result|pass")


def test_majority_crash_skips_termination(capsys):
    # 3 of 5 crash; the run still goes quiescent, but a live process may miss
    # what another delivered without breaking the protocol's guarantees
    code = main(["run", "--n", "5", "--workload", "register_ops", "--ops", "3",
                 "--crash", "explicit:2@63:1,1@66:3,5@2", "--delay", "slow:1",
                 "--seed", "745449"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status|quiescent" in out
    assert ("verdict|termination|skip|3 of 5 processes crashed; "
            "liveness needs a correct majority") in out
    assert out.strip().endswith("result|pass")


def test_run_writes_and_check_rereads_trace(tmp_path, capsys):
    code = main(["run", "--n", "3", "--workload", "raw_broadcast", "--ops", "4",
                 "--trace-dir", str(tmp_path)])
    assert code == 0
    run_out = capsys.readouterr().out
    trace = tmp_path / "raw_broadcast_n3_s0.trace"
    assert trace.exists()
    code = main(["check", str(trace)])
    check_out = capsys.readouterr().out
    assert code == 0
    assert f"check|{trace}|pass" in check_out
    # identical verdict lines live and replayed
    live = [l for l in run_out.splitlines() if l.startswith("verdict|")]
    replay = [l for l in check_out.splitlines() if l.startswith("verdict|")]
    assert live == replay


def test_no_trace_flag_suppresses_file(tmp_path, capsys):
    main(["run", "--n", "3", "--workload", "raw_broadcast", "--ops", "2",
          "--trace-dir", str(tmp_path), "--no-trace"])
    capsys.readouterr()
    assert list(tmp_path.iterdir()) == []


def test_print_trace_emits_records(capsys):
    main(["run", "--n", "3", "--workload", "raw_broadcast", "--ops", "2",
          "--print-trace"])
    out = capsys.readouterr().out
    assert "0|config|0|" in out
    assert "|end|0|" in out


def test_run_renders_the_trace_once(tmp_path, capsys, monkeypatch):
    calls, render = [], sim.render_trace

    def counting_render(events):
        calls.append(len(events))
        return render(events)

    monkeypatch.setattr(sim, "render_trace", counting_render)  # RunData.text, cmd_run's only render
    main(["run", "--n", "3", "--workload", "raw_broadcast", "--ops", "2",
          "--print-trace", "--trace-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert len(calls) == 1
    assert (tmp_path / "raw_broadcast_n3_s0.trace").read_text() in out


def test_fuzz_sweeps_seeds(capsys):
    code = main(["fuzz", "--n", "3", "--workload", "snapshot_ops", "--ops", "6",
                 "--nregs", "2", "--crash", "random:1", "--seeds", "12"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fuzz|seeds=12|quiescent=12" in out
    assert out.strip().endswith("result|pass")


@pytest.mark.parametrize("workload,extra", [
    ("snapshot_ops", ["--nregs", "2", "--crash", "random:1", "--delay", "slow:1"]),
    ("sc_register_ops", ["--ops", "24"]),  # every seed prints a skip line
])
def test_fuzz_worker_pool_prints_the_lines_of_one_process(capsys, workload, extra):
    """Each worker judges its runs from the RunData they filled; the summary
    must not depend on where a run was judged."""
    out = {}
    for jobs in ("1", "2"):
        code = main(["fuzz", "--n", "3", "--workload", workload, "--seeds", "6",
                     "--seed-base", "40", "--jobs", jobs, *extra])
        out[jobs] = (code, capsys.readouterr().out.splitlines())
    assert out["1"] == out["2"]
    assert out["1"][1][0].startswith("fuzz|seeds=6|")


@pytest.mark.parametrize("seeds,jobs,workers", [("2", "8", 2), ("5", "3", 3), ("1", "4", None)])
def test_fuzz_starts_no_more_workers_than_seeds(capsys, monkeypatch, seeds, jobs, workers):
    """A pool of --jobs workers, capped at --seeds; one seed runs in-process.
    The pool is a stand-in that maps in-process, so no process starts."""
    sizes = []

    class InProcessPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    code = main(["fuzz", "--n", "3", "--workload", "raw_broadcast", "--ops", "2",
                 "--seeds", seeds, "--jobs", jobs])
    assert code == 0
    assert f"fuzz|seeds={seeds}|" in capsys.readouterr().out
    assert sizes == ([] if workers is None else [workers])


def test_importing_the_cli_leaves_multiprocessing_unimported():
    """Only a fuzz run with --jobs > 1 pays for importing multiprocessing."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, scdkit.cli; print('multiprocessing' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


def test_fuzz_failure_line_ends_with_a_repro_that_fails_alike(capsys, monkeypatch):
    monkeypatch.setattr(scd_mp, "threshold", RELATIONS["never-blocks"])
    code = main(["fuzz", "--n", "5", "--workload", "raw_broadcast", "--ops", "20",
                 "--crash", "random:2", "--delay", "slow:1", "--seeds", "4"])
    fails = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("fail|seed=")]
    assert code == 1 and fails
    monkeypatch.delenv("SCDKIT_TRACE_DIR", raising=False)
    for line in fails[:3]:
        head, _, repro = line.partition("|repro=")
        _, seed, verdict = head.split("|", 2)
        argv = shlex.split(repro)
        assert argv[:2] == ["scdkit", "run"]
        assert f"seed={argv[argv.index('--seed') + 1]}" == seed
        assert main(argv[1:]) == 1
        assert verdict in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("flag,value", [("--seeds", "0"), ("--seeds", "-5"),
                                        ("--jobs", "0"), ("--jobs", "-2")])
def test_fuzz_rejects_empty_sweep_and_no_workers(capsys, flag, value):
    # a sweep over no seeds would print result|pass having checked nothing
    code = main(["fuzz", "--n", "3", "--workload", "raw_broadcast", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {flag} must be >= 1")
    assert "result|" not in captured.out


def test_stats_reports_counters(capsys):
    code = main(["stats", "--n", "5", "--workload", "raw_broadcast", "--ops", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sends|total=100|cap_per_broadcast=25|max_per_broadcast=25" in out
    assert "faulty|-" in out


@pytest.mark.parametrize("command", ["run", "fuzz", "stats"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_exits_2(capsys, command, budget):
    # a run of no steps would print result|pass having checked nothing
    extra = ["--no-trace"] if command == "run" else []
    code = main([command, "--n", "3", "--workload", "register_ops", "--budget", budget,
                 *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: step budget must be >= 1")
    assert "result|" not in captured.out


def test_bad_crash_schedule_exits_2(capsys):
    code = main(["run", "--n", "3", "--workload", "raw_broadcast",
                 "--crash", "random:5"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "fuzz", "stats"])
@pytest.mark.parametrize("spec", [
    ["--crash", "random:x"],
    ["--crash", "explicit:1@x"],
    ["--crash", "explicit:1@3:y"],
    ["--crash", "explicit:x@3"],
    ["--delay", "slow:a"],
])
def test_non_numeric_spec_field_exits_2(capsys, command, spec):
    code = main([command, "--n", "3", "--workload", "raw_broadcast", *spec])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: bad number")


@pytest.mark.parametrize("command", ["run", "fuzz", "stats"])
@pytest.mark.parametrize("spec", ["explicit:1@-3", "explicit:1@3:-1"])
def test_negative_crash_step_or_keep_exits_2(capsys, command, spec):
    code = main([command, "--n", "3", "--workload", "raw_broadcast", "--crash", spec])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: negative step or keep")


def test_missing_trace_file_exits_2(capsys):
    code = main(["check", "/nonexistent/trace.log"])
    assert code == 2


def test_default_t_is_floor_half(capsys):
    # n=7 defaults to t=3; a 3-crash schedule is accepted
    code = main(["run", "--n", "7", "--workload", "raw_broadcast", "--ops", "4",
                 "--crash", "random:3", "--seed", "1"])
    assert code == 0


def test_scenario_flags_are_the_config_payload_keys():
    """A config whose every field is off its default comes back from its
    own config-record payload given as flags, as a repro line gives them."""
    cfg = sim.ScenarioConfig(n=4, t=2, workload="snapshot_ops", op_count=7,
                             crash="random:1", delay="slow:2", seed=9, step_budget=5000,
                             nregs=2, mem="sc", writer=3)
    argv = ["run"] + [a for k, v in cfg.to_payload().items() for a in (f"--{k}", v)]
    assert cli.scenario_from_args(cli.build_parser().parse_args(argv)) == cfg


def test_fuzz_reports_unchecked_runs_apart_from_passes(capsys):
    # the sequential-consistency search skips past 16 ops: nothing is checked
    code = main(["fuzz", "--n", "3", "--workload", "sc_register_ops", "--ops", "24",
                 "--seeds", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fuzz|seeds=3|quiescent=3|unchecked=3" in out
    assert ("skip|seed=0|verdict|sequentially_consistent|skip|24 ops exceed bound 16"
            in out)
    assert out.strip().endswith("result|pass")


def _drop_invokes(text):
    return "".join(l for l in text.splitlines(True) if "|op_invoke|" not in l)


def _first_by_p9(kind):
    def mangle(text):
        lines = text.splitlines(True)
        k = next(k for k, l in enumerate(lines) if f"|{kind}|" in l)
        step, _, _, body = lines[k].split("|", 3)
        lines[k] = f"{step}|{kind}|9|{body}"
        return "".join(lines)
    return mangle


def _write_data(line):
    """Span of the hex payload of a bcast record carrying a WRITE, else None."""
    m = re.search(r"\bdata=([0-9a-f]+)", line)
    if "|bcast|" in line and m and bytes.fromhex(m[1]).startswith(b"W|"):
        return m.span(1)
    return None


def _set_register(line, r):
    a, b = _write_data(line)
    raw = bytes.fromhex(line[a:b])
    return line[:a] + (raw[:2] + str(r).encode() + raw[3:]).hex() + line[b:]


def _write_to_register_9(text):
    lines = text.splitlines(True)
    k = next(k for k, l in enumerate(lines) if _write_data(l))
    lines[k] = _set_register(lines[k], 9)
    return "".join(lines)


def _send_without_to(text):
    lines = text.splitlines(True)
    k = next(k for k, l in enumerate(lines) if "|send|" in l)
    lines[k] = re.sub(r" to=\d+", "", lines[k])
    return "".join(lines)


def _peer_9(kind):
    """The last send line to p3 sends to p9, or the last recv line is from p9."""
    def mangle(text):
        lines = text.splitlines(True)
        if kind == "send":
            k = max(k for k, l in enumerate(lines) if "|send|" in l and l.endswith(" to=3\n"))
            lines[k] = lines[k].replace(" to=3\n", " to=9\n")
        else:
            k = max(k for k, l in enumerate(lines) if "|recv|" in l)
            lines[k] = re.sub(r" from=\d+", " from=9", lines[k])
        return "".join(lines)
    return mangle


def _return_without(op, field):
    """The first return of an `op` loses a result field; the snapshots are
    taken from a snapshot_ops trace, as a register workload issues none."""
    def mangle(text):
        if op == "snapshot":
            text = sim.run_scenario(sim.ScenarioConfig(n=3, t=1, workload="snapshot_ops",
                                                       op_count=4, seed=1)).text
        lines = text.splitlines(True)
        k = next(k for k, l in enumerate(lines) if "|op_return|" in l and f"|op={op} " in l)
        lines[k], found = re.subn(f" {field}=[^ \n]*", "", lines[k])
        assert found == 1
        return "".join(lines)
    return mangle


def _send_to_p4(text):
    """A fan-out's send lines run on to p4: one send entry of reach 4."""
    lines = text.splitlines(True)
    k = next(k for k, l in enumerate(lines) if "|send|" in l and l.endswith(" to=3\n"))
    lines.insert(k + 1, lines[k].replace(" to=3\n", " to=4\n"))
    return "".join(lines)


def _config(old, new):
    def mangle(text):
        head, rest = text.split("\n", 1)
        assert f" {old} " in head
        return head.replace(f" {old} ", f" {new} ") + "\n" + rest
    return mangle


def _garbage_line(text):
    lines = text.splitlines(True)
    return "".join(lines[:3] + ["garbage line\n"] + lines[3:])


@pytest.mark.parametrize("mangle,reason", [
    (_drop_invokes, "KeyError"),
    (_first_by_p9("scd_deliver"), "KeyError: 9"),
    (_garbage_line, "TraceParseError: line 4"),
    (lambda text: text[:300], "TraceParseError: line"),
    (_write_to_register_9, "ValueError: register 9 outside 1..1"),
    (_send_without_to, "KeyError: 'to'"),
    (_first_by_p9("bcast"), "KeyError: 9"),
    (_config("crash=none", "crash=random:x"), "UsageError: bad number 'x'"),
    (_config("n=3", "n=0"), "UsageError: n must be >= 1"),
    (lambda text: text.replace("|budget=1000000 ", "|budget=0 ", 1),
     "UsageError: step budget must be >= 1"),
    (lambda text: text.replace("|budget=1000000 ", "|budget=-5 ", 1),
     "UsageError: step budget must be >= 1"),
    (lambda text: text.replace("|recv|", "|recx|"), "ValueError: unknown record kind 'recx'"),
    (lambda text: text.replace("|op=read ", "|op=frob "),
     "ValueError: register_ops run has a 'frob' op"),
    (lambda text: text.replace("|op=read ", "|op=bcast "),
     "ValueError: register_ops run has a 'bcast' op"),
    (_peer_9("send"), "ValueError: peer process '9' outside 1..3"),
    (_peer_9("recv"), "ValueError: peer process '9' outside 1..3"),
    (_send_to_p4, "ValueError: peer process '4' outside 1..3"),
    (_return_without("read", "ts"), "KeyError: 'ts'"),
    (_return_without("read", "tsa"), "KeyError: 'tsa'"),
    (_return_without("read", "v"), "KeyError: 'v'"),
    (_return_without("snapshot", "tsa"), "KeyError: 'tsa'"),
    (_return_without("snapshot", "vals"), "KeyError: 'vals'"),
], ids=["no-op-invoke", "unknown-proc", "garbage-line", "cut-at-300",
        "write-register-9", "send-without-to", "bcast-by-p9", "config-crash-random-x",
        "config-n-0", "config-budget-0", "config-budget-minus-5", "recv-renamed",
        "read-renamed-frob", "read-renamed-bcast", "send-to-p9", "recv-from-p9",
        "send-run-to-p4", "read-without-ts", "read-without-tsa", "read-without-v",
        "snapshot-without-tsa", "snapshot-without-vals"])
def test_malformed_trace_exits_2_with_error_line(tmp_path, capsys, mangle, reason):
    main(["run", "--n", "3", "--workload", "register_ops", "--ops", "4", "--seed", "1",
          "--trace-dir", str(tmp_path)])
    capsys.readouterr()
    bad = tmp_path / "bad.trace"
    bad.write_text(mangle((tmp_path / "register_ops_n3_s1.trace").read_text()))
    code = main(["check", str(bad)])
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith(f"check|{bad}|error|{reason}")


def _drop_end(text):
    lines = text.splitlines(True)
    assert "|end|" in lines[-1]
    return "".join(lines[:-1])


@pytest.mark.parametrize("mangle,reason", [
    (_drop_end, "ValueError: trace has no end record"),
    (lambda text: re.sub(r"\|end\|0\|(.*)status=\w+", r"|end|0|\1status=weird", text),
     "ValueError: run ended with unknown status 'weird'"),
    (lambda text: re.sub(r"steps=\d+", "steps=many", text),
     "ValueError: invalid literal for int() with base 10: 'many'"),
], ids=["no-end-record", "status-weird", "steps-not-integer"])
def test_trace_cut_at_a_line_boundary_exits_2(tmp_path, capsys, mangle, reason):
    """Without its end record, or with a status no run ends with, a trace
    would leave termination and consistency unjudged: it is not a pass."""
    main(["run", "--n", "3", "--workload", "snapshot_ops", "--ops", "6", "--seed", "4",
          "--trace-dir", str(tmp_path)])
    capsys.readouterr()
    text = (tmp_path / "snapshot_ops_n3_s4.trace").read_text()
    bad = tmp_path / "bad.trace"
    bad.write_text(mangle(text))
    assert bad.read_text() != text
    code = main(["check", str(bad)])
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith(f"check|{bad}|error|{reason}")


def test_check_goes_on_past_an_unreadable_trace(tmp_path, capsys):
    main(["run", "--n", "3", "--workload", "raw_broadcast", "--ops", "2",
          "--trace-dir", str(tmp_path)])
    capsys.readouterr()
    good = tmp_path / "raw_broadcast_n3_s0.trace"
    missing = tmp_path / "missing.trace"
    code = main(["check", str(missing), str(good)])
    out = capsys.readouterr().out
    assert code == 2
    assert f"check|{missing}|error|FileNotFoundError" in out
    assert f"check|{good}|pass" in out


# -- total ingestion: no single-line mutation of a stored trace escapes -------

_BASE_TRACES = [
    ["--n", "3", "--workload", "register_ops", "--ops", "6", "--seed", "2",
     "--crash", "explicit:3@40:2"],
    ["--n", "3", "--workload", "snapshot_ops", "--ops", "6", "--nregs", "2",
     "--seed", "3", "--crash", "random:1"],
]


@pytest.fixture(scope="module")
def base_traces(tmp_path_factory):
    root = tmp_path_factory.mktemp("base")
    texts = []
    for args in _BASE_TRACES:
        out = tmp_path_factory.mktemp("run")
        with contextlib.redirect_stdout(io.StringIO()):
            main(["run", *args, "--trace-dir", str(out)])
        (path,) = out.iterdir()
        texts.append(path.read_text())
    return root, texts


def _drop_field(line, draw):
    head, body = line.rstrip("\n").rsplit("|", 1)
    chunks = body.split(" ")
    chunks.pop(draw(st.integers(0, len(chunks) - 1)))
    return f"{head}|{' '.join(chunks)}\n"


def _swap_proc(line, draw):
    step, kind, _, body = line.split("|", 3)
    return f"{step}|{kind}|{draw(st.integers(0, 5))}|{body}"


def _change_number(line, draw):
    spans = [m.span() for m in re.finditer(r"\d+", line)]
    a, b = spans[draw(st.integers(0, len(spans) - 1))]
    return f"{line[:a]}{draw(st.integers(0, 12))}{line[b:]}"


def _rewrite_register(line, draw):
    return _set_register(line, draw(st.integers(0, 4)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_trace_gets_a_verdict_or_an_error_line(base_traces, data):
    root, texts = base_traces
    lines = texts[data.draw(st.sampled_from(range(len(texts))))].splitlines(True)
    mutate, pick = data.draw(st.sampled_from([
        (_drop_field, lambda l: l.rstrip("\n")[-1] != "|"),
        (_swap_proc, lambda l: True),
        (_change_number, lambda l: True),
        (_rewrite_register, _write_data),
    ]))
    k = data.draw(st.sampled_from([k for k, l in enumerate(lines) if pick(l)]))
    lines[k] = mutate(lines[k], data.draw)
    path = root / "mutated.trace"
    path.write_text("".join(lines))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", str(path)])
    assert code in (0, 1, 2)
    first = out.getvalue().splitlines()[0]
    if code == 2:
        assert first.startswith(f"check|{path}|error|"), first
    else:
        assert first == f"check|{path}|{'pass' if code == 0 else 'fail'}", first
