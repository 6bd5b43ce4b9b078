"""Command line interface: subcommands, exit codes, trace files."""
from __future__ import annotations

import pytest

from scdkit.cli import main


def test_run_reports_verdicts_and_succeeds(capsys):
    code = main(["run", "--n", "3", "--workload", "register_ops",
                 "--ops", "6", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status|quiescent" in out
    assert "verdict|linearizable_witness|pass" in out
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


def test_fuzz_sweeps_seeds(capsys):
    code = main(["fuzz", "--n", "3", "--workload", "snapshot_ops", "--ops", "6",
                 "--nregs", "2", "--crash", "random:1", "--seeds", "12"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fuzz|seeds=12|quiescent=12" in out
    assert out.strip().endswith("result|pass")


def test_stats_reports_counters(capsys):
    code = main(["stats", "--n", "5", "--workload", "raw_broadcast", "--ops", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sends|total=100|cap_per_broadcast=25|max_per_broadcast=25" in out
    assert "faulty|-" in out


def test_bad_crash_schedule_exits_2(capsys):
    code = main(["run", "--n", "3", "--workload", "raw_broadcast",
                 "--crash", "random:5"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_trace_file_exits_2(capsys):
    code = main(["check", "/nonexistent/trace.log"])
    assert code == 2


def test_default_t_is_floor_half(capsys):
    # n=7 defaults to t=3; a 3-crash schedule is accepted
    code = main(["run", "--n", "7", "--workload", "raw_broadcast", "--ops", "4",
                 "--crash", "random:3", "--seed", "1"])
    assert code == 0


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


def _unknown_proc(text):
    lines = text.splitlines(True)
    k = next(k for k, l in enumerate(lines) if "|scd_deliver|" in l)
    step, kind, _, body = lines[k].split("|", 3)
    lines[k] = f"{step}|{kind}|9|{body}"
    return "".join(lines)


def _garbage_line(text):
    lines = text.splitlines(True)
    return "".join(lines[:3] + ["garbage line\n"] + lines[3:])


@pytest.mark.parametrize("mangle,reason", [
    (_drop_invokes, "KeyError"),
    (_unknown_proc, "KeyError: 9"),
    (_garbage_line, "TraceParseError: line 4"),
    (lambda text: text[:300], "TraceParseError: line"),
], ids=["no-op-invoke", "unknown-proc", "garbage-line", "cut-at-300"])
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
