"""Command line front end.

    scdkit run    one scenario: execute, check, optionally store the trace
    scdkit fuzz   sweep seeds over one scenario shape, summarize verdicts
    scdkit check  re-check stored trace files
    scdkit stats  execute and report message/step counts instead of verdicts

Exit status: 0 all checks passed, 1 some check failed, 2 bad usage or a
malformed trace.
"""
from __future__ import annotations

import argparse
import multiprocessing
import os
import shlex
import sys
from dataclasses import dataclass, field
from typing import Optional

from .core import UsageError
from .check import CONSISTENCY_PROPS, OBJECT_WORKLOADS, evaluate_run, load_run
from .sim import (RunData, ScenarioConfig, Simulator, TraceParseError, WORKLOADS,
                  parse_trace)


@dataclass
class RunReport:
    run: RunData
    verdicts: list

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def unchecked(self) -> Optional[str]:
        """For an object run none of whose consistency verdicts passed, the
        first of them; None otherwise."""
        if self.run.config.workload not in OBJECT_WORKLOADS:
            return None
        verdicts = [v for v in self.verdicts if v.prop in CONSISTENCY_PROPS]
        return None if any(v.status == "pass" for v in verdicts) else verdicts[0].line()

    def lines(self):
        yield f"status|{self.run.status}|steps={self.run.steps}"
        for v in self.verdicts:
            yield v.line()
        yield f"result|{'pass' if self.ok else 'fail'}"


@dataclass
class FuzzSummary:
    total: int = 0
    statuses: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)   # (seed, verdict line|repro=command)
    unchecked: list = field(default_factory=list)  # (seed, verdict line)

    @property
    def ok(self) -> bool:
        return not self.failures

    def lines(self):
        counts = " ".join(f"{k}={v}" for k, v in sorted(self.statuses.items()))
        yield f"fuzz|seeds={self.total}|{counts}|unchecked={len(self.unchecked)}"
        yield from _capped("fail", self.failures)
        yield from _capped("skip", self.unchecked)
        yield f"result|{'pass' if self.ok else 'fail'}"


def _capped(tag: str, items: list, cap: int = 20):
    for seed, line in items[:cap]:
        yield f"{tag}|seed={seed}|{line}"
    if len(items) > cap:
        yield f"{tag}|...and {len(items) - cap} more"


def evaluate(run: RunData) -> RunReport:
    """Judge a simulated run from the RunData Simulator.run returned."""
    return RunReport(run, evaluate_run(run))


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scdkit",
        description="run, fuzz and check set-constrained delivery broadcast scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scen = argparse.ArgumentParser(add_help=False)
    scen.add_argument("--n", type=int, required=True, help="number of processes")
    scen.add_argument("--t", type=int, default=None,
                      help="assumed crash budget, default (n-1)//2")
    scen.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    scen.add_argument("--ops", type=int, default=10, help="total operation count")
    scen.add_argument("--crash", default="none",
                      help="none | random:K | explicit:p@step[:keep],...")
    scen.add_argument("--delay", default="uniform", help="uniform | fifo | slow:p,p")
    scen.add_argument("--seed", type=int, default=0)
    scen.add_argument("--budget", type=int, default=10**6, help="step budget")
    scen.add_argument("--nregs", type=int, default=1,
                      help="snapshot width (snapshot workloads)")
    scen.add_argument("--mem", choices=["atomic", "sc"], default="atomic",
                      help="memory model for rw_equivalence")
    scen.add_argument("--writer", type=int, default=1,
                      help="writing process for swmr_register_ops")

    p_run = sub.add_parser("run", parents=[scen], help="run one scenario and check it")
    p_run.add_argument("--trace-dir", default=os.environ.get("SCDKIT_TRACE_DIR"),
                       help="directory to store the trace (default $SCDKIT_TRACE_DIR)")
    p_run.add_argument("--no-trace", action="store_true", help="never store a trace")
    p_run.add_argument("--print-trace", action="store_true",
                       help="print trace records to stdout before the verdicts")
    p_run.set_defaults(func=cmd_run)

    p_fuzz = sub.add_parser("fuzz", parents=[scen], help="sweep seeds over a scenario")
    p_fuzz.add_argument("--seeds", type=int, default=100, help="number of seeds")
    p_fuzz.add_argument("--seed-base", type=int, default=0, help="first seed")
    p_fuzz.add_argument("--jobs", type=int, default=1,
                        help="worker processes, at most one per seed")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_check = sub.add_parser("check", help="re-check stored trace files")
    p_check.add_argument("traces", nargs="+", help="trace files written by run")
    p_check.set_defaults(func=cmd_check)

    p_stats = sub.add_parser("stats", parents=[scen],
                             help="run one scenario and report counters")
    p_stats.set_defaults(func=cmd_stats)
    return parser


def scenario_from_args(args) -> ScenarioConfig:
    """The config the scenario flags name: they are its payload keys."""
    t = args.t if args.t is not None else (args.n - 1) // 2
    config = ScenarioConfig.from_payload({**vars(args), "t": t})
    config.validate()
    return config


# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    config = scenario_from_args(args)
    run = Simulator(config).run()
    store = args.trace_dir and not args.no_trace
    text = run.text if args.print_trace or store else None
    if args.print_trace:
        print(text, end="")
    if store:
        os.makedirs(args.trace_dir, exist_ok=True)
        path = os.path.join(
            args.trace_dir, f"{config.workload}_n{config.n}_s{config.seed}.trace"
        )
        with open(path, "w") as fh:
            fh.write(text)
        print(f"trace|{path}")
    report = evaluate(run)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def repro_command(payload: dict) -> str:
    """The `scdkit run` command that re-runs the config of a config-record
    payload, whose keys are the scenario flags."""
    return "scdkit run " + " ".join(f"--{k} {shlex.quote(v)}" for k, v in payload.items())


def _fuzz_one(payload) -> tuple:
    config = ScenarioConfig.from_payload(payload)
    report = evaluate(Simulator(config).run())
    bad = [v.line() for v in report.verdicts if not v.ok]
    return config.seed, report.run.status, bad, report.unchecked


def cmd_fuzz(args) -> int:
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    base = scenario_from_args(args)
    payloads = []
    for k in range(args.seeds):
        p = base.to_payload()
        p["seed"] = str(args.seed_base + k)
        payloads.append(p)
    summary = FuzzSummary()
    jobs = min(args.jobs, args.seeds)  # no worker without a seed to run
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_fuzz_one, payloads)
    else:
        results = map(_fuzz_one, payloads)
    for payload, (seed, status, bad, unchecked) in zip(payloads, results):
        summary.total += 1
        summary.statuses[status] = summary.statuses.get(status, 0) + 1
        for line in bad:
            summary.failures.append((seed, f"{line}|repro={repro_command(payload)}"))
        if unchecked is not None:
            summary.unchecked.append((seed, unchecked))
    for line in summary.lines():
        print(line)
    return 0 if summary.ok else 1


def cmd_check(args) -> int:
    code = 0
    for path in args.traces:
        try:
            with open(path) as fh:
                verdicts = evaluate_run(load_run(parse_trace(fh.read())))
        except (OSError, TraceParseError, KeyError, ValueError, UsageError) as exc:
            # an unreadable, malformed or truncated trace: no verdict on a run
            print(f"check|{path}|error|{type(exc).__name__}: {exc}")
            code = 2
            continue
        ok = all(v.ok for v in verdicts)
        if not ok:
            code = max(code, 1)
        print(f"check|{path}|{'pass' if ok else 'fail'}")
        for v in verdicts:
            print(v.line())
    return code


def cmd_stats(args) -> int:
    config = scenario_from_args(args)
    run = Simulator(config).run()
    sends = sum(run.sends.values())
    sets_per = {i: len(run.logs[i]) for i in sorted(run.logs)}
    print(f"status|{run.status}|steps={run.steps}")
    print(f"broadcasts|{len(run.broadcasts)}")
    print(f"sends|total={sends}|cap_per_broadcast={config.n ** 2}"
          f"|max_per_broadcast={max(run.sends.values(), default=0)}")
    print("delivered_sets|" + " ".join(f"p{i}={c}" for i, c in sets_per.items()))
    print("faulty|" + (",".join(str(p) for p in sorted(run.faulty)) or "-"))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
