"""The benchmark's four workloads: seeded inputs, one judged run, output checks.

A workload turns a seed into rounds of jobs.  A round is the unit the
measurement loop completes whole, so every window holds the same mix of job
kinds whatever the seed or the speed of the program.  `run` is the timed part
(config to verdict list); `judge` checks the outputs afterwards and is not
timed.  The program only ever sees the generated configs and scripts.

Entry points are called through their module attributes (`sim.Simulator`,
`cli.evaluate`, `check.load_run`, ...) so that the traced run's wrappers,
which replace those attributes, see every call.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional

from scdkit import check, cli, sim
from scdkit.core import AppMessage, MsgId, format_id_set
from scdkit.sim import ScenarioConfig

# Captured before any wrapper is installed: the harness renders its own copies
# of traces with this, so that its bookkeeping never shows up as a program
# span.  (`format_id_set` is imported from scdkit.core, where nothing is
# patched.)
_render_trace = sim.render_trace

OBJECT_WORKLOADS = frozenset(check.OBJECT_WORKLOADS)
CONSISTENCY_PROPS = frozenset(
    ("linearizable_witness", "linearizable_bruteforce", "sequentially_consistent",
     "consistency")
)


@dataclass
class Outcome:
    """What the harness learned from one judged run."""

    failed: bool
    unchecked: Optional[bool] = None   # object workloads only
    states: int = 0                    # explore only
    explore_s: float = 0.0             # explore only
    detail: str = ""

    @staticmethod
    def raised(exc: Exception) -> "Outcome":
        return Outcome(True, detail=f"raised {type(exc).__name__}: {exc}")


def _unchecked(verdicts) -> bool:
    return not any(v.status == "pass" for v in verdicts if v.prop in CONSISTENCY_PROPS)


# ---------------------------------------------------------------------------
# simulated workloads: one config simulated, then judged


class _Simulated:
    """One config per run: Simulator(config).run(), then cli.evaluate, as
    `scdkit fuzz` does for each seed."""

    rounds_ahead = 1

    def rounds(self, seed: int) -> list:
        rng = random.Random(f"perfbench:{self.name}:{seed}")
        return [self.make_round(rng) for _ in range(self.rounds_ahead)]

    def run(self, cfg):
        result = sim.Simulator(cfg).run()
        return result, cli.evaluate(result)

    def judge(self, cfg, raw) -> Outcome:
        result, report = raw
        bad = [v.line() for v in report.verdicts if not v.ok]
        if result.status != "quiescent":
            bad.append(f"status {result.status}")
        unchecked = _unchecked(report.verdicts) if cfg.workload in OBJECT_WORKLOADS else None
        return Outcome(bool(bad), unchecked, detail="; ".join(bad))

    def trace_text(self, job, raw) -> str:
        return _render_trace(raw[0].events)


class FuzzMix(_Simulated):
    """Mirrors a `scdkit fuzz` campaign over every workload kind: a round
    holds every kind at every n.

    Within each (kind, n) slot the seed shuffles the values of every setting
    (op count, crash schedule, delay, snapshot width) and the rounds walk
    through those shuffled cycles, so any run of consecutive rounds holds
    nearly the same spread of settings whatever the seed.  Without this the
    mix a window happens to draw moves its figures by more than the program's
    own run-to-run noise.
    """

    name = "fuzz_mix"
    rounds_ahead = 200
    KINDS = (
        "raw_broadcast", "snapshot_ops", "register_ops", "swmr_register_ops",
        "sc_register_ops", "sc_snapshot_ops", "rw_atomic", "rw_sc",
    )

    def rounds(self, seed: int) -> list:
        rng = random.Random(f"perfbench:{self.name}:{seed}")
        slots = [(kind, n) for kind in self.KINDS for n in (3, 5, 7)]
        cycles = {slot: self.setting_cycles(*slot, rng) for slot in slots}
        return [
            [self.make_config(kind, n, r, cycles[(kind, n)], rng) for kind, n in slots]
            for r in range(self.rounds_ahead)
        ]

    @staticmethod
    def setting_cycles(kind: str, n: int, rng: random.Random) -> dict:
        t = (n - 1) // 2
        if kind.startswith("rw_"):
            ops, max_crash = range(3, 11), n - 1
        elif kind == "raw_broadcast":
            ops, max_crash = range(20, 51), t
        elif kind.startswith("sc_"):
            ops, max_crash = range(4, 25), t   # straddles the 16-op SC search bound
        else:
            ops, max_crash = range(2, 11), t
        # half the runs crash-free, half a random minority (rw: up to n - 1);
        # random crashes bring their own `keep` cuts
        crashes = ["none"] * max_crash + [f"random:{k}" for k in range(1, max_crash + 1)]
        cycles = {
            "ops": list(ops),
            "crash": crashes,
            "delay": ["uniform", "fifo", "slow:1"],
            "nregs": [1, 2, 3] if "snapshot" in kind else [1],
            "writer": list(range(1, n + 1)) if kind == "swmr_register_ops" else [1],
        }
        for values in cycles.values():
            rng.shuffle(values)
        return cycles

    @staticmethod
    def make_config(kind: str, n: int, r: int, cycles: dict, rng: random.Random):
        pick = {k: v[r % len(v)] for k, v in cycles.items()}
        workload, mem = kind, "atomic"
        if kind.startswith("rw_"):
            workload, mem = "rw_equivalence", kind[3:]
        return ScenarioConfig(
            n=n, t=(n - 1) // 2, workload=workload, op_count=pick["ops"],
            crash=pick["crash"], delay=pick["delay"], seed=rng.randrange(1 << 31),
            nregs=pick["nregs"], mem=mem, writer=pick["writer"],
        )


class Fanout(_Simulated):
    """raw_broadcast with 4n broadcasts at n in {11, 13, 15}, each crash-free,
    with one crash and with a maximal minority of crashes.

    The seed picks the victims, their `keep` cuts and the schedules; the
    crashes strike in the middle fifth of the crash-free run.  A crash time
    drawn from the whole run would make the work of a window swing with the
    seed by more than the program's own run-to-run noise (crash timing is
    varied by fuzz_mix).  A round holds an odd number of config kinds so that
    the median of a window of whole rounds falls inside one kind's cluster of
    run times, not in the gap between two clusters."""

    name = "fanout"
    rounds_ahead = 20

    def make_round(self, rng: random.Random) -> list:
        out = []
        for n in (11, 13, 15):
            t = (n - 1) // 2
            for k in (0, 1, t):
                out.append(ScenarioConfig(
                    n=n, t=t, workload="raw_broadcast", op_count=4 * n,
                    crash=self.crash_plan(n, k, rng), seed=rng.randrange(1 << 31),
                ))
        return out

    @staticmethod
    def crash_plan(n: int, k: int, rng: random.Random) -> str:
        if not k:
            return "none"
        steps = 4 * n * (n * n + 1)  # crash-free: n^2 deliveries per broadcast, plus invokes
        items = []
        for p in sorted(rng.sample(range(1, n + 1), k)):
            keep = f":{rng.randint(0, n)}" if rng.random() < 0.5 else ""
            items.append(f"{p}@{rng.randint(2 * steps // 5, 3 * steps // 5)}{keep}")
        return "explicit:" + ",".join(items)

    def judge(self, cfg, raw) -> Outcome:
        outcome = super().judge(cfg, raw)
        if cfg.crash == "none" and not outcome.failed:
            sends: dict = {}
            for ev in raw[0].events:
                if ev.kind == "send":
                    sends[ev.payload["m"]] = sends.get(ev.payload["m"], 0) + 1
            want = cfg.n * cfg.n
            wrong = {m: c for m, c in sends.items() if c != want}
            if len(sends) != cfg.op_count or wrong:
                outcome.failed = True
                outcome.detail = f"{len(sends)} broadcasts, sends off n^2: {wrong}"
        return outcome


class History(_Simulated):
    """Two 2000-op histories at n = 5, each simulated, rendered to trace text,
    parsed back and judged: the `scdkit run --trace-dir` then `scdkit check`
    path at the acceptance witness scale."""

    name = "history"
    OPS = 2000

    def make_round(self, rng: random.Random) -> list:
        common = dict(n=5, t=2, op_count=self.OPS, step_budget=10**7)
        return [
            ScenarioConfig(workload="snapshot_ops", nregs=3,
                           seed=rng.randrange(1 << 31), **common),
            ScenarioConfig(workload="swmr_register_ops", writer=1,
                           seed=rng.randrange(1 << 31), **common),
        ]

    def run(self, cfg):
        result = sim.Simulator(cfg).run()
        text = result.text
        run = check.load_run(sim.parse_trace(text))
        return result.status, text, run, check.evaluate_run(run)

    def trace_text(self, job, raw) -> str:
        return raw[1]

    def judge(self, cfg, raw) -> Outcome:
        status, _, run, verdicts = raw
        bad = [v.line() for v in verdicts if not v.ok]
        if status != "quiescent":
            bad.append(f"status {status}")
        witness = [v for v in verdicts if v.prop == "linearizable_witness"]
        if not witness or witness[0].status != "pass":
            bad.append("witness did not pass")
        done = sum(1 for ev in run.events if ev.kind == "op_return" and ev.payload["op"] != "bcast")
        if done != self.OPS:
            bad.append(f"{done} of {self.OPS} ops completed")
        return Outcome(bool(bad), _unchecked(verdicts), detail="; ".join(bad))


# ---------------------------------------------------------------------------
# exhaustive exploration of the shared-memory construction


@dataclass
class ExploreJob:
    c1: int
    c2: int
    mem: str
    scripts: dict


class Explore:
    """explore_rw at n = 2, both memory modes, over the acceptance
    criterion-5 script set (1 to 3 messages) plus the 2+2 split; every
    terminal is judged with validity, integrity, ms_ordering, containment."""

    name = "explore"
    SPLITS = [(c1, c2) for c1 in range(4) for c2 in range(4) if 1 <= c1 + c2 <= 3] + [(2, 2)]
    # terminals of each exploration, the same in both memory modes; the
    # criterion-5 splits sum to the acceptance gate's 562 over both modes
    TERMINALS = {(0, 1): 3, (1, 0): 3, (0, 2): 7, (2, 0): 7, (0, 3): 17, (3, 0): 17,
                 (1, 1): 25, (1, 2): 101, (2, 1): 101, (2, 2): 567}
    PROPS = ("check_validity", "check_integrity", "check_ms_ordering", "check_containment")

    def rounds(self, seed: int) -> list:
        # The seed picks only the payload bytes; the job order stays fixed.
        # Shuffling it moved which small exploration absorbs the interpreter's
        # periodic garbage collections, and the median with it.
        rng = random.Random(f"perfbench:explore:{seed}")
        jobs = []
        for c1, c2 in self.SPLITS:
            for mem in ("atomic", "sc"):
                scripts = {
                    i: [AppMessage(MsgId(i, k), rng.randbytes(rng.randint(1, 8)))
                        for k in range(c)]
                    for i, c in ((1, c1), (2, c2))
                }
                jobs.append(ExploreJob(c1, c2, mem, scripts))
        return [jobs]

    def run(self, job: ExploreJob):
        t0 = time.perf_counter()
        terminals, states = sim.explore_rw(2, job.scripts, job.mem)
        explore_s = time.perf_counter() - t0
        cfg = ScenarioConfig(n=2, t=0, workload="rw_equivalence", op_count=0)
        broadcasts = {m.id: (m.id.sender, m.payload) for ms in job.scripts.values() for m in ms}
        verdicts = []
        for world in terminals:
            run = check.RunData(cfg, [], "quiescent")
            run.logs = {i: [frozenset(m.id for m in s) for s in p.log]
                        for i, p in world.procs.items()}
            run.broadcasts = broadcasts
            run.completed = {i: set() for i in world.procs}
            verdicts.append([getattr(check, name)(run) for name in self.PROPS])
        return terminals, states, explore_s, verdicts

    def trace_text(self, job, raw) -> str:
        lines = []
        for k, world in enumerate(raw[0]):
            logs = " ".join(
                f"p{i}=" + "/".join(format_id_set(m.id for m in s) for s in p.log)
                for i, p in sorted(world.procs.items())
            )
            lines.append(f"terminal|{k}|{logs}\n")
        return "".join(lines)

    def judge(self, job: ExploreJob, raw) -> Outcome:
        terminals, states, explore_s, verdicts = raw
        bad = []
        want = self.TERMINALS[(job.c1, job.c2)]
        if len(terminals) != want:
            bad.append(f"{len(terminals)} terminals, want {want}")
        all_ids = {m.id for ms in job.scripts.values() for m in ms}
        for k, (world, vs) in enumerate(zip(terminals, verdicts)):
            bad.extend(f"terminal {k}: {v.line()}" for v in vs if v.status != "pass")
            for i, p in world.procs.items():
                got = set().union(*p.log) if p.log else set()
                if {m.id for m in got} != all_ids:
                    bad.append(f"terminal {k}: p{i} misses messages")
        return Outcome(bool(bad), None, states=states, explore_s=explore_s,
                       detail="; ".join(bad[:3]))


WORKLOADS = {w.name: w for w in (FuzzMix(), Fanout(), History(), Explore())}

