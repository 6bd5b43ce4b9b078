"""Acceptance gate: one test per criterion, fixed seeds, pinned tolerances.

Each test prints one summary line (criterion N: PASS - metrics); pytest -v
shows one pass/fail line per criterion either way.
"""
from __future__ import annotations

import copy
import random

from scdkit.core import AppMessage, MsgId
from scdkit.check import (
    RunData,
    check_containment,
    check_integrity,
    check_linearizable_bruteforce,
    check_linearizable_witness,
    check_ms_ordering,
    check_sequentially_consistent,
    check_termination,
    check_validity,
    evaluate_run,
    extract_history,
    load_run,
    timestamp_metadata,
)
from scdkit.sim import (WORKLOADS, ScenarioConfig, Simulator, explore_rw, parse_trace,
                        run_scenario)

# pinned scale and tolerances
SEEDS_PER_N = 334          # 3 values of n -> 1002 seeds total, >= 1000
RW_SEEDS = 1000
BRUTE_BOUND = 10           # ops checked exhaustively
WITNESS_OPS = 2000         # largest history checked by the tag witness
STALL_BUDGET = 10**6       # steps a blocked run may burn before we call it
CORE_PROPS = ("validity", "integrity", "ms_ordering", "containment", "termination")


def test_criterion_1_broadcast_property_suite():
    """n in {3,5,7} with random minority crash schedules: every quiescent
    run satisfies all five delivery properties."""
    runs = 0
    for n in (3, 5, 7):
        t = (n - 1) // 2
        for seed in range(SEEDS_PER_N):
            rng = random.Random(f"c1:{n}:{seed}")
            cfg = ScenarioConfig(
                n=n, t=t, workload="raw_broadcast",
                op_count=rng.randint(20, 50),
                crash=f"random:{t}" if seed % 2 else "none",
                seed=seed,
            )
            run = run_scenario(cfg)
            assert run.status == "quiescent", (n, seed, run.status)
            by_prop = {v.prop: v for v in evaluate_run(run)}
            for prop in CORE_PROPS:
                assert by_prop[prop].status == "pass", (n, seed, by_prop[prop].line())
            runs += 1
    assert runs >= 1000
    print(f"criterion 1: PASS - {runs} runs x 5 properties, all quiescent")


def test_criterion_2_message_complexity():
    """At most n*n point-to-point sends per broadcast, exactly n*n when
    nothing crashes; zero tolerance."""
    checked = 0
    for n in (3, 5, 7):
        t = (n - 1) // 2
        for seed in range(20):
            clean = ScenarioConfig(n=n, t=t, workload="raw_broadcast",
                                   op_count=12, seed=seed)
            run = run_scenario(clean)
            counts = run.sends
            assert len(counts) == 12
            assert set(counts.values()) == {n * n}, (n, seed, counts)
            crashy = ScenarioConfig(n=n, t=t, workload="raw_broadcast", op_count=12,
                                    crash=f"random:{t}", seed=seed)
            run = run_scenario(crashy)
            assert all(c <= n * n for c in run.sends.values()), (n, seed)
            checked += 2
    print(f"criterion 2: PASS - {checked} runs, cap n^2 exact on failure-free")


def test_criterion_3_linearizability_brute_and_witness():
    """Small histories by exhaustive search, large ones by the tag witness;
    verdicts agree wherever both run."""
    small = 0
    for seed in range(120):
        rng = random.Random(f"c3:{seed}")
        cfg = ScenarioConfig(
            n=rng.choice([3, 5]),
            t=1,
            workload=rng.choice(["snapshot_ops", "register_ops"]),
            op_count=rng.randint(2, 8),
            nregs=rng.choice([1, 2]),
            crash=rng.choice(["none", "random:1"]),
            seed=seed,
        )
        run = run_scenario(cfg)
        assert run.status == "quiescent"
        h = extract_history(run)
        w = check_linearizable_witness(h, timestamp_metadata(run))
        b = check_linearizable_bruteforce(h, bound=BRUTE_BOUND)
        assert b.status != "skip", (seed, b.line())
        assert w.status == b.status == "pass", (seed, w.line(), b.line())
        small += 1
    big_cfg = ScenarioConfig(n=5, t=2, workload="snapshot_ops",
                             op_count=WITNESS_OPS, nregs=3, seed=1,
                             step_budget=10**7)
    run = run_scenario(big_cfg)
    assert run.status == "quiescent"
    h = extract_history(run)
    assert len(h.ops) == WITNESS_OPS
    v = check_linearizable_witness(h, timestamp_metadata(run))
    assert v.status == "pass", v.line()
    print(f"criterion 3: PASS - {small} dual-checked histories, "
          f"witness at {WITNESS_OPS} ops")


def test_criterion_4_resiliency_boundary():
    """A majority of early crashes blocks every surviving broadcast forever;
    any minority leaves all of them completing."""
    for n in (3, 5, 7):
        majority = -(-n // 2)
        minority = (n - 1) // 2
        for seed in range(3):
            crash = "explicit:" + ",".join(f"{p}@{p - 1}" for p in range(1, majority + 1))
            cfg = ScenarioConfig(n=n, t=minority, workload="raw_broadcast",
                                 op_count=2 * n, crash=crash, seed=seed,
                                 step_budget=STALL_BUDGET)
            run = run_scenario(cfg)
            assert run.status != "quiescent", (n, seed, run.status)
            assert run.steps <= STALL_BUDGET
            for i in range(1, n + 1):
                if i not in run.faulty:
                    assert run.completed[i] == set(), (n, seed, i)

            crash = "explicit:" + ",".join(f"{p}@{p - 1}" for p in range(1, minority + 1))
            cfg = ScenarioConfig(n=n, t=minority, workload="raw_broadcast",
                                 op_count=2 * n, crash=crash if minority else "none",
                                 seed=seed, step_budget=STALL_BUDGET)
            run = run_scenario(cfg)
            assert run.status == "quiescent", (n, seed, run.status)
            for ev in run.events:
                if ev.kind == "bcast" and ev.proc not in run.faulty:
                    assert MsgId.parse(ev.payload["id"]) in run.completed[ev.proc]
    print("criterion 4: PASS - majority crash stalls, minority crash completes, "
          "n in {3,5,7}")


def _terminal_suite(world, scripts):
    cfg = ScenarioConfig(n=2, t=0, workload="rw_equivalence", op_count=0)
    run = RunData(cfg, [], "quiescent")
    run.logs = {i: [frozenset(m.id for m in s) for s in world.procs[i].log]
                for i in world.procs}
    run.broadcasts = {m.id: (m.id.sender, m.payload)
                      for ms in scripts.values() for m in ms}
    run.completed = {i: set() for i in world.procs}
    all_ids = {m.id for ms in scripts.values() for m in ms}
    for sets in run.logs.values():
        assert (set().union(*sets) if sets else set()) == all_ids
    for c in (check_validity, check_integrity, check_ms_ordering, check_containment):
        assert c(run).status == "pass", (c(run).line(), run.logs)


def test_criterion_5_shared_memory_equivalence():
    """The construction from single-writer snapshots: exhaustive for n=2 with
    up to 3 messages, randomized with up to n-1 crashes for n in {3,5}."""
    terminals_checked = 0
    for c1 in range(4):
        for c2 in range(4):
            if not 1 <= c1 + c2 <= 3:
                continue
            scripts = {
                1: [AppMessage(MsgId(1, k), f"1.{k}".encode()) for k in range(c1)],
                2: [AppMessage(MsgId(2, k), f"2.{k}".encode()) for k in range(c2)],
            }
            for mem in ("atomic", "sc"):
                terminals, _ = explore_rw(2, scripts, mem)
                for world in terminals:
                    _terminal_suite(world, scripts)
                terminals_checked += len(terminals)
    assert terminals_checked == 562

    randomized = 0
    for seed in range(RW_SEEDS):
        rng = random.Random(f"c5:{seed}")
        n = rng.choice([3, 5])
        k = rng.randint(0, n - 1)
        cfg = ScenarioConfig(n=n, t=(n - 1) // 2, workload="rw_equivalence",
                             op_count=rng.randint(3, 10),
                             mem=rng.choice(["atomic", "sc"]),
                             crash=f"random:{k}" if k else "none", seed=seed)
        run = run_scenario(cfg)
        assert run.status == "quiescent", (seed, run.status)
        for c in (check_validity, check_integrity, check_ms_ordering, check_containment):
            assert c(run).status == "pass", (seed, c(run).line())
        unions = {i: frozenset().union(*s) if s else frozenset()
                  for i, s in run.logs.items()}
        live = {unions[i] for i in unions if i not in run.faulty}
        assert len(live) == 1, (seed, unions, run.faulty)
        randomized += 1
    assert randomized >= 1000
    print(f"criterion 5: PASS - {terminals_checked} exhaustive interleavings, "
          f"{randomized} randomized crash runs")


def _bcasts_per_op(events):
    """(proc, seq) -> (op kind, scd-broadcasts issued while it ran)."""
    open_ops, out = {}, {}
    for ev in events:
        if ev.kind == "op_invoke":
            open_ops[ev.proc] = (int(ev.payload["seq"]), ev.payload["op"], 0)
        elif ev.kind == "bcast" and ev.proc in open_ops:
            seq, kind, c = open_ops[ev.proc]
            open_ops[ev.proc] = (seq, kind, c + 1)
        elif ev.kind == "op_return":
            seq, kind, c = open_ops.pop(ev.proc)
            out[(ev.proc, seq)] = (kind, c)
    return out


def test_criterion_6_register_variants():
    """Register layers stay linearizable, relaxed variants stay sequentially
    consistent, and the relaxed write saves one broadcast of two."""
    for seed in range(40):
        rng = random.Random(f"c6:{seed}")
        for wl in ("register_ops", "swmr_register_ops"):
            cfg = ScenarioConfig(n=3, t=1, workload=wl, op_count=rng.randint(2, 8),
                                 writer=rng.randint(1, 3),
                                 crash=rng.choice(["none", "random:1"]), seed=seed)
            run = run_scenario(cfg)
            assert run.status == "quiescent"
            h = extract_history(run)
            w = check_linearizable_witness(h, timestamp_metadata(run))
            b = check_linearizable_bruteforce(h, bound=BRUTE_BOUND)
            assert w.status == b.status == "pass", (wl, seed, w.line(), b.line())
        for wl in ("sc_register_ops", "sc_snapshot_ops"):
            cfg = ScenarioConfig(n=3, t=1, workload=wl, op_count=rng.randint(4, 12),
                                 nregs=rng.choice([1, 2]), seed=seed)
            run = run_scenario(cfg)
            assert run.status == "quiescent"
            v = check_sequentially_consistent(extract_history(run))
            assert v.status == "pass", (wl, seed, v.line())

    relaxed = ScenarioConfig(n=3, t=1, workload="sc_register_ops", op_count=12, seed=2)
    full = ScenarioConfig(n=3, t=1, workload="register_ops", op_count=12, seed=2)
    per_op_sc = _bcasts_per_op(run_scenario(relaxed).events)
    per_op_at = _bcasts_per_op(run_scenario(full).events)
    assert {c for kind, c in per_op_sc.values() if kind == "write"} == {1}
    assert {c for kind, c in per_op_sc.values() if kind == "read"} == {0}
    assert {c for kind, c in per_op_at.values() if kind == "write"} == {2}
    assert {c for kind, c in per_op_at.values() if kind == "read"} == {1}
    print("criterion 6: PASS - 160 variant runs checked, relaxed write costs "
          "1 broadcast vs 2")


def _fabricated(logs, n=3):
    cfg = ScenarioConfig(n=n, t=(n - 1) // 2, workload="raw_broadcast", op_count=0)
    run = RunData(cfg, [], "quiescent")
    run.logs = {i: [frozenset(MsgId(1 + k % n, k) for k in s) for s in seq]
                for i, seq in logs.items()}
    for i in range(1, n + 1):
        run.logs.setdefault(i, [])
    run.broadcasts = {m: (m.sender, b"x")
                      for seq in run.logs.values() for s in seq for m in s}
    run.completed = {i: set() for i in run.logs}
    return run


def test_criterion_7_checker_mutation_fixtures():
    """Every checker rejects its dedicated corrupted fixture."""
    fails = {}

    run = _fabricated({1: [{1}]})
    run.broadcasts = {}
    fails["validity"] = check_validity(run)

    fails["integrity"] = check_integrity(_fabricated({1: [{1}, {2, 1}]}))

    # two processes deliver a message pair in opposite strict orders
    fails["ms_ordering"] = check_ms_ordering(
        _fabricated({1: [{1, 2}, {3, 4, 5}], 2: [{1, 3}, {2}]})
    )

    fails["containment"] = check_containment(_fabricated({1: [{1}], 2: [{2}]}))

    missing = _fabricated({1: [{1}], 2: [], 3: [{1}]})
    for mid, (sender, _) in missing.broadcasts.items():
        missing.completed[sender].add(mid)
    fails["termination"] = check_termination(missing)

    run = run_scenario(
        ScenarioConfig(n=3, t=1, workload="register_ops", op_count=6, seed=4)
    )
    h = extract_history(run)
    meta = timestamp_metadata(run)
    assert check_linearizable_witness(h, meta).status == "pass"
    bad = copy.deepcopy(h)
    victim = next(o for o in bad.ops if o.kind == "read" and o.return_idx is not None)
    victim.result_values = (b"fabricated",)
    fails["linearizable_witness"] = check_linearizable_witness(bad, meta)
    fails["linearizable_bruteforce"] = check_linearizable_bruteforce(bad)

    for prop, verdict in fails.items():
        assert verdict.status == "fail", (prop, verdict.line())
        assert verdict.prop == prop
    print(f"criterion 7: PASS - {len(fails)} checkers each reject their "
          "corrupted fixture")


def test_criterion_8_determinism_and_replay(tmp_path):
    """Identical bytes on re-run; verdicts from a stored trace match the
    verdicts on the RunData the run filled, for every workload."""
    configs = [
        ScenarioConfig(n=3, t=1, workload="raw_broadcast", op_count=8, seed=3),
        ScenarioConfig(n=5, t=2, workload="snapshot_ops", op_count=10, nregs=2,
                       crash="random:2", seed=7),
        ScenarioConfig(n=3, t=1, workload="register_ops", op_count=9,
                       crash="explicit:2@12:4", delay="slow:1", seed=11),
        ScenarioConfig(n=3, t=1, workload="rw_equivalence", op_count=5, mem="sc",
                       crash="random:1", seed=5),
        ScenarioConfig(n=3, t=1, workload="sc_register_ops", op_count=8, seed=9),
        ScenarioConfig(n=4, t=1, workload="swmr_register_ops", op_count=9, writer=3,
                       crash="explicit:1@20:2", seed=13),
        ScenarioConfig(n=5, t=2, workload="sc_snapshot_ops", op_count=10, nregs=3,
                       crash="random:2", delay="fifo", seed=15),
    ]
    assert {cfg.workload for cfg in configs} == set(WORKLOADS)
    for k, cfg in enumerate(configs):
        first = Simulator(cfg).run()
        second = Simulator(cfg).run()
        assert first.text.splitlines(True) == second.text.splitlines(True), cfg
        live = [v.line() for v in evaluate_run(first)]
        path = tmp_path / f"replay{k}.trace"
        path.write_text(first.text)
        stored = [v.line() for v in evaluate_run(load_run(parse_trace(path.read_text())))]
        assert stored == live, cfg
        assert all("|fail|" not in line for line in live), (cfg, live)
    print(f"criterion 8: PASS - {len(configs)} configs byte-stable with "
          "matching replay verdicts")
