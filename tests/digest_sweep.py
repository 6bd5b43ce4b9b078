"""Determinism sweep: one digest over the traces and verdicts of 504 configs,
one over 27 configs at the scale of perfbench's `fanout`, and one over the
exhaustive explorer's results.

    python tests/digest_sweep.py            # exit 0 when all three digests are pinned
    python tests/digest_sweep.py --print    # print the digests only

Needs only the standard library and this checkout's src/, so it runs on any
supported Python without pytest.  The configs cover the 7 workloads, n 2-7,
the uniform, fifo and slow:1 delay policies, and four crash schedules each:
none, random:K, explicit crashes, and explicit crashes whose keep cuts
interrupt a handler.  For each run the digest takes the rendered trace and
the verdict lines judged from the RunData the run filled.  Each run must
also render the same text from its records as from the simulator's log,
parse back to the rows of that log, also when the parser reads its lines
in chunks of 7 characters (so chunk ends fall after nearly every line), and
get the same verdicts back from its parsed trace; a mismatch exits 1.  So
does a step delta of the simulated or the parsed log that is negative, or
deltas that do not add up to the run's steps, and an item of either log
that the cyclic collector still tracks after a gc.collect() call: the
items are ints, strings, None and tuples of strings, which it untracks.

The fanout digest runs the same checks over raw_broadcast at n = 11, 13 and
15 with 4n broadcasts, under the three delay policies, crash-free, with
random:t crashes and with t explicit crashes whose keep cuts interrupt a
handler.  Its buffers hold many entries at once, which the small configs
never reach, so it guards the SCD buffer's stored counts.

The explorer digest takes, for each of 22 explorations, the state count and
every terminal's per-process delivery logs, one line per terminal, with the
lines sorted: the pin holds whatever order the search finds terminals in,
and still changes with any state count or outcome.  The explorations are
explore_rw at n = 2 over the acceptance criterion-5 splits (1 to 3
messages) and the 2+2 split, and at n = 3 over 1+1+0, in both memory modes.
"""
from __future__ import annotations

import gc
import hashlib
import random
import sys
from itertools import product
from pathlib import Path

# Run as a script, the sweep checks this checkout's src/; imported by a test,
# it uses whichever scdkit that test imports.
if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from scdkit import sim  # noqa: E402
from scdkit.check import evaluate_run, load_run  # noqa: E402
from scdkit.core import AppMessage, MsgId, format_id_set  # noqa: E402
from scdkit.sim import (MP_WORKLOADS, RW_WORKLOADS, ScenarioConfig,  # noqa: E402
                        TraceLog, explore_rw, parse_trace, render_trace, run_scenario)

PINNED = "644444e2be96efbb"
FANOUT_PINNED = "b185d29713bafc34"
EXPLORE_PINNED = "f1cf3ec7a6ca4845"
CRASHES = ("none", "random", "explicit", "explicit-keep")


def configs():
    """The 504 configs, in a fixed order, each drawn from its own seed."""
    for workload in MP_WORKLOADS + RW_WORKLOADS:
        for n in range(2, 8):
            for delay in ("uniform", "fifo", "slow:1"):
                for crash in CRASHES:
                    rng = random.Random(f"sweep:{workload}:{n}:{delay}:{crash}")
                    victims = rng.sample(range(1, n + 1), rng.randint(1, n - 1))
                    if crash == "random":
                        crash = f"random:{len(victims)}"
                    elif crash.startswith("explicit"):
                        keep = crash == "explicit-keep"
                        crash = "explicit:" + ",".join(
                            f"{p}@{rng.randrange(4 * n * n)}"
                            + (f":{rng.randint(0, n)}" if keep else "")
                            for p in victims)
                    yield ScenarioConfig(
                        n=n, t=(n - 1) // 2, workload=workload,
                        op_count=rng.randint(1, 2 * n), crash=crash, delay=delay,
                        seed=rng.randrange(2**31), nregs=rng.randint(1, 3),
                        mem=rng.choice(["atomic", "sc"]), writer=rng.randint(1, n))


def fanout_configs():
    """The 27 fanout-scale configs, in a fixed order, each from its own seed."""
    for n in (11, 13, 15):
        t = (n - 1) // 2
        for delay in ("uniform", "fifo", "slow:1"):
            for crash in ("none", "random", "explicit-keep"):
                rng = random.Random(f"fanout:{n}:{delay}:{crash}")
                if crash == "random":
                    crash = f"random:{t}"
                elif crash == "explicit-keep":
                    crash = "explicit:" + ",".join(
                        f"{p}@{rng.randrange(4 * n * n * n)}:{rng.randint(0, n)}"
                        for p in sorted(rng.sample(range(1, n + 1), t)))
                yield ScenarioConfig(n=n, t=t, workload="raw_broadcast", op_count=4 * n,
                                     crash=crash, delay=delay, seed=rng.randrange(2**31))


def parse_in_small_chunks(text: str) -> TraceLog:
    """parse_trace(text) with the parser's chunk length cut to 7 characters."""
    default, sim._CHUNK_CHARS = sim._CHUNK_CHARS, 7
    try:
        return parse_trace(text)
    finally:
        sim._CHUNK_CHARS = default


def sweep(cfgs) -> tuple:
    """(hex digest, number of configs) over the runs of `cfgs`."""
    digest = hashlib.sha256()
    count = 0
    for cfg in cfgs:
        run = run_scenario(cfg)
        text = run.text
        if render_trace(TraceLog.of(run.events)) != text:  # an entry per record
            raise SystemExit(f"records render unlike the log: {cfg}")
        log = parse_trace(text)
        if log.rows != run.events.rows:
            raise SystemExit(f"parsed trace unlike the simulator's log: {cfg}")
        if parse_in_small_chunks(text).rows != log.rows:
            raise SystemExit(f"trace parsed in small chunks unlike in whole ones: {cfg}")
        for rows in (run.events.rows, log.rows):
            deltas = rows[::5]
            if min(deltas) < 0 or sum(deltas) != run.steps:
                raise SystemExit(f"step deltas negative or not summing to the steps: {cfg}")
        # one collection untracks every fields tuple, and the log's other
        # items are never tracked
        gc.collect()
        if any(map(gc.is_tracked, run.events.rows + log.rows)):
            raise SystemExit(f"a log item is still tracked by the collector: {cfg}")
        verdicts = "".join(v.line() + "\n" for v in evaluate_run(run))
        parsed = "".join(v.line() + "\n" for v in evaluate_run(load_run(log)))
        if parsed != verdicts:
            raise SystemExit(f"parsed trace judged unlike the live run: {cfg}")
        digest.update(text.encode())
        digest.update(verdicts.encode())
        count += 1
    return digest.hexdigest()[:16], count


def scripts_for(*counts) -> dict:
    """Scripts for processes 1..len(counts), counts[i-1] messages each."""
    return {i: [AppMessage(MsgId(i, k), f"{i}.{k}".encode()) for k in range(c)]
            for i, c in enumerate(counts, start=1)}


def terminal_lines(terminals) -> str:
    """Every terminal's per-process delivery logs, one line per terminal,
    the lines sorted."""
    return "".join(sorted(" ".join(
        f"p{i}=" + "/".join(format_id_set(m.id for m in s) for s in p.log)
        for i, p in world.procs.items()) + "\n" for world in terminals))


def explore_sweep() -> tuple:
    """(hex digest, number of explorations)."""
    digest = hashlib.sha256()
    count = 0
    splits = [(c1, c2) for c1 in range(4) for c2 in range(4) if 1 <= c1 + c2 <= 3]
    for counts, mem in product(splits + [(2, 2), (1, 1, 0)], ("atomic", "sc")):
        terminals, states = explore_rw(len(counts), scripts_for(*counts), mem)
        head = f"{'+'.join(map(str, counts))}|{mem}|states={states}|terminals={len(terminals)}\n"
        digest.update((head + terminal_lines(terminals)).encode())
        count += 1
    return digest.hexdigest()[:16], count


def main(argv) -> int:
    got, count = sweep(configs())
    print(f"digest|{got}|configs={count}|python={sys.version.split()[0]}")
    fanout, fanout_count = sweep(fanout_configs())
    print(f"fanout|{fanout}|configs={fanout_count}")
    explored, jobs = explore_sweep()
    print(f"explore|{explored}|jobs={jobs}")
    if "--print" in argv:
        return 0
    status = 0
    for name, digest, pinned in (("digest", got, PINNED), ("fanout", fanout, FANOUT_PINNED),
                                 ("explore", explored, EXPLORE_PINNED)):
        if digest != pinned:
            print(f"error: {name} digest {digest} != pinned {pinned}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
