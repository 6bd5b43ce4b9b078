"""scdkit benchmark: judged runs per second on four workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed makes the workload's inputs
(configs, scripts); the program receives only those.  The loop runs whole
rounds of jobs, one at a time in this one process, until S seconds have
passed (closed loop, one client).  Every run is judged and its outputs are
checked; afterwards the first round's runs are repeated untraced for about
a second and their trace text must match byte for byte.

--trace 0 reports the end-to-end metrics with no wrapper installed.  The
gated run times are expressed in durations of a fixed reference loop timed
between runs (`Reference`), because the speed of a shared machine drifts by
a quarter within minutes; the wall-clock figures are in the summary line.
--trace 1 wraps every scdkit module's entry points (see tracing.py) and
reports the per-layer metrics instead, plus the tracing overhead; the spans
are written to perfbench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it is the full summary,
including the metrics that only some workloads have.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 9
BEYOND = 10          # samples a reported percentile must leave above it
RERUN_SECONDS = 1.0  # untraced replay after the window
REFERENCE_CALLS = 7
REFERENCE_EVERY = 0.5


def percentile(samples, p: float):
    """Nearest-rank p-th percentile, or None when fewer than BEYOND samples
    lie above it."""
    n = len(samples)
    rank = math.ceil(p / 100 * n)
    if n == 0 or n - rank < BEYOND:
        return None
    return sorted(samples)[rank - 1]


def import_program():
    """Import scdkit from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "scdkit", "__init__.py")):
        raise SystemExit(f"error: no scdkit sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import scdkit
    if os.path.dirname(os.path.dirname(os.path.abspath(scdkit.__file__))) != SRC:
        raise SystemExit(f"error: imported scdkit from {scdkit.__file__}, not {SRC}")
    import tracing
    import workloads
    return tracing, workloads


class SetupProbe:
    """Times fresh processes that import scdkit, build the workload's inputs
    and exit: the set-up every run of this benchmark pays.  The probes are
    spread over the measurement window, between rounds, because the speed of
    a shared machine drifts within seconds; each probe runs alone, while this
    process waits for it."""

    def __init__(self, args):
        self.cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-only"]
        self.samples: list[float] = []

    def run_one(self) -> None:
        t0 = time.perf_counter()
        # no timeout: Popen.wait polls in steps of up to 50 ms when given one
        subprocess.run(self.cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        self.samples.append(time.perf_counter() - t0)

    def catch_up(self, fraction: float) -> None:
        """Run probes until their share of SETUP_PROBES matches `fraction`."""
        while len(self.samples) < min(SETUP_PROBES, 1 + int(fraction * (SETUP_PROBES - 1))):
            self.run_one()


def reference_loop() -> int:
    """A fixed piece of pure-Python work, timed between runs to follow the
    speed of a shared machine: list filtering and counting over small
    records, as in the protocol's purge loop, and dict/tuple churn, as in
    trace ingestion."""
    records = [[i, i % 5, i & 3] for i in range(300)]
    index = {}
    total = 0
    for k in range(8):
        kept = [r for r in records if r[1] != k % 5]
        total += sum(1 for r in kept if r[2] == k & 3)
        for r in kept[:120]:
            index[(r[0], k)] = (r[1], r[2])
    return total + len(index)


class Reference:
    """Samples of the reference loop's duration, one every REFERENCE_EVERY
    seconds of the window, each the median of REFERENCE_CALLS timed calls
    with the garbage collector off (so the program's heap does not leak in)."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = -math.inf

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            calls = []
            for _ in range(REFERENCE_CALLS):
                t0 = time.perf_counter()
                reference_loop()
                calls.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(statistics.median(calls))
        self.last = time.perf_counter()

    def due(self) -> None:
        if time.perf_counter() - self.last >= REFERENCE_EVERY:
            self.sample()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def measure(wl, rounds, seconds: float, tracer, failed_outcome, probe, ref) -> dict:
    """Run whole rounds until `seconds` have passed; judge every run."""
    times, outcomes = [], []
    first_round = []   # digest of each first-round run's trace text
    round_bytes = hashlib.sha256()
    t0 = time.perf_counter()
    r = 0
    while True:
        for job in rounds[r % len(rounds)]:
            k = len(times)
            ref.due()
            start = time.perf_counter()
            try:
                raw = tracer.run(k, wl.run, job) if tracer else wl.run(job)
            except Exception as exc:  # a run that raises counts as failed
                times.append(time.perf_counter() - start)
                outcomes.append(failed_outcome(exc))
                if r == 0:
                    first_round.append(None)
                continue
            times.append(time.perf_counter() - start)
            outcomes.append(wl.judge(job, raw))
            if r == 0:
                text = wl.trace_text(job, raw)
                first_round.append(digest(text))
                round_bytes.update(text.encode())
            del raw
        r += 1
        ref.sample()
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            break
        probe.catch_up(elapsed / seconds)
    return {
        "times": times,
        "outcomes": outcomes,
        "rounds": r,
        "wall": time.perf_counter() - t0,
        "first_round": first_round,
        "trace_sha256": round_bytes.hexdigest(),
    }


def replay(wl, first_round: list, digests: list) -> dict:
    """Repeat first-round runs untraced, in order, until RERUN_SECONDS have
    passed or the round is done."""
    times, same = [], True
    for job, want in zip(first_round, digests):
        start = time.perf_counter()
        try:
            raw = wl.run(job)
        except Exception:  # reported through `deterministic`
            raw = None
        times.append(time.perf_counter() - start)
        same = same and raw is not None and digest(wl.trace_text(job, raw)) == want
        del raw
        if sum(times) >= RERUN_SECONDS:
            break
    return {"times": times, "deterministic": same and bool(times)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, then exit (set-up probe)")
    args = ap.parse_args(argv)

    tracing, workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    rounds = wl.rounds(args.seed)
    if args.setup_only:
        return 0
    probe = SetupProbe(args)
    probe.catch_up(0.0)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    else:
        tracing.assert_unwrapped()
    try:
        ref = Reference()
        m = measure(wl, rounds, args.seconds, tracer, workloads.Outcome.raised, probe, ref)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracing.assert_unwrapped()
    probe.catch_up(1.0)
    setups = probe.samples

    # determinism probe: the first round's runs again, untraced, until
    # RERUN_SECONDS have passed; each must reproduce its trace bytes
    rerun = replay(wl, rounds[0], m["first_round"])
    times, outcomes = m["times"], m["outcomes"]
    runs = len(times)
    failed = sum(o.failed for o in outcomes)
    unchecked = [o.unchecked for o in outcomes if o.unchecked is not None]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "runs": runs,
        "rounds": m["rounds"],
        "window_s": m["wall"],
        "setup_s": statistics.median(setups),
        "setup_samples_s": setups,
        "runs_per_s": runs / sum(times),
        "run_p50_ms": statistics.median(times) * 1e3,
        "run_p90_ms": None,
        "failed_ratio": failed / runs,
        "unchecked_ratio": sum(unchecked) / len(unchecked) if unchecked else None,
        "peak_rss_mb": peak_rss_mb,
        "reference_ms": statistics.median(ref.samples) * 1e3,
        "reference_samples": len(ref.samples),
        "runs_per_kref": runs / sum(times) * statistics.median(ref.samples) * 1e3,
        "run_p50_refs": statistics.median(times) / statistics.median(ref.samples),
        "deterministic": rerun["deterministic"],
        "replayed_runs": len(rerun["times"]),
        "trace_sha256": m["trace_sha256"],
        "first_failures": [o.detail for o in outcomes if o.failed][:5],
    }
    p90 = percentile(times, 90)
    if p90 is not None:
        summary["run_p90_ms"] = p90 * 1e3
    if args.workload == "explore":
        summary["states_per_s"] = (sum(o.states for o in outcomes)
                                   / sum(o.explore_s for o in outcomes))

    if tracer:
        totals = tracer.totals()
        layers = tracing.layer_metrics(totals, tracer.counts, runs)
        untraced = sum(rerun["times"])
        traced = sum(times[: len(rerun["times"])])
        layers["trace.overhead_ratio"] = (traced - untraced) / untraced
        summary["trace_overhead_s"] = traced - untraced
        summary["dominant_self_share"] = tracing.dominant(totals, sum(times))
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans_path = os.path.join(HERE, "out", f"{args.workload}.spans.tsv.gz")
        tracer.write(spans_path)
        summary["spans"] = len(tracer.start)
        summary["spans_file"] = os.path.relpath(spans_path, ROOT)
        metrics = {spec["name"]: {"value": layers[spec["name"]], "unit": spec["unit"]}
                   for spec in tracing.PER_LAYER}
    else:
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit in (("runs_per_kref", "1/kref"), ("run_p50_refs", "ref"),
                                      ("peak_rss_mb", "MB"), ("setup_s", "s"))}
    print("summary " + json.dumps(summary))
    result = {
        "correct": failed == 0 and rerun["deterministic"],
        "attempted": runs,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
