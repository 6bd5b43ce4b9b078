"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench -p "test_*.py"

Run from the root of a checkout; the tests import scdkit from src/.
"""
from __future__ import annotations

import json
import os
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from scdkit import scd_mp  # noqa: E402
from scdkit.sim import ScenarioConfig  # noqa: E402


def benchmark_file() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        clock = FakeClock()
        tr = tracing.Tracer(clock)

        def leaf():
            clock.now += 1.0

        def middle():
            clock.now += 2.0
            leaf()
            leaf()

        def top():
            clock.now += 4.0
            middle()
            clock.now += 8.0

        leaf = tr.wrap(leaf, "leaf")
        middle = tr.wrap(middle, "middle")
        tr.run(0, tr.wrap(top, "top"))
        totals = tr.totals()
        self.assertEqual(totals["leaf"], [2, 2.0, 2.0])
        self.assertEqual(totals["middle"], [1, 4.0, 2.0])
        self.assertEqual(totals["top"], [1, 16.0, 12.0])
        self.assertEqual(totals[tracing.RUN_SPAN], [1, 16.0, 0.0])
        self.assertEqual(set(tr.run_id), {0})

    def test_span_closes_when_the_call_raises(self):
        clock = FakeClock()
        tr = tracing.Tracer(clock)

        def boom():
            clock.now += 3.0
            raise KeyError("x")

        with self.assertRaises(KeyError):
            tr.wrap(boom, "boom")()
        self.assertEqual(tr.totals()["boom"], [1, 3.0, 3.0])
        self.assertEqual(tr._stack, [])


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(run.percentile(list(range(1, 101)), 90), 90)
        self.assertIsNone(run.percentile(list(range(1, 100)), 90))
        self.assertIsNone(run.percentile([], 50))
        self.assertEqual(run.percentile(list(range(1, 21)), 50), 10)
        self.assertIsNone(run.percentile(list(range(1, 20)), 50))


class WrapperTest(unittest.TestCase):
    def test_install_and_uninstall_restore_every_original(self):
        tracing.assert_unwrapped()
        original = scd_mp.purge_blocked
        tr = tracing.Tracer()
        tr.install()
        try:
            self.assertIsNot(scd_mp.purge_blocked, original)
            with self.assertRaises(RuntimeError):
                tracing.assert_unwrapped()
        finally:
            tr.uninstall()
        self.assertIs(scd_mp.purge_blocked, original)
        tracing.assert_unwrapped()

    def _main_seeing_wrappers(self, trace: int):
        seen = []
        fuzz = workloads.WORKLOADS["fuzz_mix"]
        real_run = fuzz.run

        def spy(cfg):
            try:
                tracing.assert_unwrapped()
                seen.append(False)
            except RuntimeError:
                seen.append(True)
            return real_run(cfg)

        with mock.patch.object(fuzz, "run", spy), mock.patch.object(run, "SETUP_PROBES", 1), \
                mock.patch("builtins.print") as printed:
            self.assertEqual(run.main(["--workload", "fuzz_mix", "--seed", "0",
                                       "--seconds", "0", "--trace", str(trace)]), 0)
        summary = json.loads(printed.call_args_list[-2].args[0][len("summary "):])
        result = json.loads(printed.call_args_list[-1].args[0])
        self.assertTrue(result["correct"])
        self.assertTrue(summary["deterministic"])
        return seen, summary, result

    def test_untraced_run_has_no_wrapper_installed(self):
        seen, summary, result = self._main_seeing_wrappers(0)
        # every run of the window, then the untraced replay
        self.assertEqual(len(seen), result["attempted"] + summary["replayed_runs"])
        self.assertNotIn(True, seen)
        names = {m["name"] for m in benchmark_file()["end_to_end"]}
        self.assertEqual(set(result["metrics"]), names)

    def test_traced_run_wraps_then_restores(self):
        seen, summary, result = self._main_seeing_wrappers(1)
        self.assertEqual(seen, [True] * result["attempted"] + [False] * summary["replayed_runs"])
        names = {m["name"] for m in benchmark_file()["per_layer"]}
        self.assertEqual(set(result["metrics"]), names)
        tracing.assert_unwrapped()


class OutputCheckTest(unittest.TestCase):
    def test_sc_run_past_search_bound_counts_as_unchecked(self):
        fuzz = workloads.WORKLOADS["fuzz_mix"]
        big = ScenarioConfig(n=3, t=1, workload="sc_register_ops", op_count=24, seed=1)
        outcome = fuzz.judge(big, fuzz.run(big))
        self.assertFalse(outcome.failed)
        self.assertIs(outcome.unchecked, True)
        small = ScenarioConfig(n=3, t=1, workload="sc_register_ops", op_count=8, seed=1)
        self.assertIs(fuzz.judge(small, fuzz.run(small)).unchecked, False)

    def test_fanout_flags_a_lost_send(self):
        fanout = workloads.WORKLOADS["fanout"]
        cfg = ScenarioConfig(n=3, t=1, workload="raw_broadcast", op_count=4, seed=2)
        raw = fanout.run(cfg)
        self.assertFalse(fanout.judge(cfg, raw).failed)
        events = raw[0].events
        events.remove(next(ev for ev in events if ev.kind == "send"))
        self.assertTrue(fanout.judge(cfg, raw).failed)

    def test_explore_expects_562_terminals_on_the_criterion_5_set(self):
        ex = workloads.WORKLOADS["explore"]
        self.assertEqual(set(ex.TERMINALS), set(ex.SPLITS))
        total = sum(2 * count for split, count in ex.TERMINALS.items() if split != (2, 2))
        self.assertEqual(total, 562)
        job = next(j for j in ex.rounds(0)[0] if (j.c1, j.c2) == (1, 1))
        raw = ex.run(job)
        self.assertFalse(ex.judge(job, raw).failed)
        self.assertTrue(ex.judge(job, (raw[0][:-1],) + raw[1:]).failed)

    def test_inputs_depend_only_on_the_seed(self):
        for wl in workloads.WORKLOADS.values():
            self.assertEqual(repr(wl.rounds(7)), repr(wl.rounds(7)))
            self.assertNotEqual(repr(wl.rounds(7)), repr(wl.rounds(8)))


class BenchmarkFileTest(unittest.TestCase):
    def test_per_layer_list_matches_the_tracer(self):
        self.assertEqual(benchmark_file()["per_layer"], tracing.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
