"""Every BENCH_*.json at the repository root keeps the layout a reader of
the performance record relies on.

A BENCH file records one performance change: the layer it targets, what
changed, the command that measured it, the parent commit it was measured
against, the gated metrics (the end-to-end metrics of BENCHMARK.json), the
quartiles of each gated metric per workload on both sides, and the claim.
The claim's figures must follow from the quartiles and pairs recorded
beside it.
"""
from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
HIGHER = {m["name"]: m["better"] == "higher" for m in BENCHMARK["end_to_end"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
FILES = sorted(ROOT.glob("BENCH_*.json"))
TEXT_KEYS = ("layer", "change", "command", "parent_commit")


def test_bench_files_exist():
    assert FILES


@pytest.fixture(params=FILES, ids=[f.name for f in FILES])
def bench(request):
    return json.loads(request.param.read_text())


def test_describes_the_change(bench):
    for key in TEXT_KEYS:
        assert isinstance(bench.get(key), str) and bench[key].strip(), key
    assert re.fullmatch(r"[0-9a-f]{7,40}", bench["parent_commit"])
    assert "perfbench/run.py" in bench["command"]


def test_gated_metrics_are_the_benchmarks_end_to_end_metrics(bench):
    gated = bench["gated_metrics"]
    assert gated and len(set(gated)) == len(gated)
    assert set(gated) <= set(HIGHER)


def test_every_workload_has_quartiles_on_both_sides(bench):
    assert bench["workloads"]
    for name, wl in bench["workloads"].items():
        assert name in WORKLOADS, name
        for side in ("parent", "change"):
            for metric in bench["gated_metrics"]:
                q = wl[side][metric]
                assert q["q1"] <= q["median"] <= q["q3"], (name, side, metric)


def test_claim_follows_from_the_recorded_runs(bench):
    claim = bench["claim"]
    metric, workload = claim["metric"], claim["workload"]
    assert metric in bench["gated_metrics"]
    wl = bench["workloads"][workload]
    parent, change = wl["parent"][metric], wl["change"][metric]
    sign = 1 if HIGHER[metric] else -1
    gain = sign * (change["median"] - parent["median"])
    iqr = parent["q3"] - parent["q1"]
    assert claim["median_gain"] == pytest.approx(gain, abs=1e-3)
    assert claim["parent_iqr"] == pytest.approx(iqr, abs=1e-3)
    pairs = wl[f"{metric}_pairs"]
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    assert claim["change_wins"] == f"{wins} of {len(pairs)}"
    assert claim["met"] == (10 * wins >= 9 * len(pairs) and gain > iqr)
