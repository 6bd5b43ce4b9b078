"""Protocol-mutant gate (DeMillo et al. 1978): the checkers must flag a
broken SCD-broadcast, not just corrupted fixtures.

Each mutant replaces the one blocking relation, scd_mp._unblocked, which
both the delivery gate and the purge read.  A run is killed when a verdict
fails or the run raises an AssertionError.  The configs are fixed: 100
raw_broadcast runs of 20 ops at n = 3, 5, 7, every odd one with a random
minority crash.  The `fifo` delay policy is left out: it delivers in global
send order, so broadcasts barely overlap and it kills no mutant.
"""
from __future__ import annotations

import pytest
from test_scd_mp import RELATIONS

from scdkit import scd_mp
from scdkit.check import evaluate_run, load_run
from scdkit.sim import ScenarioConfig, run_scenario

CONFIGS = 100
MIN_KILLS = 90


def configs(delay: str):
    for k in range(CONFIGS):
        n = (3, 5, 7)[k % 3]
        t = (n - 1) // 2
        yield ScenarioConfig(n=n, t=t, workload="raw_broadcast", op_count=20,
                             crash="none" if k % 2 == 0 else f"random:{t}",
                             delay=delay, seed=k)


def killed(cfg: ScenarioConfig) -> bool:
    try:
        verdicts = evaluate_run(load_run(run_scenario(cfg).events))
    except AssertionError:
        return True
    return any(v.status == "fail" for v in verdicts)


@pytest.mark.parametrize("delay", ["uniform", "slow:1"])
@pytest.mark.parametrize("relation", RELATIONS)
def test_checkers_flag_relation_mutants(monkeypatch, relation, delay):
    monkeypatch.setattr(scd_mp, "_unblocked", RELATIONS[relation])
    kills = sum(map(killed, configs(delay)))
    if relation == "real":
        assert kills == 0
    else:
        assert kills >= MIN_KILLS, f"{relation} under {delay}: {kills}/{CONFIGS} killed"
