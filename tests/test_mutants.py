"""Protocol-mutant gate (DeMillo et al. 1978): the checkers must flag a
broken protocol, not just corrupted fixtures.

The broadcast mutants replace the threshold of the one blocking relation,
scd_mp.threshold, which the stored blocker counts, the delivery gate and the
purge all read, or shrink the delivery quorum that `forward` tests before an
entry becomes a candidate.  The object mutant is a write without its SYNC
round.  A run is killed when a verdict fails or the run raises an
AssertionError.  The configs are fixed: 100 runs
at n = 3, 5, 7, every odd one with a random minority crash.  The `fifo`
delay policy is left out: it delivers in global send order, so broadcasts
barely overlap and it kills no mutant.
"""
from __future__ import annotations

import pytest
from test_scd_mp import RELATIONS

from scdkit import scd_mp
from scdkit.check import evaluate_run, load_run
from scdkit.scd_mp import ScdProcess
from scdkit.shared_objects import SnapshotObject
from scdkit.sim import ScenarioConfig, run_scenario

CONFIGS = 100
MIN_KILLS = 90


def configs(delay: str, workload="raw_broadcast", op_count=20):
    for k in range(CONFIGS):
        n = (3, 5, 7)[k % 3]
        t = (n - 1) // 2
        yield ScenarioConfig(n=n, t=t, workload=workload, op_count=op_count,
                             crash="none" if k % 2 == 0 else f"random:{t}",
                             delay=delay, seed=k)


def verdicts(cfg: ScenarioConfig):
    """The run's verdicts by property, or None if the run raised an
    AssertionError."""
    try:
        return {v.prop: v for v in evaluate_run(load_run(run_scenario(cfg).events))}
    except AssertionError:
        return None


def killed(cfg: ScenarioConfig) -> bool:
    out = verdicts(cfg)
    return out is None or any(v.status == "fail" for v in out.values())


@pytest.mark.parametrize("delay", ["uniform", "slow:1"])
@pytest.mark.parametrize("relation", RELATIONS)
def test_checkers_flag_relation_mutants(monkeypatch, relation, delay):
    monkeypatch.setattr(scd_mp, "threshold", RELATIONS[relation])
    kills = sum(map(killed, configs(delay)))
    if relation == "real":
        assert kills == 0
    else:
        assert kills >= MIN_KILLS, f"{relation} under {delay}: {kills}/{CONFIGS} killed"


# kills out of 100 measured when the row was added; floors, not targets
HALF_QUORUM_KILLS = {"uniform": 60, "slow:1": 45}


@pytest.mark.parametrize("delay", HALF_QUORUM_KILLS)
def test_checkers_flag_the_half_quorum_mutant(monkeypatch, delay):
    """A message becomes a candidate once n // 2 processes forwarded it, one
    short of the strict majority the paper's delivery waits for."""
    real_init = ScdProcess.__init__

    def half_quorum(self, pid, n):
        real_init(self, pid, n)
        self._majority = n // 2

    monkeypatch.setattr(ScdProcess, "__init__", half_quorum)
    kills = sum(map(killed, configs(delay)))
    assert kills >= HALF_QUORUM_KILLS[delay], f"{kills}/{CONFIGS} killed"


def write_without_sync(self, r, value):
    """Mutant of SnapshotObject.begin_write: the WRITE is cast at once, so
    its tag can fall below one an earlier, finished write already took."""
    self._require_idle()
    return self._cast_write(r, value)


@pytest.mark.parametrize("delay", ["uniform", "slow:1"])
def test_witness_never_passes_what_bruteforce_fails(monkeypatch, delay):
    """register_ops at 10 ops, where the exhaustive search judges every run:
    on a mutant the witness may fail a history the search passes, but never
    pass one it fails.  Kills out of 100: 14 under uniform, 48 under slow:1."""
    monkeypatch.setattr(SnapshotObject, "begin_write", write_without_sync)
    wrong = []
    for cfg in configs(delay, workload="register_ops", op_count=10):
        out = verdicts(cfg) or {}
        pair = [out[p].status for p in ("linearizable_witness", "linearizable_bruteforce")
                if p in out]
        if pair == ["pass", "fail"]:
            wrong.append(cfg.seed)
    assert not wrong, f"witness passed what brute force failed, seeds {wrong}"
