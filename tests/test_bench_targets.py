"""The benchmark's traced entry points still exist under the names it pins.

perfbench/tracing.py wraps each TARGETS entry by name: a method is looked up
in its class's own __dict__, a function as a module attribute.  A refactor
that moves or renames one breaks the traced run (`run.py --trace 1`) and the
untraced run's `assert_unwrapped`; this test makes it fail here instead.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from scdkit.sim import ScenarioConfig, run_scenario

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "module,cls,attr",
    [(m, c, a) for m, c, a, _ in tracing.TARGETS],
    ids=[f"{m}.{c or ''}.{a}" for m, c, a, _ in tracing.TARGETS],
)
def test_target_resolves(module, cls, attr):
    mod = importlib.import_module(module)
    if cls is None:
        assert callable(getattr(mod, attr, None)), f"{module}.{attr} is gone"
    else:
        owner = getattr(mod, cls)
        assert attr in vars(owner), f"{module}.{cls}.{attr} is not in the class body"
        assert callable(vars(owner)[attr])


def test_untraced_entry_points_are_unwrapped():
    tracing.assert_unwrapped()


# the spans whose per-layer metrics a small message-passing run must feed
_PER_STEP = ["sim.enabled_events", "sim.schedule_next", "sim.execute",
             "scd_mp.on_forward", "scd_mp.try_deliver", "scd_mp.purge_blocked"]


def test_traced_per_step_targets_run():
    """Each hooked protocol and scheduler target is still called on a small
    raw_broadcast run with one crash, through the wrappers a traced run
    installs: trimming a call layer cannot silently zero its metrics."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_scenario(ScenarioConfig(n=5, t=2, workload="raw_broadcast", op_count=10,
                                    crash="random:1", seed=3))
    finally:
        tracer.uninstall()
    calls = {name: row[0] for name, row in tracer.totals().items()}
    assert all(calls.get(name, 0) > 0 for name in _PER_STEP), calls
