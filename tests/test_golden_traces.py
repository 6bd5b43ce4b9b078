"""Golden trace digests: the seed -> trace mapping, pinned byte for byte.

The configs cover every workload (rw_equivalence in both memory modes) under
a mix of delay policies and crash schedules, including mid-broadcast cuts,
plus a single writer other than p1, register workloads given nregs=2, and
broadcasts at n = 11 and 13 under each delay policy.  A refactor that keeps
the determinism contract keeps every digest; a change that moves traces on
purpose must say so and re-pin them.  Beside each trace
digest sits the digest of its evaluate_run verdict lines, judged from the
RunData the run filled, from its events and from the rendered trace parsed
back, which pins the verdicts the same way.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scdkit.check import evaluate_run, load_run
from scdkit.sim import ScenarioConfig, parse_trace, render_trace, run_scenario

GOLDEN = [
    (dict(n=5, t=2, workload="raw_broadcast", op_count=10, crash="random:2", seed=11),
     "a27351864e638f2b53a64df5c2c026d63b01bc632b032c7502d10c5ceebf65c4",
     "4bf1ce83f1e136be43fa10f7aab264769f5087908ceb6b01e15d246b3622dfc7"),
    (dict(n=3, t=1, workload="snapshot_ops", op_count=8, nregs=2, delay="fifo",
          crash="explicit:2@40:1", seed=3),
     "9e8ea61a7dd4c5cca8c854076063349b6aa238b8c2234dd0b8a2fea7c5ad931a",
     "70cebab6a66b9dae578dbb72f290d6de9932b3005808b0cc3a34d39c7c9b0062"),
    (dict(n=5, t=2, workload="register_ops", op_count=8, delay="slow:1",
          crash="random:1", seed=7),
     "ed3076afbf07403d4a3327facf1ca24a81df78ea82ddd23507e242306476a055",
     "75899b8d6831021867b81be010299abb23701625bb6b253d731831b648c968c8"),
    (dict(n=3, t=1, workload="swmr_register_ops", op_count=8, writer=2,
          crash="explicit:3@25:0", seed=5),
     "96d920bcc1e09ec462becc4d5f5334eeee769886ca93b6d22635c62adbabe8d3",
     "99642a279692616e1ad2e0022c37fbdcaaa974fefc71c36a24495cee38691855"),
    (dict(n=3, t=1, workload="sc_register_ops", op_count=10, delay="fifo",
          crash="random:1", seed=6),
     "2bf5814a7a7f152947c63c22da49f8270ecf1e6a99dcf2f2f542dc3375af5637",
     "288d80152839c9cf6ae5e170f70488b35f7a5c111d402bfe9c6b176507ff17fa"),
    (dict(n=5, t=2, workload="sc_snapshot_ops", op_count=8, nregs=2, delay="slow:1",
          crash="explicit:4@15:2", seed=13),
     "5c421961d3ab4232fa5124b58c4e984e838180e0549fb5b668aad27e79def796",
     "af12e84bcc312c8b9194d0a405c0824bca382595be1d3e96137255b2b2feee9c"),
    (dict(n=3, t=1, workload="rw_equivalence", op_count=6, mem="atomic",
          crash="random:1", seed=17),
     "fe5ca6180662aaddeaed5a2c277e9a7310a2278a2ba273e66e5090f55641a079",
     "da6c86b3432f781b8b7941cbdd422e86df0273e2028f4991e2c3887df11d4905"),
    (dict(n=3, t=1, workload="rw_equivalence", op_count=6, mem="sc", delay="fifo",
          crash="explicit:1@30", seed=19),
     "a8535ebf91f4311953893d434d116dfd255af7a74a45a47a9d1a1ffe64203d2a",
     "da6c86b3432f781b8b7941cbdd422e86df0273e2028f4991e2c3887df11d4905"),
    # the last process as the single writer, under fifo and with the writer slow
    (dict(n=5, t=2, workload="swmr_register_ops", op_count=20, writer=5, delay="fifo",
          crash="explicit:1@50:2,3@120", seed=21),
     "a5df2e53121210017a68cb2cc7e4e4e3cb0583122a2775129d89b48a81cb3f8b",
     "b7566cfefdaed6006627f54745d0c0f612e7219193687bcce0131a82dadc287c"),
    (dict(n=5, t=2, workload="swmr_register_ops", op_count=20, writer=5, delay="slow:5",
          crash="explicit:2@30:3", seed=23),
     "bc31cd483d13df9cc01065618bf078df1ea1f6ef9d63bfd0ffb3b5c796a21253",
     "a6514eca41400f15df64fb48503a38cc7ab829b50a0e3881d17f97848319c04a"),
    (dict(n=7, t=3, workload="swmr_register_ops", op_count=21, writer=7, delay="fifo",
          crash="explicit:3@60:4,6@90", seed=29),
     "c13de26d866b55da85c7def07ca50b7d9e37defd5d3a732c58279763217f8084",
     "b32c4361ce2984d8716a7b576863d5aa6c859ec23f851e2c7da71a0a68c39365"),
    (dict(n=7, t=3, workload="swmr_register_ops", op_count=21, writer=7, delay="slow:7",
          crash="random:3", seed=31),
     "00c3c2f588ad6a44ff678bfa303d5e17697edff86e672d00e5f2c26112be7880",
     "52ecc065d403e4fe1fc2665f334b54c0ddf2a089573b86962f18fc76d531b15f"),
    # register workloads ignore nregs
    (dict(n=3, t=1, workload="register_ops", op_count=8, nregs=2, delay="fifo",
          crash="random:1", seed=37),
     "f0830ba4cf535beadde48872c6c746002ce8fba2bb46039178fd649e6ff4f3f3",
     "bc30027829272570f712fa747836a44867cbbef93b9c5e0745609095a56300f5"),
    (dict(n=5, t=2, workload="sc_register_ops", op_count=10, nregs=2,
          crash="explicit:1@20:2", seed=41),
     "06b56052d2433b846fb77f23f9d6080983f13a623202b71114e629cfeee83368",
     "ac09d22fca987684de50f9b3c4fbc52b4d92cd7326be10bc0fa67424fa262e83"),
    (dict(n=3, t=1, workload="rw_equivalence", op_count=6, delay="slow:1",
          crash="random:1", seed=43),
     "7fd3184c6e71b3e08cd4f4ab7057b8a8f0a094dd938595aa14d53c8b52f6aefb",
     "da6c86b3432f781b8b7941cbdd422e86df0273e2028f4991e2c3887df11d4905"),
    # broadcast at scale: most channels non-empty, large candidate sets
    (dict(n=13, t=6, workload="raw_broadcast", op_count=26,
          crash="explicit:2@300:5,5@900,7@1500:0,11@2000:9,13@2500:2", seed=47),
     "13154ea664ec547861f6b442e52c6eb6392c63cf70d18e5094b6e78ad1a51b2d",
     "bf9bfe1a85dd52c48f5be70d2d374b5b1e487293f4b5f7a2be399d2ce8a92700"),
    (dict(n=11, t=5, workload="raw_broadcast", op_count=22, delay="fifo",
          crash="explicit:4@700:3,9@1800", seed=53),
     "377f510b7edcafaffd0558878bd92282b80929c268ffb045c3b193eb721783cf",
     "3bdc86cd1c940c347f6d35218501d29a852ed32dc7e5a3343be9a78b12196285"),
    (dict(n=11, t=5, workload="raw_broadcast", op_count=22, delay="slow:1,2",
          crash="explicit:2@500:4,6@1200", seed=59),
     "852209cbdf3937bd321e33ff4fbd6bb319ae126feca4bf8f90047b107754b4a9",
     "3bdc86cd1c940c347f6d35218501d29a852ed32dc7e5a3343be9a78b12196285"),
]


def _case_ids(rows):
    ids = []
    for kw, *_ in rows:
        cid = f"{kw['workload']}-{kw.get('mem', kw.get('delay', 'uniform'))}"
        ids.append(f"{cid}-n{kw['n']}" if cid in ids else cid)
    return ids


@pytest.mark.parametrize("kw,digest,_", GOLDEN, ids=_case_ids(GOLDEN))
def test_trace_digest_is_pinned(kw, digest, _):
    res = run_scenario(ScenarioConfig(**kw))
    assert any(ev.kind == "crash" for ev in res.events), "config must exercise a crash"
    text = render_trace(res.events)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("kw,_,digest", GOLDEN, ids=_case_ids(GOLDEN))
def test_verdict_digest_is_pinned(kw, _, digest):
    res = run_scenario(ScenarioConfig(**kw))
    for run in (res, load_run(res.events), load_run(parse_trace(res.text))):
        text = "".join(v.line() + "\n" for v in evaluate_run(run))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


_HASH_SEED_ROWS = [GOLDEN[k] for k in (0, 1, 4, 7)]
_DIGESTS = """
import hashlib, json, sys
from scdkit.check import evaluate_run, load_run
from scdkit.sim import ScenarioConfig, parse_trace, render_trace, run_scenario
sha = lambda s: hashlib.sha256(s.encode()).hexdigest()
for kw in json.loads(sys.argv[1]):
    text = render_trace(run_scenario(ScenarioConfig(**kw)).events)
    events = parse_trace(text)
    verdicts = "".join(v.line() + "\\n" for v in evaluate_run(load_run(events)))
    print(sha(text), sha(render_trace(events)), sha(verdicts))
"""


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_digests_do_not_depend_on_the_hash_seed(hash_seed):
    """Every digest above is computed in one interpreter; string hashing,
    and so set and dict order over strings, changes with PYTHONHASHSEED."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", _DIGESTS, json.dumps([kw for kw, *_ in _HASH_SEED_ROWS])],
        env=env, capture_output=True, text=True, check=True).stdout
    want = [f"{trace} {trace} {verdicts}" for _, trace, verdicts in _HASH_SEED_ROWS]
    assert out.splitlines() == want
