"""The benchmark's tracer still binds to the package.

``perfbench/tracer.py`` wraps functions and methods of ``mhag`` by name.
A change that renames or stops binding one of them would otherwise show
only when the traced benchmark runs.  The tracer runs in a subprocess, so
its wrappers never reach this test session, and writes no bytecode next
to the benchmark's files.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, sys
import tracer
tr = tracer.install()
from mhag import run_verify, session_from_json
S = session_from_json(json.loads(sys.argv[1]))
run_verify(S, ["cograded", "lemma42"])
print(json.dumps({"metrics": tr.metrics(),
                  "from_rounds": list(tracer.FROM_ROUNDS)}))
"""


def test_tracer_binds_every_per_layer_metric():
    session = {"instance": {"kind": "group",
                            "group": {"kind": "symmetric", "n": 3}},
               "enum": {"mode": "sampled", "count": 20, "seed": 3}}
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(session)], env=env,
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    metrics = out["metrics"]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    # run.py fills the FROM_ROUNDS metrics from the rounds themselves.
    assert sorted(set(names) - set(metrics)) == sorted(out["from_rounds"])
    assert metrics["crossed.dcp_mul.calls"] > 0
