"""The benchmark's traced mode can still wrap every layer.

``perfbench/spans.py`` times the program from outside: it replaces entry
points by name -- methods on their classes, module functions in every
module that imported them.  Moving a kernel between modules or renaming
a method makes ``spans.install`` raise, which would break
``perfbench/run.py --trace 1`` without failing anything else.  The
wrappers patch classes process-wide, so the check runs in a subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import sys

import spans
from repro.core import run_willow

recorder = spans.Recorder()
spans.install(recorder)
for attr, modules in spans.BY_NAME.items():
    for name in modules:
        bound = getattr(sys.modules[name], attr)
        assert hasattr(bound, "__wrapped__"), f"{name}.{attr} not wrapped"
recorder.active = True
run_willow(n_ticks=3, seed=1, vectorized=True)
recorder.active = False
totals = recorder.layer_totals()
for layer in ("workload.sample", "power.allocate", "thermal.step", "core.fold"):
    assert totals.get(layer, {}).get("calls", 0) > 0, f"{layer}: no calls"
print("spans ok")
"""


def test_spans_install_wraps_the_array_tick():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "perfbench"), str(REPO_ROOT / "src")]
    )
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "spans ok"
