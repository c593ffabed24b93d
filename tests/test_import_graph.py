"""scipy stays out of the import graph of everything that fits no model.

Loading ``scipy.stats`` costs about a second and roughly doubles a
capture-only process's RSS, and every ``keddah`` command and every
spawn-pool worker would pay it.  Only the model stage calls scipy, so
it is imported inside the functions that do.  A fresh interpreter is
needed: in the test process some other test has long since loaded it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_CHILD = """
import json
import sys

import repro.api
import repro.cli
import repro.experiments.pipelines
import repro.experiments.runner
import repro.generation.replay
import repro.modeling


def loaded():
    return sorted(name for name in sys.modules
                  if name == "scipy" or name.startswith("scipy."))


before = loaded()
fitted = repro.modeling.fit_family("gamma", [1.0, 2.0, 3.5, 4.0, 7.25])
print(json.dumps({"before": before, "after": loaded(),
                  "family": fitted.family}))
"""


def test_scipy_loads_only_when_a_model_is_fitted():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, "-c", _CHILD], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.strip().splitlines()[-1])
    assert report["before"] == [], (
        "a module on the capture/replay/CLI path imports scipy at top "
        f"level: {report['before'][:5]}")
    assert "scipy.stats" in report["after"]
    assert report["family"] == "gamma"
