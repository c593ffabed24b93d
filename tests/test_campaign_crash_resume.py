"""A campaign SIGKILLed mid-run resumes from its capture store.

The store is the campaign's only checkpoint: the runner publishes each
point as it resolves, so a process killed while simulating point k+1
leaves points 1..k on disk.  Rerunning against the same store must
simulate only the n-k missing points and store exactly the bytes an
uninterrupted run stores.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

from repro.experiments.campaigns import CampaignConfig
from repro.experiments.runner import CampaignRunner, CapturePoint
from repro.experiments.store import CaptureStore, encode_entry
from tests.test_supervision import KillOncePoint

ROOT = Path(__file__).resolve().parents[1]
SMALL = CampaignConfig(nodes=4, hosts_per_rack=2)
POINTS, KILLED_AT = 4, 2  # n points; the (k+1)-th kills its process


def campaign_points(sentinel):
    """n grep points; the one at index KILLED_AT SIGKILLs on first contact."""
    points = [CapturePoint.from_campaign("grep", 0.0625, 700 + index, SMALL)
              for index in range(POINTS)]
    points[KILLED_AT] = KillOncePoint.from_campaign(
        "grep", 0.0625, 700 + KILLED_AT, SMALL, {"sentinel": str(sentinel)})
    return points


_CHILD = """
import sys
from repro.experiments.runner import CampaignRunner
from repro.experiments.store import CaptureStore
from tests.test_campaign_crash_resume import campaign_points

CampaignRunner(store=CaptureStore(sys.argv[1]), workers=1).run(
    campaign_points(sys.argv[2]))
"""


def test_killed_campaign_resumes_from_its_store(tmp_path):
    store_root, sentinel = tmp_path / "store", tmp_path / "kill.once"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    child = subprocess.run([sys.executable, "-c", _CHILD, str(store_root),
                            str(sentinel)], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == -signal.SIGKILL, child.stderr
    assert sentinel.exists()

    points = campaign_points(sentinel)
    store = CaptureStore(store_root)
    assert store.entry_count() == KILLED_AT
    assert [store.get(point.key_dict()) is not None for point in points] \
        == [index < KILLED_AT for index in range(POINTS)]

    resumed = CampaignRunner(store=store, workers=1)
    outcomes = resumed.run(points)
    assert resumed.manifest()["stats"]["simulated"] == POINTS - KILLED_AT
    assert resumed.manifest()["stats"]["store_hits"] == KILLED_AT

    clean_store = CaptureStore(tmp_path / "clean")
    clean = CampaignRunner(store=clean_store, workers=1)
    uninterrupted = clean.run(points)
    assert clean.manifest()["stats"]["simulated"] == POINTS
    for point, outcome, reference in zip(points, outcomes, uninterrupted):
        assert (encode_entry(point.key_dict(), *outcome)
                == encode_entry(point.key_dict(), *reference))
        assert (store.entry_path(point.key()).read_bytes()
                == clean_store.entry_path(point.key()).read_bytes())
