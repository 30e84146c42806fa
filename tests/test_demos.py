"""Every demo script runs and prints exactly the bytes it printed before.

The digests are sha256 of each script's stdout, recorded before the forest
walk was shared by cycle cancelling, tree rounding and the oracle; a change
that moves a demo's output on purpose re-records its digest and says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_DIGESTS = {
    "forest_flows_and_bicriteria.py": "1f5c3b5e014851a2f2b292b5d90974463e2f01322c909f5d7e70bde3ef46ff41",
    "greedy_sink_independent.py": "7cf7d6b1a14856d069b433dfa83294678480dff9fe9a2758d221d05375b6ac85",
    "ratio_benchmark.py": "fac6882b34fbfcc87487bf3345ad27068a0027cffa099167d606049aed23a2de",
    "reduction_tour.py": "b24cb54da919c1a2c937c1b2af12618b45c5262186c4672d7db63111f5782ae7",
    "uniform_partition_and_certificate.py": "cfa183c27f646661083abec1a2fb03c7451a54ea5fcf55b10195f6a54b4c4147",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_prints_pinned_bytes(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_DIGESTS[name]
