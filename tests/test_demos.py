"""Frozen demo outputs: the sha256 of each demo's stdout.

Every demo is deterministic, so a change to any printed value, label or
ordering changes its digest. A change that means to alter a demo's
output records the new digest here with the reason. Each demo runs with
warnings as errors, as the suite itself does (pyproject.toml), since that
setting does not reach a subprocess.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "01_contacts_from_structure.py": "bc4faf607087e943f5e61d9c9bb1c7069e995195ce8a0efd66b5be8bef149c35",
    "02_utility_and_ranking.py": "e41725c7211280de99282fa9b5e9094bc57fcd0499644a3815de199ba6647def",
    "03_condorcet_cycle.py": "fe09868799f37f25bd5a7d79787317b429f7a3bc1fbaef4b46c762b8f2897884",
    "04_axiom_audits.py": "e1c19f2f0cedf510667e78e4e345210ea36ba00c05ff339819a76e2c76355f8b",
    "05_proximity_and_continuity.py": "e2b4b6d048e9db1d77a1ba0424536996bafa28145c16f0358bbfb76be5840f13",
    "06_single_peaked_escape.py": "c15ee6819f8c8199d8f658cc59790b6425cc00ed628b6eb0f60953600bd6cf53",
    "07_utilitarian_and_may.py": "fd33247480c2b54bdf1fd9c27bd13d5a573152b05df070a0629ad8d5759426ce",
}


def test_every_demo_is_frozen():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output(name):
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / name)],
        capture_output=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]
