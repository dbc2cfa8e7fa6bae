"""The suite's own pytest settings: every warning is an error, yet a
failing Hypothesis test still reports as a failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

ONE_FAILING_ONE_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers(min_value=0, max_value=10))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_reports_as_a_failure(tmp_path):
    # the hypothesis plugin raises a DeprecationWarning while it reports a
    # failure; under filterwarnings = ["error"] alone, that ended the
    # session in INTERNALERROR (exit 3) with the failure unreported
    (tmp_path / "test_drawn.py").write_text(ONE_FAILING_ONE_PASSING)
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_drawn.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
