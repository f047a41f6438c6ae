"""The suite's pytest configuration reports a failing Hypothesis test as a failure."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_failing_hypothesis_test_is_reported(tmp_path):
    # Hypothesis's failure report imports libcst, which can warn that
    # mypy_extensions.TypedDict is deprecated; under filterwarnings = ["error"]
    # alone that warning aborted the session with an INTERNALERROR and no summary
    (tmp_path / "test_fails.py").write_text(FAILING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert result.returncode == 1, result.stdout[-2000:] + result.stderr[-2000:]
    assert "1 failed" in result.stdout
