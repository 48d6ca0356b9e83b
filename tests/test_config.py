"""The pytest settings in pyproject.toml."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

INNER = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_hypothesis_test_is_reported(tmp_path):
    # Warnings are errors, but a deprecation warning that Hypothesis's report
    # hook meets must not turn a failing property test into an INTERNALERROR
    # that ends the session before the remaining tests run.
    (tmp_path / "test_inner.py").write_text(INNER)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_inner.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
