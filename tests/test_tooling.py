"""The pytest configuration itself: with warnings as errors, a failing
Hypothesis test is still reported as one failure of a finished session."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_a_failing_hypothesis_test_is_reported(tmp_path):
    test = tmp_path / "test_fails.py"
    test.write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n"
    )
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(ROOT, "pyproject.toml"), str(test)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    report = out.stdout + out.stderr
    assert out.returncode == 1, report
    assert "INTERNALERROR" not in report
    assert "1 failed" in report
