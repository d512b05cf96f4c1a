"""The suite's own pytest configuration: a failing test is reported as a
failure, whatever code path the report takes."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_GIVEN = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 10
'''


def test_failing_given_test_is_reported_not_an_internal_error(tmp_path):
    # hypothesis's failure report imports modules that warn on import, and
    # the config turns warnings into errors
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_given.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed" in out
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
