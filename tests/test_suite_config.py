"""The suite's own pytest configuration, run on a throwaway test file."""
import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")

PROPERTY_PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_property_test_is_one_failure(tmp_path):
    """A failing @given test is reported as one failure, and the tests
    after it still run: hypothesis's failure explanation imports libcst,
    whose mypy_extensions DeprecationWarning the suite's warnings-as-errors
    rule must not turn into an INTERNALERROR."""
    (tmp_path / "test_pair.py").write_text(PROPERTY_PAIR)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout[-2000:]
    assert "1 failed, 1 passed" in run.stdout, run.stdout[-2000:]
