"""The test session's own set-up (conftest.py) under CI's warning flags."""

import shutil
import subprocess
import sys
from pathlib import Path

# The interpreter and warning flags of CI's tier-1 step.
CI_FLAGS = ["-X", "dev", "-m", "pytest", "-W", "error::ResourceWarning", "-W", "error::RuntimeWarning",
            "-W", "error::DeprecationWarning", "-W", "error::PendingDeprecationWarning"]

FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_pair.py").write_text(FAILING_THEN_PASSING)
    done = subprocess.run([sys.executable, *CI_FLAGS, "-q", "-p", "no:cacheprovider", "test_pair.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert "Falsifying example: test_fails(" in done.stdout
