"""The repository's pytest settings report a falsified property as a failure.

When hypothesis finds a counterexample it may import ``libcst`` to write a
patch, and that import warns of a deprecation in ``mypy_extensions``; the
settings turn other deprecation warnings into errors, which here would end
the whole run with an internal error.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PLANTED = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_falsified(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_falsified_property_fails_without_ending_the_run(tmp_path):
    (tmp_path / "test_planted.py").write_text(PLANTED)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "test_planted.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
