"""The suite's own pytest configuration."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(n):
    assert n < 10
'''


def test_failing_property_test_reports_its_example(tmp_path):
    # Under the suite's warnings-as-errors filter, Hypothesis' report hook
    # must still print the falsifying example rather than end pytest in an
    # INTERNALERROR.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output


def test_slow_marker_selects_the_two_study_tests():
    # `-m "not slow"` is the quick local loop; the marker must be registered,
    # since an unknown one is an error under the warnings filter.
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(PYPROJECT.parent), "-p", "no:cacheprovider",
         "--collect-only", "-q", "-m", "slow", str(PYPROJECT.parent / "tests")],
        cwd=PYPROJECT.parent, capture_output=True, text=True, timeout=300)
    output = done.stdout + done.stderr
    assert done.returncode == 0, output
    assert sorted(line for line in done.stdout.splitlines() if "::" in line) == [
        "tests/test_acceptance.py::test_criterion_4_simulation_study_fast_mode",
        "tests/test_cli.py::test_simulate_thousand_samples_seed42_coverage",
    ], output
    assert "warning" not in output.lower()
