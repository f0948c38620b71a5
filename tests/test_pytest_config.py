"""The suite's own pytest configuration."""

import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.parent / "README.md"

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
    # since an unknown one is an error under the warnings filter. README's
    # quick-loop paragraph must name exactly the tests it selects.
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(PYPROJECT.parent), "-p", "no:cacheprovider",
         "--collect-only", "-q", "-m", "slow", str(PYPROJECT.parent / "tests")],
        cwd=PYPROJECT.parent, capture_output=True, text=True, timeout=300)
    output = done.stdout + done.stderr
    assert done.returncode == 0, output
    selected = sorted(line for line in done.stdout.splitlines() if "::" in line)
    assert selected == [
        "tests/test_acceptance.py::test_criterion_4_simulation_study_fast_mode",
        "tests/test_cli.py::test_simulate_thousand_samples_seed42_coverage",
    ], output
    assert "warning" not in output.lower()
    (paragraph,) = [text for text in README.read_text(encoding="utf-8").split("\n\n")
                    if text.startswith("For a quick local loop")]
    assert sorted(re.findall(r"`(test_\w+)`", paragraph)) == sorted(
        line.rsplit("::", 1)[1] for line in selected), paragraph


def test_report_header_names_versions_and_the_bit_for_bit_scipy():
    # Without -q, since -q hides the report header.
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(PYPROJECT.parent), "-p", "no:cacheprovider",
         "--collect-only", str(PYPROJECT.parent / "tests" / "test_pytest_config.py")],
        cwd=PYPROJECT.parent, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    header = [line for line in done.stdout.splitlines()
              if line.startswith("latentbinom: ")]
    assert header[0] == (f"latentbinom: python {platform.python_version()}, "
                         f"numpy {np.__version__}, scipy {scipy.__version__}")
    # The bit-for-bit note must name the range pyproject.toml allows.
    (allowed,) = re.findall(r'"(scipy[^"]*)"', PYPROJECT.read_text(encoding="utf-8"))
    assert "test_bfgs_matches_scipy_minimize*" in header[1], header
    assert header[1].endswith(f"bit for bit on scipy 1.17.1; pyproject.toml "
                              f"allows {allowed}"), header
