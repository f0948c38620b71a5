"""Tests of the benchmark itself (not part of the repository's Tier-1 suite):

    python3 -m pytest bench/tests

They check that the count metrics repeat exactly for a fixed seed, that the
tracer reaches every namespace a traced function is imported into, and that
a wrong output makes the oracle, and with it the run, fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import COUNT_METRICS, Tracer  # noqa: E402


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["study", "fit", "design"])
def test_count_metrics_repeat_exactly(workload):
    runs = [_result(_run(ROOT, "--workload", workload, "--seed", "5",
                         "--seconds", "2", "--trace", "1"))
            for _ in range(2)]
    for run in runs:
        assert run["correct"]
    counts = [{k: run["metrics"][k]["value"] for k in COUNT_METRICS}
              for run in runs]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_tracer_wraps_every_namespace():
    from latentbinom import cli, estimation, model, simulation

    tracer = Tracer()
    patched = tracer.install()
    try:
        assert not tracer.missing
        for name in ("latentbinom.estimation.log_likelihood",
                     "latentbinom.estimation.score",
                     "latentbinom.estimation.hessian",
                     "latentbinom.cli.fit_full",
                     "latentbinom.cli.fit_poisson_size",
                     "latentbinom.cli.likelihood_ratio_test",
                     "latentbinom.simulation.fit_full",
                     "latentbinom.simulation.info_full",
                     "latentbinom.model.Dataset.from_arrays"):
            assert name in patched
        assert estimation.log_likelihood is model.log_likelihood
        assert hasattr(estimation.log_likelihood, "__wrapped__")
        assert cli.fit_full is simulation.fit_full is estimation.fit_full
    finally:
        tracer.uninstall()
    assert not hasattr(estimation.log_likelihood, "__wrapped__")
    assert not hasattr(cli.main, "__wrapped__")


def test_oracle_rejects_wrong_outputs():
    fit_refs = oracle.load_refs("fit")
    ref = fit_refs["jejunal"]
    assert oracle.check_fit("jejunal", 0, ref["stdout"], ref) == []
    wrong = ref["stdout"].replace("6.7014", "6.7015")
    assert oracle.check_fit("jejunal", 0, wrong, ref)
    assert oracle.check_fit("jejunal", 2, ref["stdout"], ref)
    assert oracle.check_jejunal(ref["stdout"].replace("6.7014", "6.7214"))

    failing = next(v for v in fit_refs.values() if v["rc"] == 2)
    assert oracle.check_fit("big", 0, "anything", failing) == []
    assert oracle.check_fit("big", 2, "", failing) == []
    assert oracle.check_fit("big", 1, "", failing)

    study_ref = {"bias": 0.01, "mse": 0.002, "coverage": 1.0, "n_converged": 2}
    assert oracle.check_study("1/0", dict(study_ref), study_ref) == []
    assert oracle.check_study("1/0", dict(study_ref, n_converged=1), study_ref)
    assert oracle.check_study("1/0", dict(study_ref, bias=0.01 + 2e-6), study_ref)
    assert oracle.check_study("1/0", dict(study_ref, n_converged=3, bias=9.0),
                              study_ref) == []


def test_large_count_draws_all_failed_in_reference():
    """Every large-count entry a run can draw exited 2 in the reference, so
    the failed share of a run of the reference code is the same for every
    seed and run length."""
    refs = oracle.load_refs("fit")
    for seed in range(64):
        (k,) = inputs.run_set(seed, "big")
        assert refs[f"big/{k}"]["rc"] == 2
    assert {refs[f"big/{k}"]["rc"] for k in inputs.BIG_CONVERGES} == {0}


def test_design_op_with_wrong_table_fails_oracle(tmp_path, monkeypatch):
    from latentbinom import cli

    design = workloads.Design(3, tmp_path)
    design.setup()
    refs = oracle.load_refs("design")
    op = design.round(0)[0]
    assert design.check(op, design.run(op), refs) == []

    real = cli.efficiency_measures

    def skewed(setting):
        res = real(setting)
        return type(res)(rho=res.rho, gamma=res.gamma,
                         rho_gamma=res.rho_gamma * (1.0 - 1e-4))

    monkeypatch.setattr(cli, "efficiency_measures", skewed)
    mismatches = design.check(op, design.run(op), refs)
    assert any(m.startswith("efficiency:") for m in mismatches)


def test_mutated_program_makes_run_incorrect(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    target = tmp_path / "src" / "latentbinom" / "efficiency.py"
    text = target.read_text()
    mutated = text.replace("rho_gamma=rho * gamma)", "rho_gamma=rho * gamma * 0.999)")
    assert mutated != text
    target.write_text(mutated)
    result = _result(_run(tmp_path, "--workload", "design", "--seed", "1",
                          "--seconds", "1", "--trace", "1"))
    assert result["correct"] is False


def test_run_without_program_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "fit", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
