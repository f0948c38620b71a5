"""Command-line interface: fit, efficiency, curves, and simulate."""

import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from conftest import count_calls

import latentbinom
from latentbinom import builtin_designs, efficiency_measures, make_setting
from latentbinom import cli
from latentbinom.cli import main


# Outputs recorded by the benchmark at its seed commit; read only.
REFS = Path(__file__).resolve().parents[1] / "bench" / "refs"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# -- fit ---------------------------------------------------------------------------


def test_fit_auto_selects_poisson_submodel(capsys):
    code, out, err = run_cli(capsys, ["fit", "--builtin", "jejunal", "--model", "auto"])
    assert code == 0
    assert "poisson-size submodel not rejected at level 0.05" in out
    assert "selected model: poisson_size" in out
    assert "likelihood-ratio test: statistic 0.00282429, p-value 0.478809" in out
    for fragment in ("6.7014", "-1.12382", "196.294",
                     "0.765365", "0.0634076", "47.4873"):
        assert fragment in out
    assert "converged: yes" in out


def test_fit_missing_file_exits_one_naming_path(capsys):
    code, out, err = run_cli(capsys, ["fit", "--input", "/nope/missing.csv"])
    assert code == 1
    assert "/nope/missing.csv" in err
    assert out == ""


def test_fit_full_model_warns_about_flat_shape(capsys):
    code, out, err = run_cli(capsys, ["fit", "--builtin", "jejunal", "--model", "full"])
    assert code == 0
    assert "model: full" in out
    assert "warning: flat shape direction" in out
    assert "absent" in out


def test_fit_reads_csv_input(capsys, tmp_path):
    target = tmp_path / "tiny.csv"
    target.write_text(
        "dose,count\n" + "\n".join(f"{d},{c}" for d, c in
                                   [(1.0, 50), (1.0, 45), (2.0, 30), (2.0, 35),
                                    (3.0, 12), (3.0, 15)]) + "\n",
        encoding="utf-8")
    code, out, err = run_cli(capsys, ["fit", "--input", str(target),
                                      "--model", "poisson"])
    assert code == 0
    assert "model: poisson_size" in out
    assert "converged: yes" in out


def test_fit_output_file(capsys, tmp_path):
    target = tmp_path / "fit.txt"
    code, out, err = run_cli(capsys, ["fit", "--builtin", "jejunal",
                                      "--model", "poisson",
                                      "--output", str(target)])
    assert code == 0
    assert out == ""
    assert "6.7014" in target.read_text(encoding="utf-8")


def test_fit_auto_fits_each_model_once(capsys, monkeypatch):
    calls = count_calls(monkeypatch, cli, ("fit_poisson_size", "fit_full"))
    code, out, err = run_cli(capsys, ["fit", "--builtin", "jejunal"])
    assert code == 0
    assert "selected model: poisson_size" in out
    assert calls == {"fit_poisson_size": 1, "fit_full": 1}


def test_fit_count_beyond_int64_exits_one(capsys, tmp_path):
    target = tmp_path / "huge.csv"
    target.write_text("dose,count\n1,5\n1,100000000000000000000\n2,3\n",
                      encoding="utf-8")
    code, out, err = run_cli(capsys, ["fit", "--input", str(target)])
    assert code == 1
    assert "count 100000000000000000000" in err
    assert "Traceback" not in err
    assert out == ""


def test_fit_oversized_field_exits_one(capsys, tmp_path):
    target = tmp_path / "oversized.csv"
    target.write_text("dose,count\n1," + "x" * 200_000 + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["fit", "--input", str(target)])
    assert code == 1
    assert out == ""
    assert err == ("latentbinom: error: line 2: "
                   "field larger than field limit (131072)\n")


def test_fit_numerical_failure_exits_two_without_warnings(capsys, tmp_path):
    # A count of 2**62 drives the Hessian's eigenvalue solver to fail. That
    # LinAlgError is a numerical failure (exit 2), not a usage error, and the
    # overflow on the way there must not leak numpy warnings onto stderr.
    target = tmp_path / "big.csv"
    target.write_text("dose,count\n1,5\n1,4611686018427387904\n2,3\n",
                      encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, ["fit", "--input", str(target)])
    assert code == 2
    assert err.startswith("latentbinom: error: ")
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err
    assert [w.message for w in caught if w.category is RuntimeWarning] == []
    assert out == ""


@pytest.mark.parametrize("model", ["poisson", "full", "auto"])
def test_fit_rank_deficient_design_exits_one(capsys, tmp_path, model):
    target = tmp_path / "one_dose.csv"
    target.write_text("dose,count\n6.5,70\n6.5,75\n6.5,80\n6.5,60\n",
                      encoding="utf-8")
    code, out, err = run_cli(capsys, ["fit", "--input", str(target),
                                      "--model", model])
    assert code == 1
    assert "rank-deficient design" in err
    assert out == ""


@pytest.mark.parametrize("level", ["0", "1", "1.5", "-0.1", "nan", "abc"])
@pytest.mark.parametrize("model", ["poisson", "auto"])
def test_fit_level_outside_unit_interval_exits_one_before_fitting(
        capsys, monkeypatch, level, model):
    calls = count_calls(monkeypatch, cli, ("fit_poisson_size", "fit_full"))
    with pytest.raises(SystemExit) as excinfo:
        main(["fit", "--builtin", "jejunal", "--model", model,
              "--level", level])
    assert excinfo.value.code == 1
    assert "--level" in capsys.readouterr().err
    assert calls == {"fit_poisson_size": 0, "fit_full": 0}


# -- efficiency -----------------------------------------------------------------------


def test_efficiency_default_emits_sixteen_rows(capsys):
    code, out, err = run_cli(capsys, ["efficiency"])
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 16
    assert list(rows[0]) == ["setting", "beta1", "mu", "alpha",
                             "rho", "gamma", "rho_gamma"]
    first = rows[0]
    assert float(first["rho"]) == pytest.approx(0.706, abs=5e-4)
    assert float(first["gamma"]) == pytest.approx(0.837, abs=5e-4)
    assert float(first["rho_gamma"]) == pytest.approx(0.591, abs=5e-4)
    # Every emitted row matches the library computation at rendered precision.
    from latentbinom import table_settings
    for row, setting in zip(rows, table_settings()):
        res = efficiency_measures(setting)
        assert float(row["rho"]) == pytest.approx(res.rho, rel=1e-5)
        assert float(row["gamma"]) == pytest.approx(res.gamma, rel=1e-5)
        assert float(row["rho_gamma"]) == pytest.approx(res.rho_gamma, rel=1e-5)


def test_efficiency_output_byte_identical_across_runs(capsys):
    _, first, _ = run_cli(capsys, ["efficiency"])
    _, second, _ = run_cli(capsys, ["efficiency"])
    assert first == second


@pytest.mark.parametrize("refs,key,argv", [
    ("design", "efficiency", ["efficiency"]),
    ("design", "gamma-by-alpha", ["curves", "--kind", "gamma-by-alpha"]),
    ("design", "sd-by-mu", ["curves", "--kind", "sd-by-mu"]),
    ("fit", "jejunal", ["fit", "--builtin", "jejunal"]),
])
def test_output_matches_committed_reference(capsys, refs, key, argv):
    want = json.loads((REFS / f"{refs}.json").read_text(encoding="utf-8"))[key]
    if refs == "fit":
        assert want["rc"] == 0
        want = want["stdout"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == want


def test_import_leaves_scipy_stats_unloaded():
    src = Path(latentbinom.__file__).resolve().parents[1]
    probe = "import sys, latentbinom; print('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.stdout.strip() == "False"


def test_efficiency_custom_settings_file(capsys, tmp_path):
    settings = tmp_path / "settings.csv"
    settings.write_text("design,beta1,mu,alpha\n1,1,100,25\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["efficiency", "--settings", str(settings)])
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    x1, _ = builtin_designs()
    res = efficiency_measures(make_setting(x1, 1.0, 100.0, 25.0))
    assert float(rows[0]["gamma"]) == pytest.approx(res.gamma, rel=1e-5)


def test_efficiency_settings_file_errors(capsys, tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("design,slope\n1,1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, ["efficiency", "--settings", str(bad_header)])
    assert code == 1
    assert "design,beta1,mu,alpha" in err

    bad_design = tmp_path / "bad2.csv"
    bad_design.write_text("design,beta1,mu,alpha\n3,1,100,25\n", encoding="utf-8")
    code, _, err = run_cli(capsys, ["efficiency", "--settings", str(bad_design)])
    assert code == 1
    assert "design must be 1 or 2" in err

    for row in ("1,1,1_00,25", "1,1,100,2_5", "1_0,1,100,25", "1,1_0,100,25"):
        underscored = tmp_path / "bad3.csv"
        underscored.write_text(f"design,beta1,mu,alpha\n1,1,100,25\n{row}\n",
                               encoding="utf-8")
        code, out, err = run_cli(capsys, ["efficiency", "--settings", str(underscored)])
        assert code == 1, row
        assert "line 3: non-numeric field" in err, row
        assert out == ""


def test_efficiency_settings_saturated_link(capsys, tmp_path):
    # At slope 8 or 10 the link at x = 5 rounds to exactly 1, and at slope
    # 200 nearly every row saturates. A saturated row adds no information;
    # it must not turn into 0/0 and numpy warnings.
    settings = tmp_path / "steep.csv"
    for slope in (8, 10, 200):
        settings.write_text(f"design,beta1,mu,alpha\n1,{slope},100,25\n",
                            encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, ["efficiency", "--settings", str(settings)])
        if slope == 200:
            assert code in (1, 2)
            assert out == ""
            (line,) = err.splitlines()
            assert line.startswith("latentbinom: error: ")
            continue
        assert code == 0, err
        assert err == ""
        (row,) = parse_csv(out)
        for name in ("rho", "gamma", "rho_gamma"):
            assert 0.0 < float(row[name]) <= 1.0, (slope, name)


def run_settings_row(capsys, tmp_path, row):
    """(code, stdout, stderr) of `efficiency --settings` on one settings row,
    with warnings turned into errors."""
    settings = tmp_path / "settings.csv"
    settings.write_text(f"design,beta1,mu,alpha\n{row}\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli(capsys, ["efficiency", "--settings", str(settings)])


@pytest.mark.parametrize("alpha", ["1e200", "1e300", "1e-300", "1e-200"])
def test_efficiency_settings_huge_alpha(capsys, tmp_path, alpha):
    # (alpha + j)^2 overflows at a huge shape and (1/(alpha + j))^2 at a tiny
    # one; the alpha information must not print numpy warnings on the way to
    # its answer or its diagnostic.
    code, out, err = run_settings_row(capsys, tmp_path, f"1,1,100,{alpha}")
    if code == 2:
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith("latentbinom: error: ")
        return
    assert code == 0, err
    assert err == ""
    (row,) = parse_csv(out)
    for name in ("rho", "gamma", "rho_gamma"):
        assert 0.0 < float(row[name]) <= 1.0, name


def test_efficiency_settings_condition_overflow(capsys, tmp_path):
    # The largest over the smallest eigenvalue overflows at mu = 1e200.
    code, out, err = run_settings_row(capsys, tmp_path, "1,1,1e200,0.5")
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("latentbinom: error: ")


def test_efficiency_settings_oversized_field_exits_one(capsys, tmp_path):
    settings = tmp_path / "oversized.csv"
    settings.write_text("design,beta1,mu,alpha\n1,1,100," + "9" * 200_000 + "\n",
                        encoding="utf-8")
    code, out, err = run_cli(capsys, ["efficiency", "--settings", str(settings)])
    assert code == 1
    assert out == ""
    assert err == (f"latentbinom: error: {settings}: line 2: "
                   "field larger than field limit (131072)\n")


# -- curves ----------------------------------------------------------------------------


def test_curves_gamma_by_alpha(capsys):
    code, out, err = run_cli(capsys, ["curves", "--kind", "gamma-by-alpha"])
    assert code == 0
    rows = parse_csv(out)
    x1, _ = builtin_designs()
    panels = {}
    for row in rows:
        key = (float(row["beta1"]), float(row["mu"]))
        panels.setdefault(key, []).append((float(row["alpha"]), float(row["gamma"])))
    assert set(panels) == {(1.0, 100.0), (2.0, 100.0), (1.0, 300.0), (2.0, 300.0)}
    table_cells = {
        (1.0, 100.0, 25.0), (1.0, 100.0, 49.0), (2.0, 100.0, 25.0),
        (1.0, 300.0, 25.0), (2.0, 300.0, 49.0),
    }
    for slope, mu, alpha in table_cells:
        got = dict(panels[(slope, mu)])[alpha]
        want = efficiency_measures(make_setting(x1, slope, mu, alpha)).gamma
        assert got == pytest.approx(want, rel=1e-5)
    for series in panels.values():
        assert series == sorted(series)
        assert series[-1][1] >= series[0][1]


def test_curves_sd_by_mu(capsys):
    code, out, err = run_cli(capsys, ["curves", "--kind", "sd-by-mu"])
    assert code == 0
    rows = parse_csv(out)
    panels = {}
    for row in rows:
        key = (float(row["beta1"]), float(row["alpha"]))
        panels.setdefault(key, []).append(row)
    assert set(panels) == {(1.0, 25.0), (2.0, 49.0)}
    grid = [float(m) for m in range(50, 501, 10)]
    for series in panels.values():
        assert [float(r["mu"]) for r in series] == grid
        sd1 = [float(r["sd_beta1"]) for r in series]
        sd_mu = [float(r["sd_mu"]) for r in series]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(sd1, sd1[1:]))
        assert all(b >= a * (1 - 1e-9) for a, b in zip(sd_mu, sd_mu[1:]))


def test_curves_requires_kind(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["curves"])
    assert excinfo.value.code == 1


# -- simulate -----------------------------------------------------------------------


def test_simulate_single_sample(capsys):
    code, out, err = run_cli(capsys, ["simulate", "--setting", "1",
                                      "--samples", "1", "--seed", "5"])
    assert code == 0
    assert "seed: 5" in err
    rows = parse_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["seed"] == "5"
    assert row["samples"] == "1"
    assert int(row["n_converged"]) in (0, 1)
    if int(row["n_converged"]) == 1:
        assert float(row["coverage"]) in (0.0, 1.0)


def test_simulate_deterministic_output(capsys):
    argv = ["simulate", "--setting", "2", "--samples", "3", "--seed", "9"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_simulate_thousand_samples_seed42_coverage(capsys):
    code, out, err = run_cli(capsys, ["simulate", "--setting", "1",
                                      "--samples", "1000", "--seed", "42"])
    assert code == 0
    row = parse_csv(out)[0]
    assert 0.93 <= float(row["coverage"]) <= 0.97
    assert int(row["n_converged"]) > 950


def test_simulate_rejects_bad_setting(capsys):
    code, _, err = run_cli(capsys, ["simulate", "--setting", "17", "--samples", "1"])
    assert code == 1
    assert "out of range" in err


# -- usage handling --------------------------------------------------------------------


def test_missing_subcommand_exits_one():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as excinfo:
        main(["fit", "--builtin", "jejunal", "--bogus"])
    assert excinfo.value.code == 1


def test_fit_requires_a_data_source():
    with pytest.raises(SystemExit) as excinfo:
        main(["fit"])
    assert excinfo.value.code == 1
