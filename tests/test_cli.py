"""Command-line interface: fit, efficiency, curves, and simulate."""

import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from conftest import count_calls, strict_json

import latentbinom
from latentbinom import (SimConfig, SimSummary, builtin_designs,
                         efficiency_measures, jejunal_dataset, make_setting,
                         run_study, table_settings)
from latentbinom import cli, data_io
from latentbinom.cli import main


# Outputs recorded by the benchmark at its seed commit, and the generator of
# its fit and settings inputs; both read only.
REFS = Path(__file__).resolve().parents[1] / "bench" / "refs"
_spec = importlib.util.spec_from_file_location("bench_inputs",
                                               REFS.parent / "inputs.py")
bench_inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_inputs)
FIT_REFS, DESIGN_REFS = (
    json.loads((REFS / f"{name}.json").read_text(encoding="utf-8"))
    for name in ("fit", "design"))


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


@pytest.mark.parametrize("model", ["poisson", "auto", "full"])
def test_fit_link_underflow_exits_two_with_one_line(capsys, tmp_path, model):
    # At the estimate the link underflows to 0 on zero-count rows, so the
    # final score divides 0 by 0 and the information is not finite.
    x = [-701127, 374665, -58741, -1446824, -3347, -597648, -248905, 861803,
         -625873, -593925, 806948, 64952, 863535, 181241, -494268, -37145,
         688836, 527203, 497, 27324, -63046, -324040, 1082125, 4029, -633681,
         -267233, 406949, 359400]
    y = [0, 27, 0, 0, 0, 0, 0, 41, 0, 0, 12, 66, 66, 43, 0, 0, 18, 59, 32, 63,
         0, 0, 71, 68, 0, 0, 63, 60]
    path = tmp_path / "underflow.csv"
    path.write_text("x,y\n" + "".join(f"{a},{b}\n" for a, b in zip(x, y)),
                    encoding="utf-8")
    code, out, err = run_cli(capsys, ["fit", "--input", str(path),
                                      "--model", model])
    assert code == 2
    assert out == ""
    assert err.startswith("latentbinom: error: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("existing", [True, False], ids=["existing", "absent"])
@pytest.mark.parametrize("model", ["auto", "poisson", "full"])
def test_fit_refused_leaves_output_file_alone(capsys, tmp_path, model, existing):
    # The fits run before --output is opened, so a refusal neither truncates
    # an earlier result nor leaves an empty file behind.
    zeros = tmp_path / "zeros.csv"
    zeros.write_text("dose,count\n1,0\n2,0\n3,0\n", encoding="utf-8")
    target = tmp_path / "fit.txt"
    if existing:
        target.write_bytes(b"model: full\r\nearlier result\n")
    code, out, err = run_cli(capsys, ["fit", "--input", str(zeros), "--model",
                                      model, "--output", str(target)])
    assert code == 1
    assert out == ""
    assert err.startswith("latentbinom: error: all counts are zero")
    if existing:
        assert target.read_bytes() == b"model: full\r\nearlier result\n"
    else:
        assert not target.exists()


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


def test_fit_one_column_header_exits_one(capsys, tmp_path):
    target = tmp_path / "one_column.csv"
    target.write_text("\n\ncount\n5\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["fit", "--input", str(target)])
    assert (code, out, err) == (
        1, "", "latentbinom: error: line 3: header needs at least two columns\n")


def test_fit_numerical_failure_exits_two_without_warnings(capsys, tmp_path):
    # A count of 2**62 drives the Hessian's eigenvalue solver to fail. That
    # LinAlgError is a numerical failure (exit 2), not a usage error, and the
    # overflow on the way there must not leak numpy warnings onto stderr.
    # Three doses, so the design identifies (beta, mu).
    target = tmp_path / "big.csv"
    target.write_text("dose,count\n1,5\n1,4611686018427387904\n2,3\n2.5,3\n",
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


def test_fit_unusable_information_exits_two_naming_the_stage(capsys, tmp_path):
    # The Poisson-size fit runs off to mu = 1e27, where the zero-count row's
    # link squares to 0, so its Hessian holds 0/0: the error says at which
    # stage the information was unusable.
    target = tmp_path / "runaway.csv"
    target.write_text("dose,count\n1.8,0\n0.1,2\n0.2,0\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, ["fit", "--input", str(target)])
    assert code == 2
    assert out == ""
    assert err == ("latentbinom: error: observed information at the estimate: "
                   "information matrix has a non-finite entry\n")
    assert caught == []


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


@pytest.mark.parametrize("count", ["1000000000000000", "4611686018427387904"])
def test_fit_huge_count_exits_two_naming_it(capsys, tmp_path, count):
    # The full fit's shift tables would need 8 PB at 10**15, which numpy
    # refuses at once; at 2**62 their byte size overflows numpy's intp.
    target = tmp_path / "huge.csv"
    target.write_text(f"dose,count\n1,3\n2,{count}\n3,2\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["fit", "--input", str(target)])
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"latentbinom: error: count {count} ")


@pytest.mark.parametrize("rows", ["1,3\n2,5\n", "1,3\n2,5\n" * 12],
                         ids=["two-rows", "two-doses-24-rows"])
@pytest.mark.parametrize("model", ["poisson", "full", "auto"])
def test_fit_non_identifiable_design_exits_one(capsys, tmp_path, rows, model):
    target = tmp_path / "two_doses.csv"
    target.write_text("dose,count\n" + rows, encoding="utf-8")
    code, out, err = run_cli(capsys, ["fit", "--input", str(target),
                                      "--model", model])
    assert code == 1
    assert out == ""
    assert err == ("latentbinom: error: non-identifiable design: 2 distinct "
                   "covariate rows for 3 parameters (beta, mu)\n")


@pytest.mark.parametrize("model", ["poisson", "full", "auto"])
def test_fit_all_zero_counts_exits_one(capsys, tmp_path, model):
    # No finite maximum exists, so no fit may print estimates.
    target = tmp_path / "zeros.csv"
    target.write_text("dose,count\n" + "1,0\n2,0\n3,0\n" * 4, encoding="utf-8")
    code, out, err = run_cli(capsys, ["fit", "--input", str(target),
                                      "--model", model])
    assert code == 1
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("latentbinom: error: all counts are zero")


def test_fit_non_convergence_prints_both_reports_and_exits_two(capsys, tmp_path):
    # Jejunal doses with counts near 1e5: the full fit ends at condition
    # 7e14 still above the absolute gradient bound, so auto mode prints both
    # reports, skips the LRT and exits 2. ROADMAP item 2's scale-aware
    # stopping rule is expected to make this input converge.
    data = jejunal_dataset()
    target = tmp_path / "large_counts.csv"
    target.write_text("dose,count\n" + "".join(
        f"{dose},{1000 * int(y) + i}\n"
        for i, (dose, y) in enumerate(zip(data.X[:, 1], data.y))),
        encoding="utf-8")
    code, out, err = run_cli(capsys, ["fit", "--input", str(target)])
    assert code == 2
    assert err == "latentbinom: error: fit did not converge\n"
    assert out.startswith("model: poisson_size\nconverged: yes\n")
    assert "\nmodel: full\nconverged: no\n" in out
    assert "likelihood-ratio test" not in out


@pytest.mark.parametrize("level", ["0", "1", "1.5", "-0.1", "nan", "abc",
                                   "1.1102230246251565e-16", "1e-17"])
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
    # Every benchmark fit input that exits 0: full and Poisson-size model
    # selected (small), 2e4 rows (wide), counts above 1e4 (big).
    *[("fit", key, None) for key, ref in FIT_REFS.items()
      if ref["rc"] == 0 and key != "jejunal"],
    # Every benchmark settings grid, each mixing both designs: grid/0 mostly
    # the second, grid/8 mostly the first and down to shape 5.
    *[("design", f"grid/{k}", None) for k in range(bench_inputs.DESIGN_POOL)],
])
def test_output_matches_committed_reference(capsys, tmp_path, refs, key, argv):
    if refs == "fit":
        assert FIT_REFS[key]["rc"] == 0
        want = FIT_REFS[key]["stdout"]
    else:
        want = DESIGN_REFS[key]
    if argv is None and refs == "design":
        path = tmp_path / "grid.csv"
        bench_inputs.write_grid_csv(path, int(key.split("/")[1]))
        argv = ["efficiency", "--settings", str(path)]
    elif argv is None:
        kind, k = key.split("/")
        path = tmp_path / "fit.csv"
        bench_inputs.write_fit_csv(path, kind, int(k))
        argv = ["fit", "--input", str(path)]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == want


@pytest.mark.parametrize("setting,entry,seed", [
    (1, 0, 3481501194), (16, 0, 3481501194), (8, 3, 3690641509),
    (9, 5, 3150004322),
])
def test_study_matches_committed_reference(setting, entry, seed):
    want = json.loads((REFS / "study.json").read_text(encoding="utf-8"))
    want = want[f"{setting}/{entry}"]
    got = run_study(SimConfig(setting=table_settings()[setting - 1],
                              n_samples=2, seed=seed))
    assert got.n_converged == want["n_converged"]
    assert abs(got.bias - want["bias"]) <= 1e-12
    assert abs(got.mse - want["mse"]) <= 1e-12


def run_fresh(probe):
    """stdout of the Python code probe in a new interpreter on this source."""
    src = Path(latentbinom.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    return done.stdout


SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_import_leaves_scipy_stats_unloaded():
    # No scipy module at all: scipy.optimize is loaded by the first fit.
    # Nor the CLI: the package exports the library modules' names only.
    out = run_fresh(f"import sys, latentbinom; print({SCIPY_LOADED}, "
                    "'argparse' in sys.modules, 'latentbinom.cli' in sys.modules)")
    assert out.strip() == "[] False False"


def test_only_a_fit_loads_scipy(capsys):
    # efficiency and curves compute from expected information alone, so a
    # fresh interpreter running them loads no scipy; a fit then loads
    # scipy.optimize and prints what it prints in this process.
    probe = f"""
import contextlib, io, json, sys
from latentbinom.cli import main
for argv in (["efficiency"], ["curves", "--kind", "gamma-by-alpha"],
             ["curves", "--kind", "sd-by-mu"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
loaded = {SCIPY_LOADED}
fit = io.StringIO()
with contextlib.redirect_stdout(fit):
    code = main(["fit", "--builtin", "jejunal"])
print(json.dumps([loaded, "scipy.optimize" in sys.modules, code, fit.getvalue()]))
"""
    loaded, optimize_loaded, code, fit_out = json.loads(run_fresh(probe))
    assert loaded == []
    assert optimize_loaded and code == 0
    assert (code, fit_out) == run_cli(capsys, ["fit", "--builtin", "jejunal"])[:2]


def test_efficiency_custom_settings_file(capsys, tmp_path):
    settings = tmp_path / "settings.csv"
    settings.write_text("design,beta1,mu,alpha\n1,1,100,25\n1,1,100,inf\n",
                        encoding="utf-8")
    code, out, err = run_cli(capsys, ["efficiency", "--settings", str(settings)])
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 2
    x1, _ = builtin_designs()
    res = efficiency_measures(make_setting(x1, 1.0, 100.0, 25.0))
    assert float(rows[0]["gamma"]) == pytest.approx(res.gamma, rel=1e-5)
    # At alpha = inf the full model is the Poisson-size model: gamma is 1.
    assert rows[1]["alpha"] == "inf" and rows[1]["gamma"] == "1"
    assert rows[1]["rho"] == rows[0]["rho"] == rows[1]["rho_gamma"] == "0.706414"


def test_efficiency_structured_infinite_shape_is_strict_json(capsys, tmp_path):
    settings = tmp_path / "settings.csv"
    settings.write_text("design,beta1,mu,alpha\n1,1,100,inf\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, ["efficiency", "--settings", str(settings),
                                    "--format", "structured"])
    assert code == 0
    assert strict_json(out) == {"setting": 1, "beta1": 1.0, "mu": 100.0,
                                "alpha": "inf", "rho": 0.706414, "gamma": 1.0,
                                "rho_gamma": 0.706414}


def test_simulate_structured_without_converged_sample_is_strict_json(
        capsys, monkeypatch):
    empty = SimSummary(bias=math.nan, mse=math.nan, coverage=math.nan,
                       n_converged=0)
    monkeypatch.setattr(cli, "run_study", lambda config: empty)
    code, out, _ = run_cli(capsys, ["simulate", "--setting", "1", "--samples",
                                    "1", "--format", "structured"])
    assert code == 0
    row = strict_json(out)
    assert [row[c] for c in ("bias", "mse", "coverage", "n_converged")] == [
        "nan", "nan", "nan", 0]


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

    # The csv module skips the blank row; the line number must not.
    blank_row = tmp_path / "bad4.csv"
    blank_row.write_text("design,beta1,mu,alpha\n\n1,1,100,abc\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["efficiency", "--settings", str(blank_row)])
    assert code == 1
    assert "line 3: non-numeric field" in err
    assert out == ""


@pytest.mark.parametrize("text,message", [
    ("design,beta1,mu,alpha\n1,1,100,25,7\n", "line 2: expected 4 fields, got 5"),
    ("design,beta1,mu,alpha\n1,1,100,25\n1,1,100\n",
     "line 3: expected 4 fields, got 3"),
    ("design,beta1,mu,alpha,mu\n1,1,100,25,300\n",
     "header must contain columns design,beta1,mu,alpha once each"),
    ("design,beta1,mu,alpha\n1,1,nan,25\n", "line 2: mu must be positive and finite"),
    ("design,beta1,mu,alpha\n\n1,1,100,nan\n",
     "line 3: alpha must be positive (or INFINITE)"),
    ("", "no settings"),
    ("\n \n", "no settings"),
    ("design,beta1,mu,alpha\n\n", "no settings"),
    # Physical lines: the last row is on line 4, after a field spanning two.
    ('design,beta1,mu,alpha\n"1\n",1,100,25\n1,1,100,abc\n',
     "line 4: non-numeric field"),
    ('design,beta1,mu,alpha\n"1\n",1,100,25\n1,1,100,' + "9" * 200_000 + "\n",
     "line 4: field larger than field limit (131072)"),
    # A number that is not the digit 1 or 2 names no design.
    ("design,beta1,mu,alpha\n1,1,100,25\n1.0,1,100,25\n",
     "line 3: design must be 1 or 2"),
    ("design,beta1,mu,alpha\n2e0,1,100,25\n", "line 2: design must be 1 or 2"),
    ("design,beta1,mu,alpha\n+1,1,100,25\n", "line 2: design must be 1 or 2"),
    ("design,beta1,mu,alpha\n1.5,1,100,25\n", "line 2: design must be 1 or 2"),
    # Names are compared stripped, so a spaced duplicate is a duplicate.
    ("design,beta1,mu,alpha, mu\n1,1,100,25,300\n",
     "header must contain columns design,beta1,mu,alpha once each"),
    # The first offending line wins over a later ragged row, also when the
    # two sit in different blocks.
    ("design,beta1,mu,alpha\n1,1,abc,25\n1,1,100\n", "line 2: non-numeric field"),
    ("design,beta1,mu,alpha\n1,1,100,25\n1,x,100,25\n\n , \n1,1,100,25,7\n",
     "line 3: non-numeric field"),
], ids=["extra-field", "short-row", "duplicate-mu", "mu-nan",
        "alpha-nan", "empty", "blank", "header-only", "multiline-then-bad",
        "multiline-then-oversized", "design-float", "design-exponent",
        "design-signed", "design-fraction", "duplicate-spaced-mu",
        "non-numeric-then-short-row", "non-numeric-then-extra-field"])
def test_efficiency_settings_rows_follow_data_file_rules(capsys, tmp_path, text,
                                                         message, monkeypatch):
    settings = tmp_path / "settings.csv"
    settings.write_text(text, encoding="utf-8")
    for block_rows in (1, 2, data_io._BLOCK_ROWS):
        monkeypatch.setattr(data_io, "_BLOCK_ROWS", block_rows)
        code, out, err = run_cli(capsys, ["efficiency", "--settings", str(settings)])
        assert (code, out, err) == (
            1, "", f"latentbinom: error: {settings}: {message}\n"), block_rows


@pytest.mark.parametrize("text", [
    "\ndesign,beta1,mu,alpha\n1,1,100,25\n",
    " , \ndesign,beta1,mu,alpha\n1,1,100,25\n",
    "design,beta1,mu,alpha\n1,1,100,25\n,,,\n",
    "design,beta1,mu,alpha\n , ,, \n1,1,100,25\n\n,,\n",
    # A byte-order mark, as spreadsheets save "CSV UTF-8", is not a field.
    "\ufeffdesign,beta1,mu,alpha\n1,1,100,25\n",
    "\ufeff\n , \ndesign,beta1,mu,alpha\n1,1,100,25\n",
    # A block made up of blank rows is not the end of the file.
    "design,beta1,mu,alpha\n" + "\n , \n,,,\n" * 2 + "1,1,100,25\n",
    # Header names are compared without surrounding whitespace.
    "design, beta1 ,mu,\talpha \n1,1,100,25\n",
], ids=["leading-blank-line", "leading-blank-fields", "trailing-comma-row",
        "inner-blank-rows", "byte-order-mark", "byte-order-mark-then-blank-rows",
        "block-of-blank-rows", "spaced-header-names"])
def test_efficiency_settings_blank_rows_skipped(capsys, tmp_path, text, monkeypatch):
    settings = tmp_path / "settings.csv"
    settings.write_text("design,beta1,mu,alpha\n1,1,100,25\n", encoding="utf-8")
    want = run_cli(capsys, ["efficiency", "--settings", str(settings)])
    assert want[0] == 0 and want[2] == ""
    settings.write_text(text, encoding="utf-8")
    for block_rows in (1, 2, 3, data_io._BLOCK_ROWS):
        monkeypatch.setattr(data_io, "_BLOCK_ROWS", block_rows)
        assert run_cli(capsys, ["efficiency", "--settings", str(settings)]) == want


def test_efficiency_settings_saturated_link(capsys, tmp_path):
    # At slope 8 or 10 the link at x = 5 rounds to exactly 1, and at slope
    # 200 nearly every row saturates; at +-1e308 the products x * slope
    # overflow to +-inf. A saturated row adds no information; it must not
    # turn into 0/0 and numpy warnings.
    settings = tmp_path / "steep.csv"
    for slope in (8, 10, 200, 1e308, -1e308):
        settings.write_text(f"design,beta1,mu,alpha\n1,{slope},100,25\n",
                            encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, ["efficiency", "--settings", str(settings)])
        if abs(slope) >= 200:
            assert code == 2
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


@pytest.mark.parametrize("mu,alpha", [
    ("100", "1e200"), ("100", "1e300"), ("100", "1e-300"), ("100", "1e-200"),
    ("1e10", "1e-299"), ("100", "5e-324"), ("1e-310", "25"), ("5e-324", "1"),
], ids=["1e200", "1e300", "1e-300", "1e-200", "1e10-1e-299", "5e-324",
        "mu1e-310-25", "mu5e-324-1"])
def test_efficiency_settings_huge_alpha(capsys, tmp_path, mu, alpha):
    # mu h / alpha overflows at a tiny shape, 1 / mu at a tiny size mean, and
    # an eigenvalue's reciprocal at a tiny information matrix; the
    # information must not print numpy warnings on the way to its answer or
    # its diagnostic.
    code, out, err = run_settings_row(capsys, tmp_path, f"1,1,{mu},{alpha}")
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


@pytest.mark.parametrize("row,measure", [
    ("1,35,100,25", "gamma"), ("1,40,100,25", "rho"), ("2,50,0.001,1", "rho"),
])
def test_efficiency_settings_unstable_inverse_exits_two(capsys, tmp_path, row,
                                                        measure):
    # Condition numbers of 1e14 and beyond push a variance ratio past 1, or
    # below 0 where it has no real fourth root: a numerical failure.
    code, out, err = run_settings_row(capsys, tmp_path, row)
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"latentbinom: error: {measure} = ")
    assert "lies outside (0, 1]" in line and "largest condition" in line


@pytest.mark.parametrize("rows,start", [
    (("1,1,100,25", "1,40,100,25", "1,1,1e-310,25"), "rho = "),
    (("1,1,100,25", "1,1,1e-310,25", "1,40,100,25"),
     "information matrix has an eigenvalue too close to zero to invert"),
], ids=["measure-then-eigenvalue", "eigenvalue-then-measure"])
def test_efficiency_settings_failure_names_first_failing_setting(
        capsys, tmp_path, rows, start):
    # The table is one stack, refused at its first failure anywhere in it;
    # the error reported is the one the first failing setting gives alone,
    # numbered as in the output's setting column.
    _, _, alone = run_settings_row(capsys, tmp_path, rows[1])
    code, out, err = run_settings_row(capsys, tmp_path, "\n".join(rows))
    assert code == 2
    assert out == ""
    assert alone.startswith(f"latentbinom: error: {start}")
    assert alone.endswith(" (setting 1)\n")
    assert err == alone.replace(" (setting 1)\n", " (setting 2)\n")


def test_efficiency_inverts_two_stacks_per_table(capsys, tmp_path, monkeypatch):
    # One stack of observed-sizes matrices and one of Poisson-size and full
    # pairs per table, however many settings it holds.
    from latentbinom import efficiency
    path = tmp_path / "grid.csv"
    bench_inputs.write_grid_csv(path, 0)
    calls = count_calls(monkeypatch, efficiency, ["inverse_with_condition"])
    assert run_cli(capsys, ["efficiency"])[0] == 0
    assert calls["inverse_with_condition"] == 2
    assert run_cli(capsys, ["efficiency", "--settings", str(path)])[0] == 0
    assert calls["inverse_with_condition"] == 4


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


@pytest.mark.slow
def test_simulate_thousand_samples_seed42_coverage(capsys):
    code, out, err = run_cli(capsys, ["simulate", "--setting", "1",
                                      "--samples", "1000", "--seed", "42"])
    assert code == 0
    row = parse_csv(out)[0]
    assert 0.93 <= float(row["coverage"]) <= 0.97
    assert int(row["n_converged"]) > 950


@pytest.mark.parametrize("level", ["1.5", "0", "nan", "1.1102230246251565e-16",
                                   "1e-17"])
def test_simulate_level_outside_unit_interval_exits_one_before_running(
        capsys, monkeypatch, level):
    calls = count_calls(monkeypatch, cli, ("run_study",))
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--setting", "1", "--samples", "1", "--level", level])
    assert excinfo.value.code == 1
    assert "--level" in capsys.readouterr().err
    assert calls == {"run_study": 0}


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_simulate_rejects_no_samples(capsys, samples):
    code, out, err = run_cli(capsys, ["simulate", "--setting", "1",
                                      "--samples", samples])
    assert (code, out, err) == (1, "", "latentbinom: error: --samples must be >= 1\n")


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


def test_format_belongs_to_the_record_subcommands(capsys):
    # fit prints a report, so it has no --format to ignore.
    with pytest.raises(SystemExit) as excinfo:
        main(["fit", "--builtin", "jejunal", "--format", "csv"])
    assert excinfo.value.code == 1
    assert "--format" in capsys.readouterr().err
    for argv in (["efficiency"], ["curves", "--kind", "sd-by-mu"],
                 ["simulate", "--setting", "1", "--samples", "1"]):
        code, out, _ = run_cli(capsys, argv + ["--format", "structured"])
        assert code == 0
        assert all(isinstance(strict_json(line), dict)
                   for line in out.splitlines())


def test_fit_requires_a_data_source():
    with pytest.raises(SystemExit) as excinfo:
        main(["fit"])
    assert excinfo.value.code == 1


# -- one parser per process ------------------------------------------------------------


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_import_builds_no_parser():
    out = run_fresh("import latentbinom.cli as c; "
                    "print(c._build_parser.cache_info().currsize)")
    assert out.strip() == "0"


def test_reused_parser_forgets_repeated_settings(capsys):
    run_cli(capsys, ["simulate", "--setting", "1", "--samples", "1"])
    code, out, _ = run_cli(capsys, ["simulate", "--setting", "2", "--samples", "1"])
    assert code == 0
    assert [row["setting"] for row in parse_csv(out)] == ["2"]


def test_reused_parser_forgets_output_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, ["efficiency", "--output", str(target)])
    assert (code, out) == (0, "")
    code, out, _ = run_cli(capsys, ["efficiency"])
    assert code == 0
    assert out == target.read_text(encoding="utf-8")


def test_usage_error_leaves_next_call_unchanged(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["curves", "--kind", "bogus"])
    assert excinfo.value.code == 1
    assert capsys.readouterr().err.startswith("usage: latentbinom curves")
    code, out, _ = run_cli(capsys, ["curves", "--kind", "sd-by-mu"])
    assert (code, out) == (0, DESIGN_REFS["sd-by-mu"])


@pytest.mark.parametrize("argv", [[], ["fit"], ["efficiency"], ["curves"],
                                  ["simulate"]])
def test_help_matches_a_fresh_parser(capsys, argv):
    helps = []
    for parse in (main, cli._build_parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as excinfo:
            parse(argv + ["--help"])
        assert excinfo.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and helps[0].startswith("usage: latentbinom")
