"""Command-line front end: fit, efficiency, curves, and simulate.

Exit codes: 0 on success, 1 on usage or I/O errors, 2 on numerical
non-convergence. All subcommands produce byte-identical output for fixed
inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import sys
from pathlib import Path
from typing import Optional, Sequence, TextIO

import numpy as np

from .data_io import (_number, _table, format_number, jejunal_dataset,
                      read_csv, write_records)
from .efficiency import (builtin_designs, efficiency_table, gamma_curve,
                         make_setting, sd_vs_mu_curves, table_settings)
from .estimation import (FitResult, fit_full, fit_poisson_size,
                         likelihood_ratio_test, wald_ci)
from .simulation import SimConfig, run_study

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2

# Figure-style curve configurations: shape grid spanning [5, 500] with the
# two tabulated shapes spliced in, and a size-mean sweep at shape 25.
_ALPHA_GRID_SPAN = (5.0, 500.0)
_ALPHA_GRID_POINTS = 50
_MU_GRID = tuple(float(m) for m in range(50, 501, 10))
_CURVE_PANELS = tuple((slope, mu) for slope in (1.0, 2.0) for mu in (100.0, 300.0))
_SD_CURVE_PANELS = ((1.0, 25.0), (2.0, 49.0))


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this tool reserves 2 for
    non-convergence, so usage problems exit 1 instead."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _level(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid level {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"level must be in (0, 1), got {text}")
    return value


@functools.cache  # argparse keeps no state between parse_args calls
def _build_parser() -> _Parser:
    parser = _Parser(prog="latentbinom",
                     description="Binomial regression with latent "
                                 "gamma-Poisson group sizes.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", type=Path, default=None,
                       help="output file (default: standard output)")
        p.add_argument("--full-precision", action="store_true",
                       help="render numbers at full precision instead of "
                            "6 significant digits")

    p_fit = sub.add_parser("fit", help="fit a dataset and report estimates")
    src = p_fit.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=("jejunal",),
                     help="use an embedded dataset")
    src.add_argument("--input", type=Path, help="CSV file: covariates then count")
    p_fit.add_argument("--no-intercept", action="store_true",
                       help="do not prepend a constant column to file input")
    p_fit.add_argument("--model", choices=("full", "poisson", "auto"),
                       default="auto",
                       help="model to fit; auto fits both and reports the "
                            "likelihood-ratio test (default auto)")
    p_fit.add_argument("--level", type=_level, default=0.05,
                       help="significance level for tests and intervals "
                            "(default 0.05)")
    add_common(p_fit)

    p_eff = sub.add_parser("efficiency",
                           help="efficiency-loss table for built-in or "
                                "custom settings")
    p_eff.add_argument("--settings", type=Path, default=None,
                       help="CSV of settings with columns "
                            "design,beta1,mu,alpha (design is 1 or 2); "
                            "default: the built-in 16 settings")
    add_common(p_eff)

    p_cur = sub.add_parser("curves", help="plot-ready efficiency curves")
    p_cur.add_argument("--kind", choices=("gamma-by-alpha", "sd-by-mu"),
                       required=True,
                       help="gamma against the shape, or standard deviations "
                            "against the size mean")
    add_common(p_cur)

    p_sim = sub.add_parser("simulate",
                           help="Monte Carlo study of slope estimation")
    p_sim.add_argument("--setting", type=int, action="append", default=None,
                       metavar="N", help="setting number 1-16; repeatable "
                                         "(default: all 16)")
    p_sim.add_argument("--samples", type=int, default=1000,
                       help="Monte Carlo samples per setting (default 1000)")
    p_sim.add_argument("--seed", type=int, default=0,
                       help="RNG seed, echoed in the output (default 0)")
    p_sim.add_argument("--level", type=_level, default=0.05,
                       help="1 - confidence level for coverage (default 0.05)")
    add_common(p_sim)

    # fit prints a report; only the record-writing subcommands pick a format.
    for p in (p_eff, p_cur, p_sim):
        p.add_argument("--format", choices=("csv", "structured"),
                       default="csv", help="record format (default csv)")
    return parser


def _emit(args: argparse.Namespace, text: str) -> None:
    """Write a finished command's text to --output, or to standard output."""
    if args.output is None:
        sys.stdout.write(text)
    else:
        args.output.write_text(text, encoding="utf-8", newline="")


def _write_table(args: argparse.Namespace, records: list, columns: list) -> int:
    out = io.StringIO()
    write_records(out, records, columns, fmt=args.format,
                  full_precision=args.full_precision)
    _emit(args, out.getvalue())
    return EXIT_OK


def _setting_row(index: int, setting) -> dict:
    return {
        "setting": index,
        "beta1": float(setting.beta[1]),
        "mu": setting.mu,
        "alpha": setting.alpha,
    }


# -- fit ---------------------------------------------------------------------


def _print_fit(fit: FitResult, level: float, full_precision: bool,
               out: TextIO) -> None:
    fmt = lambda v: format_number(v, full_precision)  # noqa: E731
    labels = [f"beta{i}" for i in range(fit.params.beta.size)] + ["mu"]
    if not fit.params.is_poisson_size:
        labels.append("alpha")
    if fit.converged:
        cis = wald_ci(fit, level)
    else:
        cis = [(math.nan, math.nan)] * len(labels)
    print(f"model: {fit.model}", file=out)
    print(f"converged: {'yes' if fit.converged else 'no'}", file=out)
    print(f"iterations: {fit.n_iterations}", file=out)
    print(f"log-likelihood: {fmt(fit.loglik)}", file=out)
    print(f"information-condition: {fmt(fit.info_condition)}", file=out)
    for note in fit.diagnostics:
        print(f"warning: {note}", file=out)
    header = ["parameter", "estimate", "std-error", "ci-lower", "ci-upper"]
    rows = [header]
    for label, est, se, (lo, hi) in zip(labels, fit.params.as_array(),
                                        fit.std_errors, cis):
        rows.append([label, fmt(est),
                     "absent" if math.isnan(se) else fmt(se),
                     fmt(lo), fmt(hi)])
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip(),
              file=out)


def cmd_fit(args: argparse.Namespace) -> int:
    if args.builtin is not None:
        data = jejunal_dataset()
    else:
        data = read_csv(args.input, intercept=not args.no_intercept)
    lrt, out = None, io.StringIO()
    if args.model == "poisson":
        fits = [fit_poisson_size(data)]
    elif args.model == "full":
        fits = [fit_full(data)]
    else:
        sub = fit_poisson_size(data)
        full = fit_full(data, init=sub.params)
        fits = [sub, full]
        if sub.converged and full.converged:
            lrt = likelihood_ratio_test(sub, full, level=args.level)
            fits = [full if lrt.reject_poisson else sub]
    if lrt is not None:
        fmt = lambda v: format_number(v, args.full_precision)  # noqa: E731
        verdict = "rejected" if lrt.reject_poisson else "not rejected"
        print(f"likelihood-ratio test: statistic {fmt(lrt.statistic)}, "
              f"p-value {fmt(lrt.p_value)}", file=out)
        print(f"poisson-size submodel {verdict} at level "
              f"{fmt(lrt.significance_level)}", file=out)
        print(f"selected model: {fits[0].model}", file=out)
    for fit in fits:
        _print_fit(fit, args.level, args.full_precision, out)
    _emit(args, out.getvalue())
    if not all(fit.converged for fit in fits):
        print("latentbinom: error: fit did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


# -- efficiency ---------------------------------------------------------------


def _read_settings_file(path: Path) -> list:
    designs, out = builtin_designs(), []
    columns = ("design", "beta1", "mu", "alpha")
    try:
        for header, _, fields, lines in _table(path):
            if any(header.count(c) != 1 for c in columns):
                raise ValueError(
                    "header must contain columns design,beta1,mu,alpha once each")
            n_cols, at = len(header), [header.index(c) for c in columns]
            for k, line_no in enumerate(lines):
                row = fields[k * n_cols:(k + 1) * n_cols]
                try:
                    design_id, slope, mu, alpha = (_number(row[i]) for i in at)
                except ValueError:
                    raise ValueError(f"line {line_no}: non-numeric field") from None
                try:
                    if row[at[0]].strip() not in ("1", "2"):
                        raise ValueError("design must be 1 or 2")
                    out.append(make_setting(designs[int(design_id) - 1], slope, mu, alpha))
                except ValueError as exc:
                    raise ValueError(f"line {line_no}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not out:
        raise ValueError(f"{path}: no settings")
    return out


def cmd_efficiency(args: argparse.Namespace) -> int:
    settings = (table_settings() if args.settings is None
                else _read_settings_file(args.settings))
    results = efficiency_table(settings)
    records = [{**_setting_row(i, setting), **vars(res)}  # rho, gamma, rho_gamma
               for i, (setting, res) in enumerate(zip(settings, results), start=1)]
    columns = ["setting", "beta1", "mu", "alpha", "rho", "gamma", "rho_gamma"]
    return _write_table(args, records, columns)


# -- curves -------------------------------------------------------------------


def _alpha_grid() -> list[float]:
    lo, hi = _ALPHA_GRID_SPAN
    grid = set(np.geomspace(lo, hi, _ALPHA_GRID_POINTS).tolist())
    grid.update((25.0, 49.0))
    return sorted(grid)


def cmd_curves(args: argparse.Namespace) -> int:
    x1, _ = builtin_designs()
    records = []
    if args.kind == "gamma-by-alpha":
        grid = _alpha_grid()
        for slope, mu in _CURVE_PANELS:
            setting = make_setting(x1, slope, mu, alpha=25.0)
            for alpha, gamma in gamma_curve(setting, grid):
                records.append({"beta1": slope, "mu": mu, "alpha": alpha,
                                "gamma": gamma})
        columns = ["beta1", "mu", "alpha", "gamma"]
    else:
        for slope, alpha in _SD_CURVE_PANELS:
            setting = make_setting(x1, slope=slope, mu=100.0, alpha=alpha)
            for mu, sd0, sd1, sd_mu in sd_vs_mu_curves(setting, _MU_GRID):
                records.append({"beta1": slope, "alpha": alpha, "mu": mu,
                                "sd_beta0": sd0, "sd_beta1": sd1,
                                "sd_mu": sd_mu})
        columns = ["beta1", "alpha", "mu", "sd_beta0", "sd_beta1", "sd_mu"]
    return _write_table(args, records, columns)


# -- simulate -----------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    chosen = args.setting if args.setting else list(range(1, 17))
    all_settings = table_settings()
    for s in chosen:
        if not 1 <= s <= len(all_settings):
            raise ValueError(f"setting {s} out of range 1-{len(all_settings)}")
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    records = []
    for s in chosen:
        setting = all_settings[s - 1]
        summary = run_study(SimConfig(
            setting=setting,
            n_samples=args.samples,
            seed=args.seed,
            ci_level=1.0 - args.level,
        ))
        rec = _setting_row(s, setting)
        rec.update(samples=args.samples, seed=args.seed, bias=summary.bias,
                   mse=summary.mse, coverage=summary.coverage,
                   n_converged=summary.n_converged)
        records.append(rec)
    columns = ["setting", "beta1", "mu", "alpha", "samples", "seed",
               "bias", "mse", "coverage", "n_converged"]
    print(f"seed: {args.seed}", file=sys.stderr)
    return _write_table(args, records, columns)


_COMMANDS = {
    "fit": cmd_fit,
    "efficiency": cmd_efficiency,
    "curves": cmd_curves,
    "simulate": cmd_simulate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except FileNotFoundError as exc:
        print(f"latentbinom: error: file not found: {exc.filename}",
              file=sys.stderr)
        return EXIT_USAGE
    # LinAlgError subclasses ValueError, so it is caught first: a numerical
    # failure is a non-convergence, not a usage error.
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"latentbinom: error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (OSError, ValueError) as exc:
        print(f"latentbinom: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
