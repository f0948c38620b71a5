"""The three workloads. Each is a closed loop of operations run one after
another by a single caller; an operation finishes before the next starts.
A run has a fixed, seeded set of distinct operations (``ops``) and repeats
it in passes, each pass in its own seeded order (``round``).

* fit:    one ``latentbinom fit`` call (auto mode) per operation, on a
          seeded mix of the built-in jejunal data and three CSV classes.
* design: every design output once per operation: the built-in efficiency
          table, the table for a seeded custom grid, and both curve kinds.
* study:  one ``run_study`` call per operation, on table settings 1, 8, 9
          and 16 with study seeds from the seeded stream.
"""

from __future__ import annotations

import io
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import oracle


@dataclass
class Outcome:
    attempted: int
    failed: int
    output: object


class Workload:
    """A run's set of distinct operations, repeated in seeded passes."""

    seed: int

    def ops(self) -> list:
        raise NotImplementedError

    def round(self, r: int) -> list:
        ops = self.ops()
        perm = np.random.default_rng([self.seed, 0, r]).permutation(len(ops))
        return [ops[i] for i in perm]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``latentbinom.cli.main`` in process, stdout captured. An exception
    escaping main is a crash: exit code -1, traceback on stderr."""
    from latentbinom import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = -1
    return rc, out.getvalue()


class Fit(Workload):
    """The set: the built-in jejunal data, FIT_SET["small"] 126-row CSVs,
    one large-count CSV and FIT_SET["wide"] wide CSVs. The built-in and
    small fits (41 of 50 operations) hold the median, and the wide class
    (the slowest 8) the 90th percentile, each away from a class boundary."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.entries = {kind: inputs.run_set(seed, kind) for kind in inputs.FIT_POOL}

    def setup(self) -> None:
        for kind, ks in self.entries.items():
            for k in ks:
                inputs.write_fit_csv(self.path(kind, k), kind, k)

    def path(self, kind: str, k: int) -> Path:
        return self.workdir / f"{kind}-{k}.csv"

    def op(self, kind: str, k: int = 0) -> tuple[str, list[str]]:
        if kind == "jejunal":
            return "jejunal", ["fit", "--builtin", "jejunal"]
        return f"{kind}/{k}", ["fit", "--input", str(self.path(kind, k))]

    def warmup(self) -> list:
        return [self.op("jejunal")]

    def ops(self) -> list:
        return [self.op("jejunal")] + [self.op(kind, k)
                                       for kind, ks in self.entries.items()
                                       for k in ks]

    def run(self, op) -> Outcome:
        rc, stdout = run_cli(op[1])
        return Outcome(1, int(rc != 0), (rc, stdout))

    def check(self, op, outcome: Outcome, refs: dict) -> list[str]:
        rc, stdout = outcome.output
        return oracle.check_fit(op[0], rc, stdout, refs[op[0]])


class Design(Workload):
    """The set: one operation per grid of the run's DESIGN_SET grids. The
    three fixed outputs are the same in every operation."""

    FIXED = {"efficiency": ["efficiency"],
             "gamma-by-alpha": ["curves", "--kind", "gamma-by-alpha"],
             "sd-by-mu": ["curves", "--kind", "sd-by-mu"]}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.grids = inputs.run_set(seed, "grid")
        self.spare = next(k for k in inputs.pool_order(seed, "grid", inputs.DESIGN_POOL)
                          if k not in self.grids)

    def setup(self) -> None:
        for k in self.grids + [self.spare]:
            inputs.write_grid_csv(self.path(k), k)

    def path(self, k: int) -> Path:
        return self.workdir / f"grid-{k}.csv"

    def op(self, k: int) -> tuple[str, dict]:
        argvs = dict(self.FIXED)
        argvs[f"grid/{k}"] = ["efficiency", "--settings", str(self.path(k))]
        return f"design/{k}", argvs

    def warmup(self) -> list:
        return [self.op(self.spare)]

    def ops(self) -> list:
        return [self.op(k) for k in self.grids]

    def run(self, op) -> Outcome:
        results = {key: run_cli(argv) for key, argv in op[1].items()}
        return Outcome(1, int(any(rc != 0 for rc, _ in results.values())),
                       results)

    def check(self, op, outcome: Outcome, refs: dict) -> list[str]:
        out = []
        for key, (rc, text) in outcome.output.items():
            if rc != 0:
                out.append(f"{key}: exit {rc}, reference exited 0")
            else:
                out += oracle.check_text(key, text, refs[key])
        return out


class Study(Workload):
    """The set: settings 1, 8, 9 and 16, each with the run's STUDY_SET
    study seeds."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.entries = inputs.run_set(seed, "study")
        self.spare = next(k for k in inputs.pool_order(seed, "study", inputs.STUDY_POOL)
                          if k not in self.entries)

    def setup(self) -> None:
        from latentbinom import efficiency

        table = efficiency.table_settings()
        self.settings = {s: table[s - 1] for s in inputs.STUDY_SETTINGS}

    def op(self, setting: int, k: int) -> tuple[str, tuple[int, int]]:
        return f"{setting}/{k}", (setting, inputs.study_seed(k))

    def warmup(self) -> list:
        return [self.op(inputs.STUDY_SETTINGS[0], self.spare)]

    def ops(self) -> list:
        return [self.op(s, k) for k in self.entries for s in inputs.STUDY_SETTINGS]

    def run(self, op) -> Outcome:
        from latentbinom import simulation

        setting, seed = op[1]
        try:
            summary = simulation.run_study(simulation.SimConfig(
                setting=self.settings[setting],
                n_samples=inputs.STUDY_SAMPLES, seed=seed))
        except Exception:
            traceback.print_exc()
            return Outcome(inputs.STUDY_SAMPLES, inputs.STUDY_SAMPLES, None)
        out = {"bias": summary.bias, "mse": summary.mse,
               "coverage": summary.coverage, "n_converged": summary.n_converged}
        return Outcome(inputs.STUDY_SAMPLES,
                       inputs.STUDY_SAMPLES - summary.n_converged, out)

    def check(self, op, outcome: Outcome, refs: dict) -> list[str]:
        if outcome.output is None:
            return [f"{op[0]}: run_study raised"]
        return oracle.check_study(op[0], outcome.output, refs[op[0]])


WORKLOADS = {"fit": Fit, "design": Design, "study": Study}
