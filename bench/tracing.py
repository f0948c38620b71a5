"""Spans around the program's public functions, recorded from outside it.

:class:`Tracer` replaces each traced function in every ``latentbinom``
namespace that holds it (a function imported with ``from .x import f`` lives
in the importing module too, and calls through that name must be seen), and
restores the originals on :meth:`Tracer.uninstall`. Spans are kept in memory
as ``[name, start, end, parent, op, info]`` and written out by
:meth:`Tracer.dump` when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

# Layer (module) -> traced public functions. Dataset.from_arrays is traced
# on the class itself.
LAYERS = {
    "cli": ("main",),
    "data_io": ("read_csv", "write_records"),
    "model": ("log_likelihood", "score", "hessian"),
    "estimation": ("fit_poisson_size", "fit_full", "likelihood_ratio_test"),
    "information": ("info_full", "info_poisson_size", "info_known_mean",
                    "expected_alpha_info", "inverse_with_condition"),
    "efficiency": ("efficiency_measures", "gamma_curve", "sd_vs_mu_curves"),
    "simulation": ("generate_dataset", "run_study"),
}
FROM_ARRAYS = "model.Dataset.from_arrays"
FITS = ("estimation.fit_poisson_size", "estimation.fit_full")
OP = "op"


def _shift_table_bytes(args, result):
    # One float64 table of max(y) + 1 entries per call with finite alpha.
    data, params = args[0], args[1]
    if math.isinf(params.alpha):
        return 0
    return 8 * (int(data.y.max()) + 1)


def _fit_info(args, result):
    if result is None:  # the fit raised
        return (0, False)
    return (int(result.n_iterations), bool(result.converged))


_INFO = {
    "data_io.read_csv": lambda args, result: 0 if result is None else result.n_obs,
    FROM_ARRAYS: lambda args, result: 0 if result is None else result.n_obs,
    "model.log_likelihood": _shift_table_bytes,
    "model.score": _shift_table_bytes,
    "model.hessian": _shift_table_bytes,
    "estimation.fit_poisson_size": _fit_info,
    "estimation.fit_full": _fit_info,
    "efficiency.gamma_curve": lambda args, result: len(args[1]),
    "efficiency.sd_vs_mu_curves": lambda args, result: len(args[1]),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self._op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(rec)
                if info is not None:
                    rec[5] = info(args, result)

        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """The root span of one operation."""
        self._op = op_id
        rec = self._open(OP)
        try:
            yield
        finally:
            self._close(rec)
            self._op = -1

    # -- patching --------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every traced function in every namespace that holds it.
        Returns the patched names as ``namespace.attribute``."""
        pkg = importlib.import_module("latentbinom")
        modules = [pkg] + [importlib.import_module(f"latentbinom.{m}")
                           for m in LAYERS]
        patched = []
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"latentbinom.{layer}")
            for fname in names:
                orig = getattr(home, fname, None)
                if orig is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
                            patched.append(f"{mod.__name__}.{attr}")
        dataset = importlib.import_module("latentbinom.model").Dataset
        orig_cm = dataset.__dict__.get("from_arrays")
        if isinstance(orig_cm, classmethod):
            self._restore.append((dataset, "from_arrays", orig_cm))
            dataset.from_arrays = classmethod(self.wrap(FROM_ARRAYS,
                                                        orig_cm.__func__))
            patched.append("latentbinom.model.Dataset.from_arrays")
        else:
            self.missing.append(FROM_ARRAYS)
        if self.missing:
            print(f"trace: not found, reported as 0: {', '.join(self.missing)}",
                  file=sys.stderr)
        return patched

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def dump(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "info": info}) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from one traced phase (see BENCHMARK.json)."""
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, _op, _info in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    info_sum: dict[str, float] = defaultdict(float)
    fit_iters = fit_converged = fit_evals = 0
    for i, (name, start, end, parent, _op, info) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        total[name] += dur
        self_time[name] += dur - child_time[i]
        if name in FITS:
            fit_iters += info[0]
            fit_converged += info[1]
        elif info is not None:
            info_sum[name] += info
        if name == "model.log_likelihood":
            p = parent
            while p >= 0 and spans[p][0] not in FITS:
                p = spans[p][3]
            fit_evals += p >= 0

    n_ops = calls[OP]
    op_time = total[OP]
    n_fits = calls[FITS[0]] + calls[FITS[1]]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_call(name: str, scale: float) -> float:
        return ratio(total[name] * scale, calls[name])

    m = {
        "cli.self_ms_per_op": ratio(self_time["cli.main"] * 1e3, n_ops),
        "data_io.read_csv.us_per_row":
            ratio(total["data_io.read_csv"] * 1e6, info_sum["data_io.read_csv"]),
        "data_io.write_records.ms_per_call": per_call("data_io.write_records", 1e3),
        "model.Dataset.from_arrays.us_per_row":
            ratio(total[FROM_ARRAYS] * 1e6, info_sum[FROM_ARRAYS]),
    }
    for fn in ("log_likelihood", "score", "hessian"):
        name = f"model.{fn}"
        m[f"{name}.calls_per_op"] = ratio(calls[name], n_ops)
        m[f"{name}.us_per_call"] = per_call(name, 1e6)
    model_self = sum(t for k, t in self_time.items() if k.startswith("model."))
    m["model.self_share"] = ratio(model_self, op_time)
    m["model.shift_table_bytes_per_op"] = ratio(
        sum(info_sum[f"model.{fn}"] for fn in ("log_likelihood", "score", "hessian")),
        n_ops)
    for fn in ("fit_poisson_size", "fit_full", "likelihood_ratio_test"):
        name = f"estimation.{fn}"
        m[f"{name}.calls_per_op"] = ratio(calls[name], n_ops)
        m[f"{name}.self_ms_per_call"] = ratio(self_time[name] * 1e3, calls[name])
    m["estimation.iterations_per_fit"] = ratio(fit_iters, n_fits)
    m["estimation.evals_per_fit"] = ratio(fit_evals, n_fits)
    m["estimation.converged_ratio"] = ratio(fit_converged, n_fits)
    for fn in ("info_full", "info_poisson_size", "info_known_mean"):
        m[f"information.{fn}.ms_per_call"] = per_call(f"information.{fn}", 1e3)
    alpha = "information.expected_alpha_info"
    m[f"{alpha}.calls_per_op"] = ratio(calls[alpha], n_ops)
    m[f"{alpha}.us_per_call"] = per_call(alpha, 1e6)
    m["information.alpha_info_share"] = ratio(total[alpha], op_time)
    m["information.inverse_with_condition.us_per_call"] = per_call(
        "information.inverse_with_condition", 1e6)
    m["efficiency.efficiency_measures.ms_per_call"] = per_call(
        "efficiency.efficiency_measures", 1e3)
    for fn in ("gamma_curve", "sd_vs_mu_curves"):
        name = f"efficiency.{fn}"
        m[f"{name}.ms_per_point"] = ratio(total[name] * 1e3, info_sum[name])
    m["simulation.generate_dataset.ms_per_call"] = per_call(
        "simulation.generate_dataset", 1e3)
    m["simulation.run_study.self_share"] = ratio(
        self_time["simulation.run_study"], op_time)
    m["trace.self_sum_share"] = ratio(
        sum(t for k, t in self_time.items() if k != OP), op_time)
    return m


# Metrics that count work rather than time it: they must repeat exactly for
# a fixed seed.
COUNT_METRICS = tuple(
    [f"model.{fn}.calls_per_op" for fn in ("log_likelihood", "score", "hessian")]
    + [f"estimation.{fn}.calls_per_op"
       for fn in ("fit_poisson_size", "fit_full", "likelihood_ratio_test")]
    + ["information.expected_alpha_info.calls_per_op",
       "estimation.iterations_per_fit", "estimation.evals_per_fit",
       "model.shift_table_bytes_per_op"])
