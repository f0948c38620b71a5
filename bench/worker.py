"""One workload in one fresh process: set up, then either stop (``--mode
setup``) or run the timed or traced loop (``--mode run``). Writes one JSON
object to ``--out``. Started by ``run.py``, which sets PYTHONPATH to the
checkout's ``src`` and limits BLAS to one thread.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

# Imported before anything else, so import_s is what a fresh interpreter
# pays for ``import latentbinom``. run.py puts the checkout's src on
# PYTHONPATH.
import latentbinom  # noqa: E402,F401

_IMPORT_S = time.perf_counter() - _START

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--trace-file", type=Path, default=None)
    return p.parse_args(argv)


def _enough(elapsed: float, passes: int, budget: float) -> bool:
    """Stop at the pass boundary nearest the time budget."""
    return elapsed + 0.5 * elapsed / passes >= budget


_IMPORT_PROBE = ("import time; t = time.perf_counter(); import latentbinom; "
                 "print(time.perf_counter() - t)")


def import_probe() -> float:
    """Time ``import latentbinom`` in a fresh interpreter, which inherits
    this process's PYTHONPATH and BLAS settings."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(proc.stdout)


def timed_loop(wl, seconds: float) -> dict:
    """Whole passes over the run's set until the budget is spent, with one
    reference kernel run after each operation and one fresh-interpreter
    import after each pass (outside the budget).
    ``ref_s`` is the mean kernel time over the timed passes (see
    reference.py)."""
    durations, outcomes, imports, refs = [], [], [], []
    passes = 0
    busy = 0.0
    while True:
        start = time.perf_counter()
        for op in wl.round(passes):
            t = time.perf_counter()
            outcome = wl.run(op)
            durations.append(time.perf_counter() - t)
            outcomes.append((op, outcome))
            refs.append(reference.timed())
        busy += time.perf_counter() - start
        passes += 1
        imports.append(import_probe())
        if _enough(busy, passes, seconds):
            break
    return {"window_s": busy, "passes": passes, "import_samples": imports,
            "ref_s": sum(refs) / len(refs), "durations": durations,
            "outcomes": outcomes}


def traced_loop(wl, seconds: float, trace_file: Path | None) -> dict:
    """Repeat the first pass traced for half the budget, then replay the
    same operations untraced. Count metrics are exact per pass, so they
    do not depend on how many repetitions fit in the budget."""
    from tracing import Tracer, layer_metrics

    ops = wl.round(0)
    tracer = Tracer()
    tracer.install()
    outcomes = []
    reps = 0
    start = time.perf_counter()
    try:
        while True:
            for op in ops:
                with tracer.op(len(outcomes)):
                    outcomes.append((op, wl.run(op)))
            reps += 1
            if _enough(time.perf_counter() - start, reps, seconds / 2):
                break
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    start = time.perf_counter()
    for _ in range(reps):
        for op in ops:
            outcomes.append((op, wl.run(op)))
    untraced_s = time.perf_counter() - start
    layer = layer_metrics(tracer.spans)
    layer["trace.ops_per_s_ratio"] = untraced_s / traced_s
    if trace_file is not None:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_file)
    return {"layer": layer, "outcomes": outcomes[:reps * len(ops)],
            "replayed": outcomes[reps * len(ops):]}


def main(argv=None) -> int:
    args = _parse(argv)
    import numpy
    import scipy

    import oracle
    from workloads import WORKLOADS

    args.workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    refs = oracle.load_refs(args.workload)
    wl.setup()
    mismatches = []
    for op in wl.warmup():
        mismatches += wl.check(op, wl.run(op), refs)
    setup_s = time.perf_counter() - _START
    result = {"setup_s": setup_s, "import_samples": [_IMPORT_S, import_probe()],
              "ref_nominal_s": reference.NOMINAL_S,
              "versions": {"python": platform.python_version(),
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if args.mode == "run":
        if args.trace:
            loop = traced_loop(wl, args.seconds, args.trace_file)
            result["layer"] = loop["layer"]
            checked = loop["outcomes"] + loop["replayed"]
            if not loop["layer"]["trace.self_sum_share"] <= 1.0 + 1e-9:
                mismatches.append("trace: self times add up to more than "
                                  "the op time")
        else:
            loop = timed_loop(wl, args.seconds)
            result["durations"] = loop["durations"]
            result["import_samples"] += loop["import_samples"]
            result["ref_s"] = loop["ref_s"]
            result["passes"] = loop["passes"]
            result["window_s"] = loop["window_s"]
            checked = loop["outcomes"]
        for op, outcome in checked:
            mismatches += wl.check(op, outcome, refs)
        measured = loop["outcomes"]
        result["ops"] = len(measured)
        result["attempted"] = sum(o.attempted for _, o in measured)
        result["failed"] = sum(o.failed for _, o in measured)
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["mismatches"] = mismatches
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
