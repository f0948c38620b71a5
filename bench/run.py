"""latentbinom benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload {study,fit,design} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout. Every stage runs in a fresh child process
(``worker.py``) on the checkout's ``src`` with BLAS limited to one thread.
With ``--trace 0`` the result holds the end-to-end metrics: set-up time
over SETUP_REPEATS extra set-up-only children plus the measuring child,
and import time over those children, one fresh interpreter after each
child's set-up and one after each pass of the measuring child (both
medians); throughput, median and 90th-percentile operation time, scaled
to the reference kernel's nominal speed (``reference.py``); the share of
work that succeeded; and peak resident memory. With
``--trace 1`` it holds the per-layer metrics of a traced run. Every output
is checked against the references in ``refs/``; the last line of standard
output is the JSON result, and the full record goes to
``.benchrun/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".benchrun"
SETUP_REPEATS = 2
TIME_LIMIT_S = 170.0
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv), spec


def _child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    for var in BLAS_THREADS:
        env[var] = "1"
    return env


def _worker(args, mode: str, tag: str, deadline: float) -> dict:
    workdir = OUT_DIR / f"work-{os.getpid()}-{tag}"
    out = OUT_DIR / f"out-{os.getpid()}-{tag}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--workdir", str(workdir), "--out", str(out)]
    if args.trace:
        cmd += ["--trace-file",
                str(OUT_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz")]
    try:
        # subprocess.run kills the child on timeout and waits for it.
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT,
                              stdout=subprocess.DEVNULL,
                              timeout=max(deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} worker exited {proc.returncode}")
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink(missing_ok=True)
        shutil.rmtree(workdir, ignore_errors=True)


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _end_to_end(runs: list[dict], main: dict) -> dict:
    """Op times are scaled to the reference kernel's nominal speed by the
    timed loop's mean kernel time (reference.py). Set-up and import times
    are medians as measured."""
    times = sorted(t * speed_scale(main) for t in main["durations"])
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "import_s": statistics.median(t for r in runs
                                      for t in r["import_samples"]),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "ok_share": 1.0 - main["failed"] / main["attempted"],
        "peak_rss_mb": main["peak_rss_mb"],
    }


def speed_scale(main: dict) -> float:
    """Nominal over mean reference kernel time of the timed loop."""
    return main["ref_nominal_s"] / main["ref_s"]


def main(argv=None) -> int:
    args, spec = _parse(argv)
    if not (ROOT / "src" / "latentbinom" / "__init__.py").is_file():
        print(f"bench: no latentbinom sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    try:
        # Half the set-up-only children run before the measuring child and
        # half after, so the set-up and import samples span the whole run.
        repeats = 0 if args.trace else SETUP_REPEATS
        runs = [_worker(args, "setup", f"setup{i}", deadline)
                for i in range(repeats // 2)]
        main_run = _worker(args, "run", "run", deadline)
        runs += [_worker(args, "setup", f"setup{i}", deadline)
                 for i in range(repeats // 2, repeats)]
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    runs.append(main_run)

    scale = None if args.trace else speed_scale(main_run)
    if args.trace:
        wanted = spec["per_layer"]
        values = main_run["layer"]
    else:
        wanted = spec["end_to_end"]
        values = _end_to_end(runs, main_run)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    mismatches = [m for r in runs for m in r["mismatches"]]
    for message in mismatches[:20]:
        print(f"bench: MISMATCH {message}", file=sys.stderr)
    stamp = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             "git_sha": _git_sha(), "nproc": os.cpu_count(),
             **main_run["versions"]}
    result = {"correct": not mismatches, "attempted": main_run["attempted"],
              "failed": main_run["failed"], "metrics": metrics}

    results_dir = OUT_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"stamp": stamp, "ops": main_run["ops"],
                              "speed_scale": scale,
                              "setup_samples": [r["setup_s"] for r in runs],
                              "import_samples": [t for r in runs
                                                 for t in r["import_samples"]],
                              "runs": runs,
                              "mismatches": mismatches, **result}, indent=1),
                  encoding="utf-8")
    print("stamp: " + json.dumps(stamp))
    print(f"ops: {main_run['ops']}"
          + (f" in {main_run['passes']} passes, speed scale {scale:.4f}"
             if scale else ""))
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
