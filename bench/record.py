"""Record the oracle's reference outputs for every pool entry.

Run from the repository root at the commit whose outputs are the reference:

    python3 bench/record.py

It rewrites ``bench/refs/{fit,design,study}.json``. The references in the
repository were recorded at the seed commit; re-record only in a change that
declares an output change.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import json  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402
from oracle import REFS_DIR  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        work = Path(tmp)
        fit = workloads.Fit(0, work)
        refs = {}
        ops = [fit.op("jejunal")]
        for kind, size in inputs.FIT_POOL.items():
            for k in range(size):
                inputs.write_fit_csv(fit.path(kind, k), kind, k)
                ops.append(fit.op(kind, k))
        for op in ops:
            start = time.perf_counter()
            rc, stdout = fit.run(op).output
            refs[op[0]] = {"rc": rc, "stdout": stdout}
            print(f"{op[0]} exit {rc} {time.perf_counter() - start:.3f} s",
                  file=sys.stderr)
        _write("fit", refs)

        design = workloads.Design(0, work)
        refs = {}
        for k in range(inputs.DESIGN_POOL):
            inputs.write_grid_csv(design.path(k), k)
            for key, (rc, text) in design.run(design.op(k)).output.items():
                if rc != 0:
                    raise SystemExit(f"{key}: exit {rc}; no operation of the "
                                     "design workload may fail")
                refs[key] = text
        _write("design", refs)

    study = workloads.Study(0, ROOT)
    study.setup()
    refs = {}
    for s in inputs.STUDY_SETTINGS:
        for k in range(inputs.STUDY_POOL):
            op = study.op(s, k)
            refs[op[0]] = study.run(op).output
        print("study", s, file=sys.stderr)
    _write("study", refs)
    return 0


def _write(name: str, refs: dict) -> None:
    REFS_DIR.mkdir(exist_ok=True)
    (REFS_DIR / f"{name}.json").write_text(
        json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
