"""Correctness oracle: compares each operation's output with the reference
recorded by ``record.py`` at the seed commit (``refs/*.json``).

Each check returns a list of mismatch messages; an empty list means the
output is accepted. A mismatch makes the run incorrect; it is not a failed
operation.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFS_DIR = Path(__file__).resolve().parent / "refs"

# Acceptance criteria 1 and 2: the published Poisson-size fit to the
# jejunal crypt data, (value, absolute tolerance) per printed column.
JEJUNAL_PUBLISHED = {
    "beta0": ((6.705, 0.005), (0.764, 0.02 * 0.764), (5.207, 0.01), (8.203, 0.01)),
    "beta1": ((-1.124, 0.005), (0.063, 0.02 * 0.063), (-1.248, 0.01), (-1.000, 0.01)),
    "mu": ((196.2, 0.5), (47.4, 0.02 * 47.4), (103.4, 0.5), (289.0, 0.5)),
}

STUDY_TOL = 1e-6


def load_refs(workload: str) -> dict:
    return json.loads((REFS_DIR / f"{workload}.json").read_text(encoding="utf-8"))


def _first_diff(got: str, want: str) -> str:
    for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines()), 1):
        if a != b:
            return f"line {i}: got {a!r}, want {b!r}"
    return f"lengths differ: got {len(got)} chars, want {len(want)}"


def check_text(key: str, got: str, want: str) -> list[str]:
    """Byte-identical output."""
    return [] if got == want else [f"{key}: output differs, {_first_diff(got, want)}"]


def check_fit(key: str, rc: int, stdout: str, ref: dict) -> list[str]:
    """Where the reference exited 2 (no convergence), exit 0 or 2 is
    accepted, since a later fix may make the fit converge. Otherwise the
    exit code and stdout must match exactly."""
    if ref["rc"] == 2:
        return [] if rc in (0, 2) else [f"{key}: exit {rc}, want 0 or 2"]
    if rc != ref["rc"]:
        return [f"{key}: exit {rc}, reference exited {ref['rc']}"]
    out = check_text(key, stdout, ref["stdout"])
    if key == "jejunal":
        out += check_jejunal(stdout)
    return out


def check_jejunal(stdout: str) -> list[str]:
    """The selected Poisson-size fit matches the published estimates,
    standard errors and 95% intervals."""
    lines = stdout.splitlines()
    if "model: poisson_size" not in lines:
        return ["jejunal: no Poisson-size fit in the output"]
    rows = {}
    for line in lines[lines.index("model: poisson_size"):]:
        fields = line.split()
        if fields and fields[0] in JEJUNAL_PUBLISHED and len(fields) == 5:
            rows[fields[0]] = fields[1:]
    out = []
    for label, published in JEJUNAL_PUBLISHED.items():
        if label not in rows:
            out.append(f"jejunal: no row for {label}")
            continue
        for column, text, (want, tol) in zip(
                ("estimate", "std-error", "ci-lower", "ci-upper"),
                rows[label], published):
            try:
                got = float(text)
            except ValueError:
                got = float("nan")
            if not abs(got - want) <= tol:
                out.append(f"jejunal: {label} {column} {text}, "
                           f"published {want} +/- {tol:.3g}")
    return out


def check_study(key: str, summary: dict, ref: dict) -> list[str]:
    """n_converged may not fall; when it is unchanged, bias and MSE agree
    with the reference to STUDY_TOL."""
    if summary["n_converged"] < ref["n_converged"]:
        return [f"{key}: n_converged {summary['n_converged']} "
                f"< reference {ref['n_converged']}"]
    if summary["n_converged"] > ref["n_converged"]:
        return []
    out = []
    for field in ("bias", "mse"):
        got, want = summary[field], ref[field]
        if not (abs(got - want) <= STUDY_TOL
                or (math.isnan(got) and math.isnan(want))):
            out.append(f"{key}: {field} {summary[field]!r}, "
                       f"reference {ref[field]!r}")
    return out
