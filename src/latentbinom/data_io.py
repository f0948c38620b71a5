"""Dataset ingestion: the embedded jejunal crypt data, delimited-file
reading, and record writing for the CLI.

The embedded data are compiled in as constants so golden tests never depend
on the working directory. The CSV dialect is deliberately rigid: header
required, comma delimiter, period decimal separator.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence, TextIO, Union

import numpy as np

from .model import Dataset

__all__ = [
    "JEJUNAL_CRYPT_COUNTS",
    "jejunal_dataset",
    "read_csv",
    "write_records",
    "format_number",
]


# Surviving jejunal crypt counts per mouse, keyed by radiation dose in Gy.
# 126 animals across 10 dose groups.
JEJUNAL_CRYPT_COUNTS: Mapping[float, tuple[int, ...]] = {
    6.25: (76, 96, 73, 81, 81, 87, 77, 75),
    6.50: (75, 80, 67, 86, 70, 78, 88, 76, 54, 58, 76, 69, 61, 70),
    6.75: (66, 51, 48, 48, 57, 45, 59, 49),
    7.25: (35, 33, 35, 37, 38, 53, 37, 36, 42, 45, 48, 42, 31, 36, 40, 45,
           47, 38, 40, 35, 27, 35),
    7.75: (19, 18, 25, 19, 19, 18, 21, 18),
    8.00: (19, 24, 19, 26, 18, 18, 14, 19, 11, 21, 19, 14, 16, 13),
    8.25: (19, 19, 19, 16, 12, 16, 12, 13),
    8.75: (11, 11, 7, 3, 5, 7, 9, 5, 11, 9, 6, 9, 7, 5, 10, 7, 11, 9, 7,
           11, 5, 12),
    9.25: (6, 3, 5, 6, 4, 6, 5, 3),
    9.50: (1, 4, 5, 5, 3, 6, 3, 3, 5, 5, 1, 4, 3, 4),
}


def jejunal_dataset() -> Dataset:
    """The embedded jejunal crypt data as a Dataset with x = (1, dose), one
    row per mouse in table order."""
    counts = list(JEJUNAL_CRYPT_COUNTS.values())
    dose = np.repeat(list(JEJUNAL_CRYPT_COUNTS), [len(c) for c in counts])
    y = np.concatenate(counts)
    return Dataset.from_arrays(y, np.column_stack([np.ones(dose.size), dose]))


def _number(text: str, kind=float):
    """kind(text), refusing the digit-group underscores ("1_000") that
    Python's int() and float() accept."""
    if "_" in text:
        raise ValueError(f"invalid number {text!r}")
    return kind(text)


def _parse_row(fields: list[str], line_no: int, n_cols: int) -> tuple[list[float], int]:
    if len(fields) != n_cols:
        raise ValueError(
            f"line {line_no}: expected {n_cols} fields, got {len(fields)}")
    try:
        covariates = [_number(f) for f in fields[:-1]]
    except ValueError:
        raise ValueError(
            f"line {line_no}: non-numeric covariate field") from None
    if not all(map(math.isfinite, covariates)):
        raise ValueError(f"line {line_no}: non-finite covariate")
    last = fields[-1].strip()
    try:
        count = _number(last, int)
    except ValueError:
        try:
            as_float = _number(last)
        except ValueError:
            raise ValueError(
                f"line {line_no}: non-numeric count {last!r}") from None
        if not as_float.is_integer():
            raise ValueError(
                f"line {line_no}: count must be an integer, got {last!r}") from None
        count = int(as_float)
    if count < 0:
        raise ValueError(f"line {line_no}: negative count {count}")
    return covariates, count


def read_csv(path: Union[str, Path], intercept: bool = True) -> Dataset:
    """Read a header-plus-rows CSV where the last column is the count and
    every other column is a covariate.

    Blank lines are skipped. Errors carry the 1-based line number of the
    offending row. With ``intercept`` (the default) a constant 1 column is
    prepended to the covariates.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = None
        y: list[int] = []
        rows: list[list[float]] = []
        n_cols = 0
        for line_no, fields in enumerate(reader, start=1):
            if not fields or all(not f.strip() for f in fields):
                continue
            if header is None:
                header = fields
                n_cols = len(fields)
                if n_cols < 2:
                    raise ValueError(
                        f"line {line_no}: header needs at least two columns")
                continue
            covariates, count = _parse_row(fields, line_no, n_cols)
            rows.append(covariates)
            y.append(count)
    if header is None:
        raise ValueError(f"{path}: empty file, expected a header row")
    if not rows:
        raise ValueError(f"{path}: no observations")
    X = np.asarray(rows, dtype=float)
    if intercept:
        X = np.column_stack([np.ones(X.shape[0]), X])
    return Dataset.from_arrays(y, X)


def format_number(value: object, full_precision: bool = False) -> str:
    """Render a numeric field: 6 significant digits by default, repr-exact
    with full_precision. Non-floats pass through str()."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.floating, np.integer)):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    x = float(value)
    if full_precision:
        return repr(x)
    return f"{x:.6g}"


def write_records(path_or_file: Union[str, Path, TextIO],
                  records: Iterable[Mapping[str, object]],
                  fmt: str = "csv",
                  columns: Union[Sequence[str], None] = None,
                  full_precision: bool = False) -> None:
    """Write mapping records as CSV or line-delimited JSON.

    Column order comes from ``columns`` when given, else from the first
    record's key order; an empty record list still writes the header when
    columns are known.
    """
    if fmt not in ("csv", "structured"):
        raise ValueError(f"unknown format {fmt!r}")
    records = list(records)
    if columns is None:
        columns = list(records[0].keys()) if records else []

    def _write(fh: TextIO) -> None:
        if fmt == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for rec in records:
                writer.writerow([format_number(rec[c], full_precision)
                                 for c in columns])
        else:
            for rec in records:
                obj = {c: (float(format_number(rec[c], full_precision))
                           if isinstance(rec[c], (float, np.floating))
                           else rec[c])
                       for c in columns}
                fh.write(json.dumps(obj) + "\n")

    if hasattr(path_or_file, "write"):
        _write(path_or_file)
    else:
        with Path(path_or_file).open("w", encoding="utf-8", newline="") as fh:
            _write(fh)
