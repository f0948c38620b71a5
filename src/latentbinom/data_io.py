"""Dataset ingestion: the embedded jejunal crypt data, delimited-file
reading, and record writing for the CLI.

The embedded data are compiled in as constants so golden tests never depend
on the working directory. Data and settings files share one deliberately
rigid CSV dialect: comma delimiter, period decimal separator, the first row
that is not blank as the header (names stripped), blank rows skipped, every
other row as many fields as the header, and errors naming the 1-based line.
_table alone applies the row rules; its readers convert values only.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO, Union

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
    return Dataset(y, np.column_stack([np.ones(dose.size), dose]))


def _number(text: str, kind=float):
    """kind(text), refusing the digit-group underscores ("1_000") that
    Python's int() and float() accept."""
    if "_" in text:
        raise ValueError(f"invalid number {text!r}")
    return kind(text)


# Physical rows _table reads per block; one block's text is all a reader holds.
_BLOCK_ROWS = 4096


def _count(text: str):
    """int(text), else the int of an integral float ("76.0", as spreadsheets
    write counts), else the float, which callers refuse."""
    try:
        return _number(text, int)
    except ValueError:
        value = _number(text)
        return int(value) if value.is_integer() else value


def _parse_row(fields: list[str], line_no: int) -> tuple[list[float], int]:
    try:
        covariates = [_number(f) for f in fields[:-1]]
    except ValueError:
        raise ValueError(
            f"line {line_no}: non-numeric covariate field") from None
    if not all(map(math.isfinite, covariates)):
        raise ValueError(f"line {line_no}: non-finite covariate")
    last = fields[-1].strip()
    try:
        count = _count(last)
    except ValueError:
        raise ValueError(f"line {line_no}: non-numeric count {last!r}") from None
    if isinstance(count, float):
        raise ValueError(f"line {line_no}: count must be an integer, got {last!r}")
    if count < 0:
        raise ValueError(f"line {line_no}: negative count {count}")
    return covariates, count


def _table(path: Path) -> Iterator[tuple[list[str], int, list[str], list[int]]]:
    """(header, its line, fields, row lines) for the block of _BLOCK_ROWS
    physical rows holding the header, the first row that is not blank, and
    for each block after it; fields holds the block's rows end to end,
    len(header) each, and may be empty; no row list is kept. Blank rows,
    empty or only whitespace and commas, are skipped; the header's names are
    stripped. A file without a header yields nothing. Lines are physical. A
    csv.Error, or a row whose field count is not the header's, raises
    ValueError where it is found, once the rows before it are yielded."""
    # n_cols is 0 until the header, so the first row that is not blank is it.
    header, header_line, n_cols = None, 0, 0
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        while True:
            fields, lines, n_read, error = [], [], 0, None  # drops the last block
            try:
                for n_read, row in enumerate(islice(reader, _BLOCK_ROWS), 1):
                    if not (row and row[0].strip() or "".join(row).strip()):
                        continue  # a blank row
                    if len(row) == n_cols:
                        fields.extend(row)
                        lines.append(reader.line_num)
                    elif header is None:
                        header, header_line = [f.strip() for f in row], reader.line_num
                        n_cols = len(row)
                    else:
                        error = ValueError(f"line {reader.line_num}: expected "
                                           f"{n_cols} fields, got {len(row)}")
                        break
            except csv.Error as exc:
                error = ValueError(f"line {reader.line_num}: {exc}")
            if header is not None:
                yield header, header_line, fields, lines
            if error is not None:
                raise error
            if n_read < _BLOCK_ROWS:
                return


def _convert(fields: list[str], n_cols: int, lines: list[int]):
    """(covariate rows, counts) of one block. One float pass converts every
    field, covariates and counts together, and the block is taken when no
    field holds an underscore, every covariate is finite and every count is
    integral in [0, 2**53), where a float holds each integer exactly, so a
    count is the int _parse_row gives. Otherwise _parse_row, the only other
    path, converts the block a row at a time: the first failing line raises,
    and a count above 2**53 keeps its exact value."""
    try:
        if "_" not in "".join(fields):
            v = np.fromiter(map(float, fields), float, len(fields)).reshape(-1, n_cols)
            X, y = v[:, :-1], v[:, -1]
            if np.isfinite(X).all() and ((0 <= y) & (y < 2.0**53) & (y == np.trunc(y))).all():
                return X, y.astype(np.int64).tolist()
    except ValueError:
        pass  # a field float() refuses
    parsed = [_parse_row(fields[k * n_cols:(k + 1) * n_cols], line_no)
              for k, line_no in enumerate(lines)]
    return np.array([x for x, _ in parsed], dtype=float), [count for _, count in parsed]


def read_csv(path: Union[str, Path], intercept: bool = True) -> Dataset:
    """Read a header-plus-rows CSV where the last column is the count and
    every other column is a covariate, in the module's CSV dialect. With
    ``intercept`` (the default) a constant 1 column is prepended to the
    covariates.

    Rows are converted _BLOCK_ROWS at a time by _convert: one float pass per
    block, counts accepted in [0, 2**53). A block it refuses goes through
    _parse_row, the per-row rule, one row at a time: it names the first
    failing line, keeps counts above 2**53 exact, and no row it refuses is
    accepted.
    """
    path = Path(path)
    n_cols, y, blocks = 0, [], []
    for header, header_line, fields, lines in _table(path):
        n_cols = len(header)
        if n_cols < 2:
            raise ValueError(f"line {header_line}: header needs at least two columns")
        X, counts = _convert(fields, n_cols, lines)
        blocks.append(X)
        y.extend(counts)
        del fields  # before the next block is read
    if not n_cols:
        raise ValueError(f"{path}: empty file, expected a header row")
    if not y:
        raise ValueError(f"{path}: no observations")
    X = np.concatenate(blocks)
    if intercept:
        X = np.column_stack([np.ones(X.shape[0]), X])
    return Dataset(y, X)


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


def write_records(fh: TextIO, records: Iterable[Mapping[str, object]],
                  columns: Sequence[str], fmt: str = "csv",
                  full_precision: bool = False) -> None:
    """Write mapping records to the open text file fh as CSV or
    line-delimited JSON, with the given column order; an empty record list
    still writes the CSV header. Strict JSON has no inf or nan, so it gets a
    non-finite float as its CSV text ("inf", "-inf" or "nan")."""
    if fmt not in ("csv", "structured"):
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([format_number(rec[c], full_precision)
                             for c in columns])
    else:
        for rec in records:
            obj = {c: rec[c] for c in columns}
            for c, v in obj.items():
                if isinstance(v, (float, np.floating)):
                    x = float(format_number(v, full_precision))
                    obj[c] = x if math.isfinite(x) else format_number(x)
            fh.write(json.dumps(obj, allow_nan=False) + "\n")
