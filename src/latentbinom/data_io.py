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


def _table(path: Path) -> Iterator[tuple[list[str], int, list[list[str]], list[int]]]:
    """(header, its line, rows, their lines) per block of up to _BLOCK_ROWS
    physical rows after the header, the first row that is not blank. A
    blank row, empty or only whitespace and commas, is skipped; the header's
    names are stripped. The header is yielded at least once, with no rows
    for a header-only file; a file without one yields nothing. Lines are
    physical, the count a csv.Error names. A csv.Error, or a row whose field
    count is not the header's, raises ValueError after the rows before it."""
    # n_cols is 0 until the header, so the first row that is not blank is it.
    header, header_line, n_cols, error, ended, yielded = None, 0, 0, None, False, False
    with path.open("r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        while error is None and not ended:
            rows, lines, n_read = [], [], 0  # drops the last block before reading on
            try:
                for n_read, fields in enumerate(islice(reader, _BLOCK_ROWS), 1):
                    if not (fields and fields[0].strip() or "".join(fields).strip()):
                        continue  # a blank row
                    if len(fields) == n_cols:
                        rows.append(fields)
                        lines.append(reader.line_num)
                    elif header is None:
                        header, header_line = [f.strip() for f in fields], reader.line_num
                        n_cols = len(fields)
                    else:
                        error = ValueError(f"line {reader.line_num}: expected "
                                           f"{n_cols} fields, got {len(fields)}")
                        break
            except csv.Error as exc:
                error = ValueError(f"line {reader.line_num}: {exc}")
            ended = n_read < _BLOCK_ROWS
            if header is not None and (rows or not yielded):
                yielded = True
                yield header, header_line, rows, lines
    if error is not None:
        raise error


def _by_columns(rows: list[list[str]]):
    """(covariate rows, counts) of rows converted a column at a time, or
    None when a whole-column check refuses and _parse_row must decide."""
    columns = list(zip(*rows))
    if any("_" in "".join(c) for c in columns):
        return None
    try:
        X = np.array([list(map(float, col)) for col in columns[:-1]]).T
        y = list(map(int, columns[-1]))
    except ValueError:
        return None
    return (X, y) if np.isfinite(X).all() and min(y) >= 0 else None


def _by_rows(rows: list[list[str]], lines: list[int]):
    """(covariate rows, counts) of rows converted one at a time by
    _parse_row; the first offending line raises."""
    parsed = [_parse_row(fields, line_no) for line_no, fields in zip(lines, rows)]
    return np.array([x for x, _ in parsed], dtype=float), [count for _, count in parsed]


def read_csv(path: Union[str, Path], intercept: bool = True) -> Dataset:
    """Read a header-plus-rows CSV where the last column is the count and
    every other column is a covariate, in the module's CSV dialect. With
    ``intercept`` (the default) a constant 1 column is prepended to the
    covariates.

    Rows are converted _BLOCK_ROWS at a time, one whole-column step per
    check. A block that any step refuses goes through _parse_row, the
    per-row rule, one row at a time: it names the first failing line, and
    no row it refuses is accepted.
    """
    path = Path(path)
    n_cols, y, blocks = 0, [], []
    for header, header_line, rows, lines in _table(path):
        n_cols = len(header)
        if n_cols < 2:
            raise ValueError(f"line {header_line}: header needs at least two columns")
        if not rows:
            continue  # the header alone
        X, counts = _by_columns(rows) or _by_rows(rows, lines)
        blocks.append(X)
        y.extend(counts)
        del rows  # before the next block is read
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
