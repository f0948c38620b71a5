"""Embedded crypt data, CSV ingestion, and record writing."""

import csv
import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latentbinom import (Dataset, JEJUNAL_CRYPT_COUNTS, format_number,
                         jejunal_dataset, read_csv, write_records)
from latentbinom import data_io


# -- embedded dataset -------------------------------------------------------------


def _table_rows():
    """(dose, count) per mouse, read straight off the mapping in table order."""
    return [(dose, count) for dose, counts in JEJUNAL_CRYPT_COUNTS.items()
            for count in counts]


def test_embedded_data_size():
    data = jejunal_dataset()
    assert len(data) == data.n_obs == 126
    assert data.d == 2
    assert data.y.dtype == np.int64 and data.X.dtype == np.float64
    assert data.X.flags.c_contiguous
    assert np.all(data.X[:, 0] == 1.0)
    # Rows follow the table: dose groups in ascending order, counts within
    # a group as listed.
    assert list(zip(data.X[:, 1].tolist(), data.y.tolist())) == _table_rows()
    doses = list(dict.fromkeys(data.X[:, 1].tolist()))
    assert len(doses) == 10
    assert doses == sorted(doses) == list(JEJUNAL_CRYPT_COUNTS)
    assert data.y[:3].tolist() == [76, 96, 73] and data.X[0, 1] == 6.25
    assert data.y[-2:].tolist() == [3, 4] and data.X[-1, 1] == 9.50


def test_embedded_data_group_sizes():
    want = {6.25: 8, 6.50: 14, 6.75: 8, 7.25: 22, 7.75: 8,
            8.00: 14, 8.25: 8, 8.75: 22, 9.25: 8, 9.50: 14}
    got = {dose: len(counts) for dose, counts in JEJUNAL_CRYPT_COUNTS.items()}
    assert got == want


def test_embedded_data_first_and_last_groups():
    assert JEJUNAL_CRYPT_COUNTS[6.25] == (76, 96, 73, 81, 81, 87, 77, 75)
    last = JEJUNAL_CRYPT_COUNTS[9.50]
    assert len(last) == 14
    assert last[:3] == (1, 4, 5)
    assert last[-2:] == (3, 4)


# -- CSV reading --------------------------------------------------------------------


def write_dose_count_csv(path, rows, header="dose,count"):
    lines = [header] + [f"{d},{c}" for d, c in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_read_csv_round_trips_embedded_data(tmp_path):
    target = tmp_path / "crypts.csv"
    write_dose_count_csv(target, _table_rows())
    assert read_csv(target) == jejunal_dataset()


def test_read_csv_header_only_is_an_error(tmp_path):
    target = tmp_path / "empty.csv"
    target.write_text("dose,count\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no observations"):
        read_csv(target)


def test_read_csv_empty_file_is_an_error(tmp_path):
    target = tmp_path / "blank.csv"
    target.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        read_csv(target)


@pytest.mark.parametrize("text,fragment", [
    ("dose,count\n6.25,abc\n", "line 2"),
    ("dose,count\n6.25,76\n6.50,-3\n", "line 3"),
    ("dose,count\n6.25,7.5\n", "line 2"),
    ("dose,count\nnope,76\n", "line 2"),
    ("dose,count\n6.25\n", "line 2"),
    ("dose,count\n1,5\nnan,7\n2,3\n", "line 3: non-finite covariate"),
    ("dose,count\n1,5\n2,3\n-inf,7\n", "line 4: non-finite covariate"),
    ("dose,count\n1_0,1_000\n2,30\n3,5\n", "line 2: non-numeric covariate"),
    ("dose,count\n1,5\n2,1_000\n", "line 3: non-numeric count"),
    ("dose,count\n1,5\n2,1_0.0\n", "line 3: non-numeric count"),
])
def test_read_csv_reports_offending_line(tmp_path, text, fragment):
    target = tmp_path / "bad.csv"
    target.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=fragment):
        read_csv(target)


def test_read_csv_missing_file():
    with pytest.raises(FileNotFoundError):
        read_csv("/nonexistent/by-construction.csv")


def test_read_csv_skips_blank_lines(tmp_path):
    target = tmp_path / "gaps.csv"
    target.write_text("dose,count\n\n6.25,76\n\n6.50,75\n\n", encoding="utf-8")
    data = read_csv(target)
    assert list(data.y) == [76, 75]


def test_read_csv_integral_float_count_accepted(tmp_path):
    target = tmp_path / "floaty.csv"
    target.write_text("dose,count\n6.25,76.0\n", encoding="utf-8")
    assert list(read_csv(target).y) == [76]


def test_read_csv_intercept_flag(tmp_path):
    target = tmp_path / "wide.csv"
    target.write_text("x1,x2,count\n0.5,-1.0,3\n1.5,2.0,7\n", encoding="utf-8")
    with_intercept = read_csv(target)
    assert with_intercept.d == 3
    assert np.all(with_intercept.X[:, 0] == 1.0)
    bare = read_csv(target, intercept=False)
    assert bare.d == 2
    assert np.allclose(bare.X, [[0.5, -1.0], [1.5, 2.0]])


# -- block reader against the per-row loop ------------------------------------------


def _per_row_number(text, kind=float):
    if "_" in text:
        raise ValueError(f"invalid number {text!r}")
    return kind(text)


def _per_row_fields(fields, line_no, n_cols):
    if len(fields) != n_cols:
        raise ValueError(
            f"line {line_no}: expected {n_cols} fields, got {len(fields)}")
    try:
        covariates = [_per_row_number(f) for f in fields[:-1]]
    except ValueError:
        raise ValueError(
            f"line {line_no}: non-numeric covariate field") from None
    if not all(map(math.isfinite, covariates)):
        raise ValueError(f"line {line_no}: non-finite covariate")
    last = fields[-1].strip()
    try:
        count = _per_row_number(last, int)
    except ValueError:
        try:
            as_float = _per_row_number(last)
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


def per_row_read_csv(path, intercept=True):
    """The reader as one _parse_row call per row: the reference the block
    reader must match on every file, accepted or refused."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = None
        y, rows, n_cols = [], [], 0
        for line_no, fields in enumerate(csv.reader(fh), start=1):
            if not fields or all(not f.strip() for f in fields):
                continue
            if header is None:
                header = fields
                n_cols = len(fields)
                if n_cols < 2:
                    raise ValueError(
                        f"line {line_no}: header needs at least two columns")
                continue
            covariates, count = _per_row_fields(fields, line_no, n_cols)
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


def outcome(reader, path, intercept=True):
    """("ok", y, X) or ("error", message) of one reader on one file."""
    try:
        data = reader(path, intercept=intercept)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", data.y, data.X)


def assert_same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if want[0] == "error":
        assert got[1] == want[1]
        return
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.flags.c_contiguous and b.flags.c_contiguous
        assert a.tobytes() == b.tobytes()


# Whitespace that str.strip() removes, some of which int() and float() do not.
_SPACES = [" ", "\t", "\x1c", "\x85", "\u00a0", "\u3000"]
# Fields the per-row rule accepts, some in unusual spellings.
_GOOD_COVARIATES = st.one_of(
    st.floats(-1e3, 1e3).map(repr),
    st.integers(-50, 50).map(str),
    st.sampled_from(["6.25", " 7.5 ", "-0", "+4", "\u0663", '"8.25"', "1e-320",
                     "-0.0"]),
)
_GOOD_COUNTS = st.one_of(
    st.integers(0, 300).map(str),
    st.sampled_from(["76.0", "-0", "+4", "\u0663", "-0.0", '"9"', str(2**63 - 1)]),
    st.tuples(st.sampled_from(_SPACES), st.integers(0, 99),
              st.sampled_from(_SPACES)).map(lambda t: f"{t[0]}{t[1]}{t[2]}"),
)
_BAD_COVARIATES = st.sampled_from(["1e400", "-1e400", "nan", "inf", "-inf",
                                   "1_0", "", "  ", "abc", '"1,5"'])
# Counts past int64 pass the per-row rule and are refused by Dataset.
_BAD_COUNTS = st.sampled_from(["7.5", "-3", "-3.0", "1_000", "1_0.0", "1e400",
                               "nan", "inf", "", "abc", "7\x1c", "\u30007",
                               "1e20", str(2**63), str(2**64 + 1), "9" * 25])
_BLANK_LINES = st.sampled_from(["", "   ", ",", " , ", "\t,"])


@st.composite
def csv_texts(draw):
    """CSV text with a header, up to 12 rows and blank lines, and up to two
    faults: a bad covariate, a bad count or a ragged row."""
    n_cov = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(_BLANK_LINES))
        else:
            lines.append(draw(st.lists(_GOOD_COVARIATES, min_size=n_cov,
                                       max_size=n_cov)) + [draw(_GOOD_COUNTS)])
    rows = [fields for fields in lines if isinstance(fields, list)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        fields = draw(st.sampled_from(rows))
        fault = draw(st.sampled_from(["covariate", "count", "ragged"]))
        if fault == "covariate":
            fields[draw(st.integers(0, n_cov - 1))] = draw(_BAD_COVARIATES)
        elif fault == "count":
            fields[-1] = draw(_BAD_COUNTS)
        elif draw(st.booleans()):
            fields.append(draw(_GOOD_COUNTS))
        else:
            del fields[0]
    header = ",".join(["x"] * n_cov + ["count"])
    lead = draw(st.lists(_BLANK_LINES, max_size=2))
    bom = "\ufeff" if draw(st.booleans()) else ""
    end = draw(st.sampled_from(["\n", "\r\n"]))
    body = [line if isinstance(line, str) else ",".join(line) for line in lines]
    return bom + end.join(lead + [header] + body) + end


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts(), block_rows=st.sampled_from([1, 2, 3, 4096]),
       intercept=st.booleans())
def test_read_csv_matches_per_row_loop(tmp_path, text, block_rows, intercept):
    # Small blocks put block boundaries inside these short files.
    target = tmp_path / "drawn.csv"
    target.write_text(text, encoding="utf-8")
    want = outcome(per_row_read_csv, target, intercept)
    with mock.patch.object(data_io, "_BLOCK_ROWS", block_rows):
        got = outcome(read_csv, target, intercept)
    assert_same_outcome(got, want)


@pytest.mark.parametrize("before,message", [
    ("", "line 3: field larger than field limit (131072)"),
    ("1,abc\n", "line 2: non-numeric count 'abc'"),
])
def test_read_csv_oversized_field_names_its_line(tmp_path, before, message):
    # Rows before the oversized one are checked first, as one at a time.
    target = tmp_path / "oversized.csv"
    target.write_text("dose,count\n" + (before or "1,5\n") + "1," + "x" * 200_000
                      + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        read_csv(target)
    assert str(excinfo.value) == message


def wide_csv_lines(n_rows, seed=0):
    rng = np.random.default_rng(seed)
    dose = np.round(rng.uniform(6.0, 9.75, size=n_rows), 3)
    counts = rng.poisson(40.0, size=n_rows)
    return ["dose,count"] + [f"{d:g},{c}" for d, c in zip(dose.tolist(), counts.tolist())]


@pytest.mark.parametrize("bad", ["7.5", "-3", "abc", "1_000", "nan", ""])
@pytest.mark.parametrize("row", [data_io._BLOCK_ROWS, data_io._BLOCK_ROWS + 1,
                                 data_io._BLOCK_ROWS + 700])
def test_read_csv_first_bad_row_in_second_block(tmp_path, row, bad):
    lines = wide_csv_lines(3 * data_io._BLOCK_ROWS + 100)
    lines[row] = lines[row].split(",")[0] + "," + bad
    # A bad row in the next block is not the one reported.
    lines[row + data_io._BLOCK_ROWS] = "oops,-1"
    target = tmp_path / "long.csv"
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    want = outcome(per_row_read_csv, target)
    assert want[0] == "error" and want[1].startswith(f"line {row + 1}: ")
    assert_same_outcome(outcome(read_csv, target), want)


def test_read_csv_long_file_matches_per_row_loop(tmp_path):
    lines = wide_csv_lines(2 * data_io._BLOCK_ROWS + 100)
    lines[10] = ""
    lines[data_io._BLOCK_ROWS + 3] = lines[data_io._BLOCK_ROWS + 3].split(",")[0] + ",76.0"
    target = tmp_path / "long.csv"
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    want = outcome(per_row_read_csv, target)
    assert want[0] == "ok"
    assert_same_outcome(outcome(read_csv, target), want)


def test_read_csv_memory_stays_within_a_block(tmp_path):
    # One block's text at a time. The per-row reader peaked at 3.42 MB
    # on this file; holding every row's text at once costs more than that.
    target = tmp_path / "wide.csv"
    target.write_text("\n".join(wide_csv_lines(20_000)) + "\n", encoding="utf-8")
    tracemalloc.start()
    try:
        read_csv(target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.29e6


# -- record writing -------------------------------------------------------------------


TABLE_COLUMNS = ["setting", "beta1", "mu", "alpha", "rho", "gamma", "rho_gamma"]


def test_write_records_table_shape():
    records = [dict(zip(TABLE_COLUMNS, (i, 1, 100, 25, 0.7, 0.8, 0.56)))
               for i in range(1, 17)]
    buf = io.StringIO()
    write_records(buf, records, fmt="csv", columns=TABLE_COLUMNS)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "setting,beta1,mu,alpha,rho,gamma,rho_gamma"
    assert len(lines) == 17


def test_write_records_empty_gives_header_only():
    buf = io.StringIO()
    write_records(buf, [], fmt="csv", columns=["a", "b"])
    assert buf.getvalue() == "a,b\n"


def test_write_records_rendered_precision_round_trip(tmp_path):
    records = [{"x": 0.12345678901234, "n": 3}]
    target = tmp_path / "out.csv"
    write_records(target, records, fmt="csv")
    lines = target.read_text(encoding="utf-8").splitlines()
    assert lines == ["x,n", "0.123457,3"]
    write_records(target, records, fmt="csv", full_precision=True)
    row = target.read_text(encoding="utf-8").splitlines()[1]
    assert float(row.split(",")[0]) == 0.12345678901234


def test_write_records_structured_round_trip():
    records = [{"name": "row1", "value": 2.5}, {"name": "row2", "value": -1.0}]
    buf = io.StringIO()
    write_records(buf, records, fmt="structured")
    parsed = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert parsed == records


def test_write_records_rejects_unknown_format():
    with pytest.raises(ValueError):
        write_records(io.StringIO(), [], fmt="tsv")


def test_format_number():
    assert format_number(3) == "3"
    assert format_number(True) == "True"
    assert format_number(0.1234567891) == "0.123457"
    assert format_number(196.294327281) == "196.294"
    assert format_number(0.1234567891, full_precision=True) == repr(0.1234567891)
    assert format_number("text") == "text"
