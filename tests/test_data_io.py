"""Embedded crypt data, CSV ingestion, and record writing."""

import io
import json

import numpy as np
import pytest

from latentbinom import (Dataset, DoseCountRecord, JEJUNAL_CRYPT_COUNTS,
                         format_number, jejunal_dataset, jejunal_records,
                         read_csv, write_records)


# -- embedded dataset -------------------------------------------------------------


def test_embedded_data_size():
    records = jejunal_records()
    assert len(records) == 126
    data = jejunal_dataset()
    assert len(data) == 126
    assert data.d == 2
    assert np.all(data.X[:, 0] == 1.0)


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


def test_dose_count_record_validation():
    assert DoseCountRecord(dose=6.25, count=0).count == 0
    with pytest.raises(ValueError):
        DoseCountRecord(dose=6.25, count=-1)


# -- CSV reading --------------------------------------------------------------------


def write_dose_count_csv(path, rows, header="dose,count"):
    lines = [header] + [f"{d},{c}" for d, c in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_read_csv_round_trips_embedded_data(tmp_path):
    target = tmp_path / "crypts.csv"
    write_dose_count_csv(target, [(r.dose, r.count) for r in jejunal_records()])
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
