import numpy as np
import pytest

from rankagg import InstanceSet, SampledLabels
from rankagg.dataio import read_dataset, write_dataset, write_rows


def test_float_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    inst = InstanceSet(rng.standard_normal((20, 3)) * 1e-7)
    labels = SampledLabels(rng.integers(0, 2, (20, 2)))
    path = tmp_path / "data.csv"
    write_dataset(path, inst, labels)
    inst2, labels2 = read_dataset(path)
    np.testing.assert_array_equal(inst.features, inst2.features)
    np.testing.assert_array_equal(labels.labels, labels2.labels)


def test_written_files_use_lf_and_the_schema_header(tmp_path):
    path = tmp_path / "data.csv"
    write_dataset(path, InstanceSet(np.zeros((1, 2))), SampledLabels(np.ones((1, 1), dtype=int)))
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode().splitlines()[0] == "f0,f1,y0"


def test_read_rejects_bad_headers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_dataset(path)
    path.write_text("y0,f0\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_dataset(path)


def test_read_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,y0\n1.0,1\nnope,0\n")
    with pytest.raises(ValueError, match="bad.csv:3"):
        read_dataset(path)
    path.write_text("f0,y0\n1.0,2\n")
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        read_dataset(path)
    path.write_text("f0,y0\n1.0\n")
    with pytest.raises(ValueError, match="expected 2 fields"):
        read_dataset(path)


def test_empty_inputs_are_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_dataset(path)
    path.write_text("f0,y0\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_dataset(path)


def test_write_rows_formats_every_cell(tmp_path):
    # floats, numpy float64 included, as repr; ints as digits; strings quoted by csv
    path = tmp_path / "rows.csv"
    cells = [np.float64(0.1), np.int64(4), 1 / 3, 7, np.inf, -np.inf, -0.0, 5e-324, 1e16, 'lossagg:1,"2"']
    write_rows(path, ["a", "b"], [cells[:5], cells[5:]])
    assert path.read_bytes() == b'a,b\n0.1,4,0.3333333333333333,7,inf\n-inf,-0.0,5e-324,1e+16,"lossagg:1,""2"""\n'
    assert [repr(float(c)) for c in cells if isinstance(c, float)] == [
        "0.1", "0.3333333333333333", "inf", "-inf", "-0.0", "5e-324", "1e+16"
    ]
