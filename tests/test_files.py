"""The on-disk file layout: exact CSV round trips, reader errors, and one
module that owns the formats."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copreg
from copreg.errors import ConfigError, DataError
from copreg.files import load_json, load_table, write_csv

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               np.inf, -np.inf, 1.7976931348623157e308,
               -1.7976931348623157e308, 1.7976931348623155e308, 1.0, 3.0]


@st.composite
def matrices(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 5))
    cell = st.one_of(st.floats(allow_nan=False, width=64),
                     st.sampled_from(EDGE_VALUES))
    matrix = np.array(draw(st.lists(cell, min_size=rows * cols,
                                    max_size=rows * cols)),
                      dtype=float).reshape(rows, cols)
    # a series column: whole counts, as in the simulated training sets
    counts = draw(st.lists(st.integers(0, 2**53), min_size=rows,
                           max_size=rows))
    return np.column_stack([matrix, np.array(counts, dtype=float)])


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_csv_round_trip_is_bit_exact(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    names = [f"c{j}" for j in range(matrix.shape[1])]
    write_csv(path, names, matrix)
    header, back = load_table(str(path))
    assert header == names
    assert back.dtype == np.float64 and back.shape == matrix.shape
    assert np.array_equal(back.view(np.uint64), matrix.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 5), st.data())
def test_write_csv_writes_the_bytes_of_savetxt(tmp_path_factory, rows, cols,
                                               data):
    cell = st.one_of(st.floats(width=64),
                     st.sampled_from(EDGE_VALUES + [np.nan]))
    values = data.draw(st.lists(cell, min_size=rows * max(cols, 1),
                                max_size=rows * max(cols, 1)))
    # cols == 0 stands for a 1-D vector, written as one column
    matrix = np.array(values, dtype=float).reshape((rows, cols) if cols
                                                   else (rows,))
    names = [f"c{j}" for j in range(max(cols, 1))]
    folder = tmp_path_factory.mktemp("csv")
    write_csv(folder / "ours.csv", names, matrix)
    np.savetxt(folder / "savetxt.csv", matrix, delimiter=",",
               header=",".join(names), comments="", fmt="%.17g")
    assert ((folder / "ours.csv").read_bytes()
            == (folder / "savetxt.csv").read_bytes())


@pytest.mark.parametrize("text,match", [
    ("", "is empty"),
    ("a,b\n", "has a header but no rows"),
    ("a,b\n\n", "has a header but no rows"),
    ("a,b\n1,2\n3\n", "row 3 has 1 cells, expected 2"),
    ("a,b\n1,2,3\n4,5,6\n", "row 2 has 3 cells, expected 2"),
    ("a,b\n1,2\n3,oops\n", "non-numeric value 'oops' at row 3, column 'b'"),
    ("a,b\n1,\n", "non-numeric value '' at row 2, column 'b'"),
    ("a,b\n1_0,2\n", "could not convert"),
])
def test_load_table_names_the_bad_line(tmp_path, text, match):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=match):
        load_table(str(path))


def test_load_table_reads_blank_lines_and_quoted_cells(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text('"x,1",b\n1,"2.5"\n\n3,4\n')
    header, table = load_table(str(path))
    assert header == ["x,1", "b"]
    assert table.tolist() == [[1.0, 2.5], [3.0, 4.0]]


@pytest.mark.parametrize("text,match", [
    ("{", "invalid JSON"), ("[1]", "must hold a JSON object"),
    (b"\xff\xfe", "invalid JSON")])
def test_load_json_raises_the_callers_error(tmp_path, text, match):
    path = tmp_path / "doc.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(ConfigError, match=match):
        load_json(str(path), ConfigError)
    with pytest.raises(DataError, match="not found"):
        load_json(str(tmp_path / "none.json"), DataError)


#: Reads of a format other than copreg's own: the raw whitespace-separated
#: UCI ``housing.data`` file.
OTHER_FORMATS = {("datasets.py", "table = np.loadtxt(path)")}


def test_only_the_files_module_reads_or_writes_the_formats():
    src = os.path.dirname(copreg.__file__)
    found = []
    for root, _, names in os.walk(src):
        for name in sorted(names):
            if not name.endswith(".py") or name == "files.py":
                continue
            with open(os.path.join(root, name)) as fh:
                for n, line in enumerate(fh, start=1):
                    line = line.strip()
                    if (any(call in line for call in (
                            "np.savetxt", "np.loadtxt", "json.load("))
                            and (name, line) not in OTHER_FORMATS):
                        found.append(f"{name}:{n}: {line}")
    assert not found, "file formats outside copreg/files.py:\n" + "\n".join(
        found)
