"""On-disk layout of the files copreg writes and reads.

Tables are CSV: a header row of column names, then rows of ``%.17g``
values, so a float64 matrix reads back bit for bit.  Run records are JSON
objects with sorted keys and an indent of 1.
"""

import csv
import json
import os
import warnings

import numpy as np

from .errors import DataError


def write_csv(path, names, matrix):
    """Write ``matrix`` (a 1-D one as a column) under the header row
    ``names``: the bytes of ``np.savetxt`` with ``fmt="%.17g"``, formatted
    in one operation."""
    matrix = np.asarray(matrix)
    if matrix.ndim == 1:
        matrix = matrix[:, None]
    header = ",".join(names)
    row = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write((header + "\n" if header else "")
                 + (row * matrix.shape[0]) % tuple(matrix.ravel().tolist()))


def load_table(path):
    """(column names, float matrix) of the CSV table at ``path``; DataError
    naming the file, and the line and column where there is one."""
    if not os.path.exists(path):
        raise DataError(f"dataset not found: {path}")
    # undecodable bytes become U+FFFD: a non-numeric cell, not a traceback
    with open(path, newline="", errors="replace") as fh:
        try:
            header = next(csv.reader(fh), None)
            if header is None:
                raise DataError(f"{path} is empty")
            with warnings.catch_warnings():
                # a body with no rows is reported below
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(fh, delimiter=",", comments=None,
                                   quotechar='"', ndmin=2)
        except (ValueError, csv.Error) as exc:
            raise _first_bad_row(path, exc) from None
    if table.shape[0] == 0:
        raise DataError(f"{path} has a header but no rows")
    if table.shape[1] != len(header):
        # np.loadtxt accepts rows that all share a wrong width
        raise _first_bad_row(path, None)
    return header, table


def finite_input(path, header, table):
    """``table``, read by :func:`load_table` from ``path`` under ``header``
    as a model's input, which must be finite; else DataError naming the
    file, and the line and column of the first nan or infinite cell."""
    return _no_bad_cell(path, header, table, ~np.isfinite(table),
                        "non-finite value")


def whole_input(path, header, table):
    """``table`` of counts, as :func:`finite_input` but with whole-number
    cells: else DataError naming the first cell that is not one.  ``table``
    may be the trailing columns of the file, under their ``header``."""
    return _no_bad_cell(path, header, table, table != np.rint(table),
                        "non-whole value")


def _no_bad_cell(path, header, table, bad, what):
    """``table``, unless ``bad`` marks a cell: then DataError naming the
    file, and the line and column of the first marked cell."""
    bad = np.argwhere(bad)
    if bad.size == 0:
        return table
    row, col = bad[0]
    with open(path, newline="", errors="replace") as fh:
        reader = csv.reader(fh)
        # the header line, then the non-blank lines up to table row ``row``
        for _ in zip(range(row + 2), filter(None, reader)):
            pass
    raise DataError(f"{path}: {what} {float(table[row, col])!r} at row "
                    f"{reader.line_num}, column {header[col]!r}")


def _first_bad_row(path, exc):
    """DataError naming the first row of ``path`` that is not as wide as the
    header or holds a non-numeric cell; else one quoting the parser's
    ``exc`` (a cell that only Python's ``float`` reads, or a csv error)."""
    with open(path, newline="", errors="replace") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            for row in filter(None, reader):
                if len(row) != len(header):
                    return DataError(f"{path}: row {reader.line_num} has "
                                     f"{len(row)} cells, expected "
                                     f"{len(header)}")
                for cell, col in zip(row, header):
                    try:
                        float(cell)
                    except ValueError:
                        return DataError(
                            f"{path}: non-numeric value {cell!r} at row "
                            f"{reader.line_num}, column {col!r}")
        except csv.Error as scan_exc:
            exc = scan_exc
    return DataError(f"{path}: {exc}")


def load_json(path, error):
    """The JSON object in ``path``; ``error`` when the file is missing, is
    not JSON or holds something other than an object."""
    if not os.path.exists(path):
        raise error(f"file not found: {path}")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise error(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{path} must hold a JSON object")
    return doc


def write_json(path, doc):
    """Write the JSON object ``doc`` with sorted keys and an indent of 1."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
