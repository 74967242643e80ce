"""Dataset loading for the benchmark experiments.

The Boston housing data (public, UCI machine learning repository) is not
redistributed here; place a copy where :func:`load_boston_housing` can find
it.  Accepted formats: a CSV with a header row whose last column is the
median home value, or the raw whitespace-separated ``housing.data`` file
(14 columns, no header).
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DataError
from .files import load_table

BOSTON_ENV = "BOSTON_HOUSING_CSV"

BOSTON_COLUMNS = ("CRIM", "ZN", "INDUS", "CHAS", "NOX", "RM", "AGE", "DIS",
                  "RAD", "TAX", "PTRATIO", "B", "LSTAT", "MEDV")


def boston_candidate_paths():
    paths = []
    env = os.environ.get(BOSTON_ENV)
    if env:
        paths.append(env)
    here = os.path.dirname(os.path.abspath(__file__))
    repo_root = os.path.dirname(os.path.dirname(here))
    paths.append(os.path.join(repo_root, "data", "boston_housing.csv"))
    paths.append(os.path.join(repo_root, "data", "housing.data"))
    paths.append(os.path.join(here, "data", "boston_housing.csv"))
    return paths


def load_boston_housing():
    """(features, response, feature_names) for the 506-observation dataset.

    Raises :class:`~copreg.errors.DataError` with guidance when no copy is
    available.
    """
    for path in boston_candidate_paths():
        if path and os.path.exists(path):
            return _read_boston(path)
    raise DataError(
        "Boston housing data not found; set $" + BOSTON_ENV + " or place "
        "boston_housing.csv (header row, MEDV last) or the raw UCI "
        "housing.data under <repo>/data/. Searched: "
        + ", ".join(boston_candidate_paths()))


def _read_boston(path):
    with open(path) as fh:
        first = fh.readline()
    if any(ch.isalpha() for ch in first):
        header, table = load_table(path)
        names = [c.strip() for c in header]
    else:
        table = np.loadtxt(path)
        names = list(BOSTON_COLUMNS)
    if table.ndim != 2 or table.shape[1] != 14:
        raise DataError(
            f"{path}: expected 14 columns (13 features + response), got "
            f"{table.shape}")
    if table.shape[0] != 506:
        raise DataError(f"{path}: expected 506 observations, got "
                        f"{table.shape[0]}")
    return table[:, :-1], table[:, -1], tuple(names[:-1])
