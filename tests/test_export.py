"""The CSV writer writes the bytes csv.writer writes."""

import csv

import numpy as np
import pytest

from weylab.export import write_csv


def reference_csv(path, header, columns):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*columns))


_AWKWARD = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 0.1 + 0.2, 0.1 + 0.2, -0.0, 1.0, 1.0]


@pytest.mark.parametrize("rows", [len(_AWKWARD), 0], ids=["awkward-values", "zero-rows"])
def test_write_csv_matches_csv_writer(tmp_path, rows):
    first = np.array(_AWKWARD[:rows])
    columns = [first, first[::-1].copy(), np.full(rows, 7.0), list(first)]
    header = ["a", "b", "c", "d"]
    write_csv(tmp_path / "ours.csv", header, columns)
    reference_csv(tmp_path / "ref.csv", header, columns)
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_keeps_signed_zero_and_row_ends(tmp_path):
    write_csv(tmp_path / "z.csv", ["v"], [np.array([0.0, -0.0, 0.0])])
    assert (tmp_path / "z.csv").read_bytes() == b"v\r\n0.0\r\n-0.0\r\n0.0\r\n"
