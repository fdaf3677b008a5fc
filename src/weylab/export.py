"""CSV artifacts: float columns written byte-identically to `csv.writer`."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["write_csv"]


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length float columns under `header`, one row per index.

    The bytes are those of `csv.writer` fed the same rows: each value as
    `repr(float)`, fields joined by "," and every row, the header included,
    ended by "\\r\\n".  Each column's distinct values are formatted once; they
    are told apart by bit pattern, so -0.0 and 0.0 keep their own text.
    """
    cols = []
    for col in columns:
        bits = np.ascontiguousarray(col, dtype=np.float64).ravel().view(np.int64)
        distinct, index = np.unique(bits, return_inverse=True)
        text = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
        cols.append(text[index].tolist())
    lines = [",".join(header), *map(",".join, zip(*cols))]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
