"""The one CSV writer behind every table the package emits."""
from __future__ import annotations

import numpy as np

_CHUNK = 256    # rows formatted per batch: bounds the Python objects alive


def write_csv(path, header: str, columns, fmt: str | None = None):
    """Write equal-length columns under a comma-separated header, one row
    per line, each row through the single % format fmt (default: %.17g for
    every column, which round-trips float64)."""
    if fmt is None:
        fmt = ",".join(["%.17g"] * len(columns))
    fmt += "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), _CHUNK):
            rows = zip(*(_plain(c[lo:lo + _CHUNK]) for c in columns))
            fh.writelines(fmt % row for row in rows)


def _plain(column):
    """Python scalars for an array slice: % formats them faster than
    numpy's.  Lists pass through."""
    return column.tolist() if isinstance(column, np.ndarray) else column
