"""The one CSV writer behind every table the package emits."""
from __future__ import annotations

import itertools

import numpy as np

_CHUNK = 256    # rows formatted per batch: bounds the Python objects alive


def write_csv(path, header: str, columns, fmt: str | None = None):
    """Write equal-length columns under a comma-separated header, one row
    per line, each row through the single % format fmt (default: %.17g for
    every column, which round-trips float64).  Each chunk of rows is one %
    on fmt repeated for its rows, which gives the bytes of one % per row."""
    if fmt is None:
        fmt = ",".join(["%.17g"] * len(columns))
    fmt += "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), _CHUNK):
            chunk = [_plain(c[lo:lo + _CHUNK]) for c in columns]
            fh.write(fmt * len(chunk[0]) % tuple(
                itertools.chain.from_iterable(zip(*chunk))))


def _plain(column):
    """Python scalars for an array slice: % formats them faster than
    numpy's.  Lists pass through."""
    return column.tolist() if isinstance(column, np.ndarray) else column
