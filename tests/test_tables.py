"""The CSV writer formats a chunk of rows at a time; its bytes must be those
of one % per row."""
import numpy as np
import pytest

from ohlab.tables import write_csv


def per_row(path, header, columns, fmt):
    """The reference: one % per row, on Python scalars."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c
               for c in columns]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(fmt % row + "\n")


def columns_for(fmt, rows, rng):
    """Columns that fit fmt: floats (as an array, with a nan and infinities
    among them) for %.17g, booleans for %d and strings for %s, each of the
    last two as a list, as the scan and ensemble writers pass them."""
    out = []
    for spec in fmt.split(","):
        if spec == "%.17g":
            col = rng.normal(size=rows) * 10.0 ** rng.integers(-20, 20, rows)
            col[:3] = [np.nan, np.inf, -np.inf][:rows]
            out.append(col)
        elif spec == "%d":
            out.append([bool(v) for v in rng.integers(0, 2, rows)])
        else:
            out.append(["%.17g" % v for v in rng.random(rows)])
    return out


FORMATS = {
    "default": None,
    "ensemble": "%s,%s,%.17g,%.17g,%.17g",
    "region": "%.17g,%.17g,%d,%d,%d,%d,%.17g",
    "simulation": "%.17g,%.17g,%d,%d,%d,%d,%.17g,%.17g,%s",
}


@pytest.mark.parametrize("rows", [0, 1, 255, 256, 257])
@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_bytes_equal_one_format_per_row(kind, rows, tmp_path):
    fmt = FORMATS[kind]
    rng = np.random.default_rng(rows)
    columns = columns_for(fmt or "%.17g,%.17g,%.17g", rows, rng)
    header = ",".join(f"c{j}" for j in range(len(columns)))
    write_csv(tmp_path / "chunked.csv", header, columns, fmt)
    per_row(tmp_path / "per_row.csv", header, columns,
            fmt or ",".join(["%.17g"] * len(columns)))
    written = (tmp_path / "chunked.csv").read_bytes()
    assert written == (tmp_path / "per_row.csv").read_bytes()
    assert written.count(b"\n") == rows + 1


def test_two_dimensional_columns(tmp_path):
    # the rate-products writer passes the rows of a transposed array
    products = np.random.default_rng(0).random((300, 3))
    write_csv(tmp_path / "chunked.csv", "t,p_min,p_max", products.T)
    per_row(tmp_path / "per_row.csv", "t,p_min,p_max", list(products.T),
            "%.17g,%.17g,%.17g")
    assert (tmp_path / "chunked.csv").read_bytes() \
        == (tmp_path / "per_row.csv").read_bytes()
