"""The one writer of every CSV and JSON file the package produces.

CSV cells: a float (numpy floats included) is written as %.17e, which
round-trips every double; True/False become true/false; None becomes an
empty cell ("not applicable"); anything else, ints and pre-formatted
strings, goes through str.  JSON documents are indented by 2, keys
sorted, numpy scalars encoded as floats, and end with a newline.

A region-of-interest width mu and a noise level delta enter file names,
column headers and keys only through mu_label and delta_label, which the
config also reads to refuse entries whose outputs would collide.
"""

import csv
import json

import numpy as np


def mu_label(mu) -> str:
    """Label of mu in output names: %g, six significant digits, so 8.0 reads 8."""
    return format(float(mu), "g")


def delta_label(delta) -> str:
    """Label of delta in output names: one significant digit, as in 1e-05."""
    return format(float(delta), ".0e")


def _cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{x:.17e}"
    if isinstance(x, bool):
        return "true" if x else "false"
    return "" if x is None else str(x)


def write_csv(path, header, rows) -> None:
    """Write header and rows to path under the cell rules above."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_cell(x) for x in row] for row in rows)


def write_json(path, doc) -> None:
    """Write doc to path as sorted, 2-space indented JSON plus a newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
