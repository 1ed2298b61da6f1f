"""The text form of every number braincl writes, and its one CSV writer.

Artifact tables (logs, scores, reports, ROC points, the ablation grid) go
through `write_csv`, which keeps the csv module's quoting and CRLF line
ends. Dataset files use LF line ends and are written by
``braincl.data.io`` on the same `format_value`.
"""

import csv
from pathlib import Path

__all__ = ["format_value", "write_csv"]


def format_value(value) -> str:
    """Canonical text of a setting or a written number: any float, numpy's
    included, as the repr of a Python float (it parses back exactly),
    booleans in lower case, everything else by str."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return float.__repr__(value)  # numpy 2 reprs np.float64(0.5) otherwise
    return str(value)


def write_csv(path, header, rows) -> None:
    """One header row, then every row, each cell through `format_value`."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format_value(v) for v in row] for row in rows)
