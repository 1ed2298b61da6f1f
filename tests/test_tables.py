"""The one number format and the one CSV writer every artifact goes through."""

import re
from pathlib import Path

import numpy as np
import pytest

from braincl.tables import format_value, write_csv

SRC = Path(__file__).resolve().parents[1] / "src" / "braincl"


@pytest.mark.parametrize("value, text", [
    (np.float64(0.5), "0.5"),
    (np.float64("nan"), "nan"),
    (float("inf"), "inf"),
    (float("-inf"), "-inf"),
    (0.1, "0.1"),
    (1e-05, "1e-05"),
    (np.int64(3), "3"),
    (7, "7"),
    (True, "true"),
    (False, "false"),
    ("N(0,0.01)", "N(0,0.01)"),
])
def test_format_value(value, text):
    assert format_value(value) == text


def test_format_value_round_trips_floats():
    rng = np.random.default_rng(0)
    for v in rng.standard_normal(200) * 10.0 ** rng.integers(-20, 20, 200):
        assert float(format_value(v)) == v


def test_write_csv_bytes(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["subject_id", "count", "score", "upper", "missing"],
              [["a,b", np.int64(3), np.float64(0.25), float("inf"), float("nan")],
               ("plain", 0, 1.0, np.float64(-0.0), np.float64(1e-300))])
    assert path.read_bytes() == (b"subject_id,count,score,upper,missing\r\n"
                                 b'"a,b",3,0.25,inf,nan\r\n'
                                 b"plain,0,1.0,-0.0,1e-300\r\n")


def test_number_format_is_decided_in_one_module():
    # every written number takes its text from tables.format_value, and every
    # artifact CSV goes through tables.write_csv
    banned = {"csv.writer(": "write_csv", "repr(float(": "format_value",
              "def format_value": "the definition in tables.py"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "tables.py" and path.parent == SRC:
            continue
        for n, line in enumerate(path.read_text().splitlines(), 1):
            found += [f"{path.relative_to(SRC)}:{n}: {pattern} (use {use})"
                      for pattern, use in banned.items() if pattern in line]
    assert not found, "\n".join(found)
    assert re.search(r"^def format_value\(", (SRC / "tables.py").read_text(), re.M)
