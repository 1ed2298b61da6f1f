"""The dataset as arrays (ids, labels and one checked (N, V, V) stack of
connectomes) and its directory layout. A dataset directory holds:

* ``labels.csv`` (optional) with header ``subject_id,label``; label 0 is
  control, 1 is the positive class. Absent file means unlabeled data. An id
  holding a comma, a quote or a line break is quoted as the csv module does.
* per subject, either ``<subject_id>.conn.csv`` — first line ``V``, then V
  lines of V comma-separated decimals — or ``<subject_id>.ts.csv`` — first
  line ``L,V``, then L lines of V decimals. When both exist the matrix file
  wins, though the series file is still parsed and checked; connectomes are
  computed from the series otherwise. A loaded dataset keeps the connectomes
  only: ``read_time_series_file`` returns a file's series.

Blank lines are skipped, line ends may be LF or CRLF, and fields may carry
surrounding whitespace. The data rows of a file are parsed in one call to
numpy's C tokenizer, which takes decimals only: ``#`` comments, empty fields
and digit separators such as ``1_0`` are rejected. Only a file that fails
that parse is read again row by row, so the error names the file and the
first bad data row. ``load_dataset`` computes the connectomes of series of
one shape in batched ``pearson_connectome`` calls, into one stack allocated
once. The writers emit LF line ends and every number by
``braincl.tables.format_value``.
"""

from __future__ import annotations

import copy
import csv
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from ..tables import format_value
from .connectome import _BATCH_BYTES, check_connectomes, pearson_connectomes, validate_time_series

__all__ = ["Dataset", "DatasetError", "load_dataset", "write_dataset",
           "read_connectome_file", "write_connectome_file"]


class DatasetError(ValueError):
    pass


# a subject id names its files, so it may hold none of these
_NOT_IN_IDS = {"/", "\0", os.sep, os.altsep} - {None}


@dataclass(frozen=True, eq=False)
class Dataset:
    """Subjects as arrays: their ``ids``, their ``labels`` (None where
    unlabeled) and ``stack``, one float64 (N, V, V) array of their
    connectomes, checked once, when the dataset is built, and then read-only.
    Subject i's connectome is ``stack[rows[i]]``: a ``subset`` (so
    ``labeled`` and a split's folds) shares its parent's stack under rows of
    its own. ``series``, the (N, L, V) time series behind the stack, is kept
    by ``synth_dataset`` only, for ``write_dataset``."""

    ids: tuple[str, ...]
    stack: np.ndarray = field(repr=False)
    labels: tuple[int | None, ...]
    series: np.ndarray | None = field(default=None, repr=False)
    rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ids, labels = tuple(self.ids), tuple(self.labels)
        for sid, label in zip(ids, labels):
            if not sid or any(c in sid for c in _NOT_IN_IDS):
                raise DatasetError(f"subject id {sid!r} is empty or holds a path "
                                   f"separator or NUL")
            if label is not None and label not in (0, 1):
                raise DatasetError(f"{sid}: label must be 0 or 1, got {label}")
        if len(set(ids)) < len(ids):
            repeated = next(sid for i, sid in enumerate(ids) if sid in ids[:i])
            raise DatasetError(f"repeated subject id {repeated!r}")
        stack = np.asarray(self.stack, dtype=np.float64)
        if stack.shape[:1] != (len(ids),) or len(labels) != len(ids) or stack.ndim != 3 \
                or not 0 < stack.shape[1] == stack.shape[2]:
            raise DatasetError(f"want {len(ids)} labels and an ({len(ids)}, V, V) stack, "
                               f"got {len(labels)} and shape {stack.shape}")
        # in slices, so no temporary of the check is the size of the stack
        per_slice = max(1, _BATCH_BYTES // stack[0].nbytes) if len(stack) else 1
        for start in range(0, len(stack), per_slice):
            check_connectomes(stack[start:start + per_slice])
        stack.flags.writeable = False  # the dataset takes the array over, uncopied
        for name, value in (("ids", ids), ("labels", labels), ("stack", stack),
                            ("rows", np.arange(len(ids)))):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n_nodes(self) -> int:
        return self.stack.shape[-1]

    def gather(self, indices) -> np.ndarray:
        """The connectomes at ``indices``, in one fancy index into the stack."""
        return self.stack[self.rows[indices]]

    def subset(self, indices) -> "Dataset":
        """The subjects at ``indices``, in order, on this dataset's stack."""
        idx = np.asarray(indices, dtype=np.intp)
        sub = copy.copy(self)  # a shallow copy runs no __post_init__
        for name, value in (("ids", tuple(self.ids[i] for i in idx)),
                            ("labels", tuple(self.labels[i] for i in idx)),
                            ("rows", self.rows[idx]),
                            ("series", None if self.series is None else self.series[idx])):
            object.__setattr__(sub, name, value)
        return sub

    def labeled(self) -> "Dataset":
        return self.subset([i for i, label in enumerate(self.labels) if label is not None])


# ---------------------------------------------------------------------------
# file parsing

_SYMMETRY_TOL = 1e-8


def _parse_floats(line: str, expected: int, where: str) -> np.ndarray:
    parts = line.strip().split(",")
    if len(parts) != expected:
        raise DatasetError(f"{where}: expected {expected} values, got {len(parts)}")
    try:
        return np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError as exc:
        raise DatasetError(f"{where}: malformed number ({exc})") from exc


def _parse_rows(name: str, rows: list[str], cols: int) -> np.ndarray:
    """The data rows of file ``name`` as a (len(rows), cols) array, parsed in
    one call to numpy's C tokenizer. Rows it refuses are scanned again one at
    a time, so the error names the file and the first bad data row."""
    if not rows:
        raise DatasetError(f"{name}: no data rows")
    try:
        body = np.loadtxt(rows, delimiter=",", ndmin=2, comments=None)
        if body.shape == (len(rows), cols):
            return body
        reason = f"parsed shape {body.shape}"
    except ValueError as exc:
        reason = str(exc)
    # the row-by-row scan names the first bad row; it passes only rows the C
    # parser refused though float() takes them, such as 1_0
    for i, line in enumerate(rows):
        _parse_floats(line, cols, f"{name} row {i}")
    raise DatasetError(f"{name}: malformed number ({reason})")


def read_connectome_file(path: Path) -> np.ndarray:
    """A ``.conn.csv`` file's matrix, read-only, which passes
    ``check_connectomes``."""
    lines = [ln for ln in path.read_text(encoding="utf-8-sig").splitlines() if ln.strip()]
    if not lines:
        raise DatasetError(f"{path.name}: empty file")
    try:
        n = int(lines[0].strip())
    except ValueError as exc:
        raise DatasetError(f"{path.name}: malformed matrix header") from exc
    if len(lines) - 1 != n:
        raise DatasetError(f"{path.name}: malformed matrix: header says {n} rows, "
                           f"found {len(lines) - 1}")
    m = _parse_rows(path.name, lines[1:], n)
    if not np.isfinite(m).all():
        raise DatasetError(f"{path.name}: non-finite matrix entries")
    # tolerate roundoff from text serialization, nothing more
    if np.abs(m - m.T).max() > _SYMMETRY_TOL:
        raise DatasetError(f"{path.name}: matrix is not symmetric")
    if np.abs(np.diagonal(m) - 1.0).max() > _SYMMETRY_TOL:
        raise DatasetError(f"{path.name}: matrix diagonal is not 1")
    if np.abs(m).max() > 1.0 + _SYMMETRY_TOL:
        raise DatasetError(f"{path.name}: matrix entries outside [-1, 1]")
    m = (m + m.T) / 2.0
    np.clip(m, -1.0, 1.0, out=m)
    np.fill_diagonal(m, 1.0)
    m.flags.writeable = False
    return m


def read_time_series_file(path: Path) -> np.ndarray:
    lines = [ln for ln in path.read_text(encoding="utf-8-sig").splitlines() if ln.strip()]
    if not lines:
        raise DatasetError(f"{path.name}: empty file")
    header = lines[0].split(",")
    if len(header) != 2:
        raise DatasetError(f"{path.name}: malformed series header (want 'L,V')")
    try:
        length, n = int(header[0]), int(header[1])
    except ValueError as exc:
        raise DatasetError(f"{path.name}: malformed series header") from exc
    if len(lines) - 1 != length:
        raise DatasetError(f"{path.name}: malformed series: header says {length} rows, "
                           f"found {len(lines) - 1}")
    body = _parse_rows(path.name, lines[1:], n)
    try:
        return validate_time_series(body)
    except ValueError as exc:
        raise DatasetError(f"{path.name}: {exc}") from exc


def _read_labels(path: Path) -> dict[str, int]:
    labels: dict[str, int] = {}
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["subject_id", "label"]:
            raise DatasetError(f"{path.name}: expected header 'subject_id,label'")
        for row in reader:
            if not row or not "".join(row).strip():
                continue
            if len(row) < 2:
                raise DatasetError(f"{path.name}: malformed row {row!r}")
            sid = row[0].strip()
            try:
                label = int(row[1])
            except ValueError as exc:
                raise DatasetError(f"{path.name}: malformed label for {sid!r}") from exc
            if label not in (0, 1):
                raise DatasetError(f"{path.name}: label for {sid!r} outside {{0,1}}: {label}")
            if sid in labels:
                raise DatasetError(f"{path.name}: duplicate subject {sid!r}")
            labels[sid] = label
    return labels


def load_dataset(path) -> Dataset:
    """Load every subject found in a dataset directory, sorted by id, as its
    connectome, written into one stack as it is parsed or computed."""
    root = Path(path)
    if not root.is_dir():
        raise DatasetError(f"{root}: not a directory")

    conn_files = {p.name[:-len(".conn.csv")]: p for p in root.glob("*.conn.csv")}
    ts_files = {p.name[:-len(".ts.csv")]: p for p in root.glob("*.ts.csv")}
    subject_ids = sorted(set(conn_files) | set(ts_files))
    if not subject_ids:
        raise DatasetError(f"{root}: no *.conn.csv or *.ts.csv files found")

    labels_path = root / "labels.csv"
    labels = _read_labels(labels_path) if labels_path.exists() else {}
    orphans = sorted(set(labels) - set(subject_ids))
    if orphans:
        raise DatasetError(f"labels.csv names subjects with no data file: {orphans}")

    stack = None  # allocated once the first subject gives V

    def land(rows, matrices: np.ndarray) -> None:
        nonlocal stack
        if stack is None:
            stack = np.empty((len(subject_ids), *matrices.shape[-2:]))
        if matrices.shape[-1] != stack.shape[-1]:
            raise DatasetError(f"mixed node counts across samples: "
                               f"{sorted({matrices.shape[-1], stack.shape[-1]})}")
        stack[rows] = matrices

    def parsed_series() -> Iterator[tuple[int, np.ndarray]]:
        # each subject's files in id order, the series first; the series of a
        # subject with no matrix file goes on to its connectome, not into a list
        for row, sid in enumerate(subject_ids):
            ts = read_time_series_file(ts_files[sid]) if sid in ts_files else None
            if sid in conn_files:
                land(row, read_connectome_file(conn_files[sid]))
            else:
                yield row, ts

    for rows, matrices in pearson_connectomes(parsed_series()):
        land(rows, matrices)
    return Dataset(tuple(subject_ids), stack, tuple(labels.get(sid) for sid in subject_ids))


# ---------------------------------------------------------------------------
# writing (used by the synth and augment CLI verbs)

def _write_rows(path: Path, rows) -> None:
    """Comma-joined cells through `format_value`, one LF-ended line per row."""
    Path(path).write_text("".join(",".join(map(format_value, row)) + "\n" for row in rows))


def _csv_field(text: str) -> str:
    """``text`` as the csv module writes a field: in quotes, with each quote
    doubled, when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_connectome_file(path: Path, matrix: np.ndarray) -> None:
    """Write one (V, V) connectome, once it passes ``check_connectomes``."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"want one (V, V) connectome, got shape {m.shape}")
    check_connectomes(m)
    _write_rows(path, [[len(m)], *m])


def write_time_series_file(path: Path, ts: np.ndarray) -> None:
    arr = validate_time_series(ts)
    _write_rows(path, [arr.shape, *arr])


def write_dataset(path, ds: Dataset, *, as_time_series: bool = True) -> None:
    """Write a dataset in the directory layout ``load_dataset`` reads, as
    series files if it keeps series and ``as_time_series`` holds."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    labeled = [(sid, label) for sid, label in zip(ds.ids, ds.labels) if label is not None]
    if labeled:
        _write_rows(root / "labels.csv", [("subject_id", "label"),
                                          *((_csv_field(sid), label) for sid, label in labeled)])
    for i, sid in enumerate(ds.ids):
        if as_time_series and ds.series is not None:
            write_time_series_file(root / f"{sid}.ts.csv", ds.series[i])
        else:
            write_connectome_file(root / f"{sid}.conn.csv", ds.gather(i))
