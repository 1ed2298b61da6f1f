"""Dataset model and directory-layout ingestion.

A dataset directory holds:

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
one shape in batched ``pearson_connectome`` calls. The writers emit LF line
ends and every number by ``braincl.tables.format_value``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from ..tables import format_value
from .connectome import Connectome, pearson_connectomes, validate_time_series

__all__ = ["Sample", "Dataset", "DatasetError", "load_dataset", "write_dataset",
           "read_connectome_file", "write_connectome_file"]


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class Sample:
    subject_id: str
    connectome: Connectome
    label: int | None = None
    time_series: np.ndarray | None = None

    def __post_init__(self):
        if self.label is not None and self.label not in (0, 1):
            raise DatasetError(f"{self.subject_id}: label must be 0 or 1, got {self.label}")


@dataclass(frozen=True)
class Dataset:
    samples: tuple[Sample, ...] = field(default_factory=tuple)

    def __post_init__(self):
        sizes = {s.connectome.n_nodes for s in self.samples}
        if len(sizes) > 1:
            raise DatasetError(f"mixed node counts across samples: {sorted(sizes)}")
        ids = [s.subject_id for s in self.samples]
        if len(set(ids)) < len(ids):
            repeated = next(sid for i, sid in enumerate(ids) if sid in ids[:i])
            raise DatasetError(f"repeated subject id {repeated!r}")

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)

    @property
    def n_nodes(self) -> int:
        if not self.samples:
            raise DatasetError("empty dataset has no node count")
        return self.samples[0].connectome.n_nodes

    @property
    def labels(self) -> list[int | None]:
        return [s.label for s in self.samples]

    def labeled(self) -> "Dataset":
        return Dataset(tuple(s for s in self.samples if s.label is not None))


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


def read_connectome_file(path: Path) -> Connectome:
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
    return Connectome(m)


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
    connectome; no sample keeps a time series."""
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

    conns: dict[str, Connectome] = {}
    derived: list[str] = []  # the subjects whose connectome comes from their series

    def parsed_series() -> Iterator[np.ndarray]:
        # each subject's files in id order, the series first; the series of a
        # subject with no matrix file goes on to its connectome, not into a list
        for sid in subject_ids:
            ts = read_time_series_file(ts_files[sid]) if sid in ts_files else None
            if sid in conn_files:
                conns[sid] = read_connectome_file(conn_files[sid])
            else:
                derived.append(sid)
                yield ts

    computed = pearson_connectomes(parsed_series())
    conns.update(zip(derived, computed))
    return Dataset(tuple(Sample(subject_id=sid, connectome=conns[sid], label=labels.get(sid))
                         for sid in subject_ids))


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


def write_connectome_file(path: Path, conn: Connectome) -> None:
    _write_rows(path, [[conn.n_nodes], *conn.matrix])


def write_time_series_file(path: Path, ts: np.ndarray) -> None:
    arr = validate_time_series(ts)
    _write_rows(path, [arr.shape, *arr])


def write_dataset(path, ds: Dataset, *, as_time_series: bool = True) -> None:
    """Write a dataset in the directory layout ``load_dataset`` reads."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    labeled = [s for s in ds if s.label is not None]
    if labeled:
        _write_rows(root / "labels.csv",
                    [("subject_id", "label"),
                     *((_csv_field(s.subject_id), s.label) for s in labeled)])
    for s in ds:
        if as_time_series and s.time_series is not None:
            write_time_series_file(root / f"{s.subject_id}.ts.csv", s.time_series)
        else:
            write_connectome_file(root / f"{s.subject_id}.conn.csv", s.connectome)
