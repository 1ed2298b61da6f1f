from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braincl.cli import main
from braincl.data import (
    ClassSpec,
    Connectome,
    Dataset,
    DatasetError,
    Sample,
    SplitSpec,
    check_connectomes,
    load_dataset,
    pearson_connectome,
    stratified_split,
    synth_dataset,
    write_dataset,
)
from braincl.data import connectome as connectome_module
from braincl.data import io as data_io
from braincl.data.io import read_time_series_file, write_connectome_file


def make_labeled(n0: int, n1: int, n_nodes: int = 4) -> Dataset:
    eye = Connectome(np.eye(n_nodes))
    samples = [Sample(f"c{i:04d}", eye, label=0) for i in range(n0)]
    samples += [Sample(f"p{i:04d}", eye, label=1) for i in range(n1)]
    return Dataset(tuple(samples))


# ---------------------------------------------------------------------------
# pearson_connectome


def test_identical_columns_correlate_to_one():
    col = np.array([0.3, -1.2, 4.0, 2.2])
    ts = np.column_stack([col, col, np.array([1.0, 2.0, 3.0, 4.0])])
    c = pearson_connectome(ts)
    assert c[0, 1] == 1.0
    assert c[1, 0] == 1.0


def test_constant_column_convention():
    ts = np.column_stack([np.full(5, 2.0), np.arange(5.0)])
    c = pearson_connectome(ts)
    assert c[0, 1] == 0.0 and c[1, 0] == 0.0
    assert c[0, 0] == 1.0 and c[1, 1] == 1.0


def test_worked_three_point_example():
    # deviations (-1,0,1) and (0,-1,1): dot 1, norms sqrt(2) each -> 0.5
    ts = np.column_stack([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0]])
    c = pearson_connectome(ts)
    np.testing.assert_allclose(c[0, 1], 0.5, rtol=1e-15)


def test_pearson_output_satisfies_connectome_invariants():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        length = rng.integers(2, 12)
        n = rng.integers(2, 9)
        ts = rng.standard_normal((length, n))
        if rng.random() < 0.2:
            ts[:, rng.integers(0, n)] = 3.14  # degenerate region
        m = pearson_connectome(ts)
        check_connectomes(m)
        assert np.array_equal(m, m.T)
        assert np.array_equal(np.diagonal(m), np.ones(n))
        assert np.abs(m).max() <= 1.0


def test_pearson_affine_invariance_and_sign_flip():
    rng = np.random.default_rng(1)
    ts = rng.standard_normal((20, 5))
    base = pearson_connectome(ts)
    scaled = ts.copy()
    scaled[:, 2] = 3.5 * scaled[:, 2] - 7.0
    np.testing.assert_allclose(pearson_connectome(scaled), base, atol=1e-12)
    flipped = ts.copy()
    flipped[:, 2] = -2.0 * flipped[:, 2] + 1.0
    got = pearson_connectome(flipped)
    want = base.copy()
    want[2, :] *= -1
    want[:, 2] *= -1
    want[2, 2] = 1.0
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_pearson_rejects_bad_input():
    with pytest.raises(ValueError):
        pearson_connectome(np.ones((1, 3)))
    with pytest.raises(ValueError):
        pearson_connectome(np.array([[1.0, np.nan], [2.0, 3.0]]))
    with pytest.raises(ValueError, match="at least 2 time points"):
        pearson_connectome(np.ones((4, 1, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        pearson_connectome(np.array([[[1.0, 2.0], [2.0, 3.0]], [[1.0, np.inf], [2.0, 3.0]]]))
    with pytest.raises(ValueError, match="2-D"):
        pearson_connectome(np.ones((2, 2, 4, 3)))


def _pearson_reference(ts: np.ndarray) -> np.ndarray:
    """One series at a time, with 2-D numpy calls only."""
    centered = ts - ts.mean(axis=0)
    cov = centered.T @ centered / ts.shape[0]
    std = np.sqrt(np.diagonal(cov))
    denom = np.outer(std, std)
    denom[denom == 0.0] = 1.0
    corr = cov / denom
    corr[std == 0.0, :] = 0.0
    corr[:, std == 0.0] = 0.0
    corr = (corr + corr.T) / 2.0
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return corr


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_batched_pearson_is_bit_identical_per_series(n):
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((n, 13, 7)) * rng.uniform(0.1, 10.0, (n, 1, 7))
    stack[n // 2, :, 3] = -0.4  # a zero-variance region
    matrices = pearson_connectome(stack)
    assert matrices.shape == (n, 7, 7)
    for m, ts in zip(matrices, stack):
        single = pearson_connectome(ts)
        assert m.tobytes() == single.tobytes() == _pearson_reference(ts).tobytes()
    assert (matrices[n // 2, 3, np.arange(7) != 3] == 0.0).all()


def test_pearson_connectomes_batches_by_shape_in_bounded_stacks(monkeypatch):
    rng = np.random.default_rng(9)
    shapes = [(30, 20)] * 40 + [(12, 5), (30, 20), (12, 5)] + [(120, 200)] * 2
    series = [rng.standard_normal(shape) for shape in shapes]
    stacks = []

    def recording(ts):
        stacks.append(np.shape(ts))
        return pearson_connectome(ts)

    monkeypatch.setattr(connectome_module, "pearson_connectome", recording)
    conns = connectome_module.pearson_connectomes(series)
    assert [c.matrix.tobytes() for c in conns] == [
        pearson_connectome(ts).tobytes() for ts in series]
    # one shape per call, and no stack past the batch budget unless it holds one series
    per_shape = {}
    for n, length, width in stacks:
        per_shape.setdefault((length, width), []).append(n)
        assert n == 1 or 8 * n * max(length, width) * width <= connectome_module._BATCH_BYTES
    assert per_shape == {(30, 20): [13, 13, 13, 2], (12, 5): [2], (120, 200): [1, 1]}


# ---------------------------------------------------------------------------
# connectome type


def test_connectome_validation():
    with pytest.raises(ValueError):
        Connectome(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        Connectome(np.array([[0.9, 0.5], [0.5, 1.0]]))  # diagonal
    bad = np.array([[1.0, 1.5], [1.5, 1.0]])
    with pytest.raises(ValueError):
        Connectome(bad)  # out of range


# ---------------------------------------------------------------------------
# dataset directory round-trips


def test_matrix_directory_roundtrip(tmp_path):
    ds = synth_dataset(3, n_nodes=6, length=12, spec=ClassSpec(blocks=3), seed=4)
    write_dataset(tmp_path, ds, as_time_series=False)
    loaded = load_dataset(tmp_path)
    assert len(loaded) == 3
    for a, b in zip(ds, loaded):
        assert a.subject_id == b.subject_id
        assert a.label == b.label
        np.testing.assert_allclose(a.connectome.matrix, b.connectome.matrix, atol=1e-15)


def test_ids_with_commas_and_quotes_round_trip(tmp_path):
    # labels.csv quotes such an id as csv does; plain ids keep their bytes
    ds = synth_dataset(3, n_nodes=5, length=9, spec=ClassSpec(separation=0.0), seed=8)
    ds = Dataset(tuple(replace(s, subject_id=sid) for s, sid in zip(ds, ["a,b", "plain", 'x"y'])))
    write_dataset(tmp_path, ds, as_time_series=True)
    assert (tmp_path / "labels.csv").read_text().splitlines()[1:] == [
        f'"a,b",{ds.samples[0].label}', f"plain,{ds.samples[1].label}",
        f'"x""y",{ds.samples[2].label}']
    loaded = load_dataset(tmp_path)
    assert [s.subject_id for s in loaded] == sorted(s.subject_id for s in ds)
    by_id = {s.subject_id: s for s in loaded}
    for s in ds:
        assert by_id[s.subject_id].label == s.label
        assert by_id[s.subject_id].time_series is None
        assert by_id[s.subject_id].connectome.matrix.tobytes() == s.connectome.matrix.tobytes()
        np.testing.assert_array_equal(
            read_time_series_file(tmp_path / f"{s.subject_id}.ts.csv"), s.time_series)


def test_time_series_only_directory_computes_connectomes(tmp_path):
    ds = synth_dataset(4, n_nodes=5, length=9, spec=ClassSpec(separation=0.0), seed=5)
    write_dataset(tmp_path, ds, as_time_series=True)
    loaded = load_dataset(tmp_path)
    for a, b in zip(ds, loaded):
        assert b.time_series is None
        series = read_time_series_file(tmp_path / f"{b.subject_id}.ts.csv")
        np.testing.assert_allclose(b.connectome.matrix, pearson_connectome(series), atol=0)
        np.testing.assert_allclose(a.connectome.matrix, b.connectome.matrix, atol=1e-12)


def test_unlabeled_directory_loads(tmp_path):
    ds = synth_dataset(2, n_nodes=4, length=8, spec=ClassSpec(blocks=2), seed=6)
    stripped = Dataset(tuple(Sample(s.subject_id, s.connectome) for s in ds))
    write_dataset(tmp_path, stripped, as_time_series=False)
    assert not (tmp_path / "labels.csv").exists()
    loaded = load_dataset(tmp_path)
    assert all(s.label is None for s in loaded)


def test_short_matrix_file_is_malformed(tmp_path):
    path = tmp_path / "s01.conn.csv"
    rows = ["4"] + [",".join("0" for _ in range(4))] * 3
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(DatasetError, match="malformed matrix"):
        load_dataset(tmp_path)


def test_mixed_node_counts_rejected(tmp_path):
    write_connectome_file(tmp_path / "a.conn.csv", Connectome(np.eye(3)))
    write_connectome_file(tmp_path / "b.conn.csv", Connectome(np.eye(4)))
    with pytest.raises(DatasetError, match="mixed node counts"):
        load_dataset(tmp_path)


def test_bad_label_rejected(tmp_path):
    write_connectome_file(tmp_path / "a.conn.csv", Connectome(np.eye(3)))
    (tmp_path / "labels.csv").write_text("subject_id,label\na,2\n")
    with pytest.raises(DatasetError, match="outside"):
        load_dataset(tmp_path)


def test_label_without_data_rejected(tmp_path):
    write_connectome_file(tmp_path / "a.conn.csv", Connectome(np.eye(3)))
    (tmp_path / "labels.csv").write_text("subject_id,label\na,1\nghost,0\n")
    with pytest.raises(DatasetError, match="ghost"):
        load_dataset(tmp_path)


# ---------------------------------------------------------------------------
# ingest: what a data file may look like, and how a bad one is reported

SERIES = np.array([[0.5, 1.0], [-1.5, 2.0], [2.0, -0.25]])
MATRIX = np.array([[1.0, 0.5], [0.5, 1.0]])


@pytest.mark.parametrize("name, text, message", [
    ("s.ts.csv", "3,2\n0.5,1.0\n-1.5\n2.0,-0.25\n", "s.ts.csv row 1: expected 2 values, got 1"),
    ("s.ts.csv", "3,2\n0.5,1.0\n-1.5,2.0,3.0\n2.0,-0.25\n",
     "s.ts.csv row 1: expected 2 values, got 3"),
    ("s.ts.csv", "3,2\n0.5,1.0\n-1.5,2.0\n2.0,x\n",
     "s.ts.csv row 2: malformed number (could not convert string to float: 'x')"),
    ("s.ts.csv", "3,2\n0.5,1.0\n-1.5,2.0\n2.0,-0.25 # note\n",
     "s.ts.csv row 2: malformed number (could not convert string to float: '-0.25 # note')"),
    ("s.ts.csv", "3,2\n0.5,1.0,\n-1.5,2.0\n2.0,-0.25\n", "s.ts.csv row 0: expected 2 values, got 3"),
    ("s.ts.csv", "3,2\n0.5,1.0\n-1.5,nan\n2.0,-0.25\n",
     "s.ts.csv: time series contains non-finite values"),
    ("s.ts.csv", "3,2\n0.5,1.0\n-1.5,2.0\n-inf,-0.25\n",
     "s.ts.csv: time series contains non-finite values"),
    ("s.ts.csv", "3,2\n0.5,1.0\n-1.5,2.0\n", "s.ts.csv: malformed series: header says 3 rows, found 2"),
    ("s.ts.csv", "3;2\n0.5,1.0\n", "s.ts.csv: malformed series header (want 'L,V')"),
    ("s.conn.csv", "2\n1.0,0.5\n0.5,1.0,\n", "s.conn.csv row 1: expected 2 values, got 3"),
    ("s.conn.csv", "2\n1.0,0.5\n0.5,1.O\n",
     "s.conn.csv row 1: malformed number (could not convert string to float: '1.O')"),
    ("s.conn.csv", "2\n1.0,Inf\nInf,1.0\n", "s.conn.csv: non-finite matrix entries"),
    ("s.conn.csv", "2\n1.0,0.5\n0.5,1.0\n0.5,1.0\n",
     "s.conn.csv: malformed matrix: header says 2 rows, found 3"),
    ("s.conn.csv", "2\n1.0,0.5\n0.4,1.0\n", "s.conn.csv: matrix is not symmetric"),
])
def test_malformed_file_error_names_file_and_row(tmp_path, capsys, name, text, message):
    (tmp_path / name).write_text(text)
    with pytest.raises(DatasetError) as exc:
        load_dataset(tmp_path)
    assert str(exc.value) == message
    assert main(["ingest", "--data", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("series, matrix", [
    # blank and whitespace-only lines, before the header too
    ("\n3,2\n0.5,1.0\n\n-1.5,2.0\n   \n2.0,-0.25\n\n", "\n2\n\n1.0,0.5\n \t\n0.5,1.0\n"),
    # CRLF line ends, and no newline after the last row
    ("3,2\r\n0.5,1.0\r\n-1.5,2.0\r\n2.0,-0.25", "2\r\n1.0,0.5\r\n0.5,1.0\r\n"),
    # spaces and tabs around fields; signs, exponents and bare points
    ("3, 2\n 0.5 , +1.0\n\t-1.5,\t2e0 \n2.,  -0.025E1\n", "2\n 1.0 ,  .5\n5e-1,1\n"),
])
def test_file_layout_tolerance(tmp_path, series, matrix):
    (tmp_path / "a.ts.csv").write_bytes(series.encode())
    (tmp_path / "b.conn.csv").write_bytes(matrix.encode())
    a, b = load_dataset(tmp_path)
    assert np.array_equal(read_time_series_file(tmp_path / "a.ts.csv"), SERIES)
    assert a.time_series is None
    assert np.array_equal(a.connectome.matrix, pearson_connectome(SERIES))
    assert np.array_equal(b.connectome.matrix, MATRIX)


def test_digit_separators_are_rejected(tmp_path):
    # float() takes 1_0, numpy's C parser and the decimal format do not
    (tmp_path / "s.ts.csv").write_text("3,2\n0.5,1.0\n-1.5,1_0\n2.0,-0.25\n")
    with pytest.raises(DatasetError, match=r"^s\.ts\.csv: malformed number \(.*'1_0'"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("name, text", [("s.conn.csv", "0\n"), ("s.ts.csv", "0,3\n")])
def test_header_with_no_rows_is_rejected(tmp_path, name, text):
    (tmp_path / name).write_text(text)
    with pytest.raises(DatasetError) as exc:
        load_dataset(tmp_path)
    assert str(exc.value) == f"{name}: no data rows"


def test_well_formed_files_take_the_bulk_parse(tmp_path, monkeypatch):
    # the row-by-row parser only explains a failure; a clean load never calls it
    ds = synth_dataset(6, n_nodes=5, length=8, spec=ClassSpec(separation=0.0), seed=3)
    write_dataset(tmp_path / "ts", ds, as_time_series=True)
    write_dataset(tmp_path / "conn", ds, as_time_series=False)

    def refuse(*args):
        raise AssertionError("row-by-row parse on a well-formed file")

    monkeypatch.setattr(data_io, "_parse_floats", refuse)
    for layout in ("ts", "conn"):
        loaded = load_dataset(tmp_path / layout)
        assert [s.subject_id for s in loaded] == [s.subject_id for s in ds]


def test_mixed_series_lengths_load_per_subject(tmp_path):
    # sites differ in scan length; every subject's connectome comes from its
    # own series
    short = synth_dataset(3, n_nodes=5, length=9, spec=ClassSpec(separation=0.0), seed=1)
    long = synth_dataset(4, n_nodes=5, length=14, spec=ClassSpec(separation=0.0), seed=2)
    renamed = [Sample(f"{tag}{s.subject_id}", s.connectome, s.label, s.time_series)
               for tag, ds in (("a", short), ("b", long)) for s in ds]
    write_dataset(tmp_path, Dataset(tuple(renamed)))
    loaded = load_dataset(tmp_path)
    assert [s.subject_id for s in loaded] == [s.subject_id for s in renamed]
    for want, got in zip(renamed, loaded):
        series = read_time_series_file(tmp_path / f"{want.subject_id}.ts.csv")
        assert np.array_equal(series, want.time_series)  # repr round-trips exactly
        assert got.time_series is None
        assert got.connectome.matrix.tobytes() == want.connectome.matrix.tobytes()
        assert got.label == want.label


def test_matrix_file_wins_over_series_file(tmp_path):
    (tmp_path / "s.ts.csv").write_text("3,2\n0.5,1.0\n-1.5,2.0\n2.0,-0.25\n")
    (tmp_path / "s.conn.csv").write_text("2\n1.0,0.5\n0.5,1.0\n")
    (tmp_path / "t.ts.csv").write_text("3,2\n0.5,1.0\n-1.5,2.0\n2.0,-0.25\n")
    s, t = load_dataset(tmp_path)
    assert np.array_equal(s.connectome.matrix, MATRIX)
    assert s.time_series is None and t.time_series is None
    assert np.array_equal(read_time_series_file(tmp_path / "s.ts.csv"), SERIES)
    assert np.array_equal(t.connectome.matrix, pearson_connectome(SERIES))
    # the losing series file is still parsed: a bad one fails the load
    (tmp_path / "s.ts.csv").write_text("3,2\n0.5,1.0\n-1.5,x\n2.0,-0.25\n")
    with pytest.raises(DatasetError, match="s.ts.csv row 1"):
        load_dataset(tmp_path)


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_is_deterministic():
    a = synth_dataset(10, n_nodes=8, length=15, seed=42)
    b = synth_dataset(10, n_nodes=8, length=15, seed=42)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.time_series, sb.time_series)
        assert np.array_equal(sa.connectome.matrix, sb.connectome.matrix)
    c = synth_dataset(10, n_nodes=8, length=15, seed=43)
    assert not np.array_equal(a.samples[0].time_series, c.samples[0].time_series)


def test_synth_labels_balanced():
    ds = synth_dataset(200, n_nodes=20, length=10)
    labels = np.array(ds.labels)
    assert (labels == 0).sum() == 100
    assert (labels == 1).sum() == 100
    odd = synth_dataset(7, n_nodes=20, length=10)
    counts = np.bincount(odd.labels)
    assert abs(int(counts[0]) - int(counts[1])) <= 1


def test_synth_degenerate_spec_rejected():
    with pytest.raises(DatasetError):
        synth_dataset(4, n_nodes=20, length=10, spec=ClassSpec(separation=0.5, blocks=1))
    with pytest.raises(DatasetError):
        # V too small for the rotation to move any node between blocks
        synth_dataset(4, n_nodes=4, length=10, spec=ClassSpec(separation=0.5, blocks=4))
    # separation 0 tolerates any template
    synth_dataset(4, n_nodes=4, length=10, spec=ClassSpec(separation=0.0, blocks=4))


def test_synth_classes_have_distinct_structure():
    ds = synth_dataset(60, n_nodes=20, length=30, spec=ClassSpec(separation=1.0), seed=7)
    mean0 = np.mean([s.connectome.matrix for s in ds if s.label == 0], axis=0)
    mean1 = np.mean([s.connectome.matrix for s in ds if s.label == 1], axis=0)
    between = np.abs(mean0 - mean1).max()
    assert between > 0.2

    flat = synth_dataset(60, n_nodes=20, length=30, spec=ClassSpec(separation=0.0), seed=7)
    mean0 = np.mean([s.connectome.matrix for s in flat if s.label == 0], axis=0)
    mean1 = np.mean([s.connectome.matrix for s in flat if s.label == 1], axis=0)
    assert np.abs(mean0 - mean1).max() < between / 2


# ---------------------------------------------------------------------------
# stratified split


def test_split_exact_divisibility():
    ds = make_labeled(50, 50)
    train, val, test = stratified_split(ds, SplitSpec(), 3)
    for part, expect in zip((train, val, test), (70, 10, 20)):
        labels = np.array(part.labels)
        assert len(part) == expect
        assert (labels == 0).sum() == expect // 2
        assert (labels == 1).sum() == expect // 2


def test_split_is_deterministic():
    ds = make_labeled(31, 40)
    first = stratified_split(ds, SplitSpec(), 9)
    second = stratified_split(ds, SplitSpec(), 9)
    for a, b in zip(first, second):
        assert [s.subject_id for s in a] == [s.subject_id for s in b]
    shuffled = stratified_split(ds, SplitSpec(), 10)
    assert any([s.subject_id for s in a] != [s.subject_id for s in b]
               for a, b in zip(first, shuffled))


def test_split_abide_scale_sizes():
    ds = make_labeled(505, 504, n_nodes=2)
    train, val, test = stratified_split(ds, SplitSpec(), 0)
    assert abs(len(train) - 706) <= 1
    assert abs(len(val) - 101) <= 1
    assert abs(len(test) - 202) <= 1
    assert len(train) + len(val) + len(test) == 1009


def test_split_rejects_unlabeled_and_tiny_classes():
    eye = Connectome(np.eye(3))
    ds = Dataset((Sample("a", eye, label=0), Sample("b", eye)))
    with pytest.raises(DatasetError, match="unlabeled"):
        stratified_split(ds, SplitSpec(), 0)
    with pytest.raises(DatasetError, match="need >= 3"):
        stratified_split(make_labeled(2, 10), SplitSpec(), 0)


@given(n0=st.integers(3, 60), n1=st.integers(3, 60), seed=st.integers(0, 99))
@settings(max_examples=40, deadline=None)
def test_split_partition_properties(n0, n1, seed):
    ds = make_labeled(n0, n1, n_nodes=2)
    parts = stratified_split(ds, SplitSpec(), seed)
    ids = [s.subject_id for part in parts for s in part]
    assert len(ids) == len(set(ids)) == len(ds)
    assert set(ids) == {s.subject_id for s in ds}
    for part, frac in zip(parts, (0.7, 0.1, 0.2)):
        labels = np.array(part.labels)
        assert abs((labels == 0).sum() - frac * n0) <= 1
        assert abs((labels == 1).sum() - frac * n1) <= 1
