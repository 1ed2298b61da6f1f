import csv
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import braincl
from braincl import cli, heap
from braincl.cli import main
from braincl.data import write_connectome_file
from braincl.model import EncoderConfig, init_classifier_params, init_encoder_params
from braincl.numcore import load_checkpoint, save_checkpoint
from braincl.pipeline import save_encoder_checkpoint

CONFIG = """
[model]
layers = 1
heads = 2
n_clusters = 4
proj_dim = 8

[augment]
k_min = 1
k_max = 3
delta_max = 0.2
noise = N(0,0.01)

[pretrain]
epochs = 2
lr = 0.02
batch_size = 8
queue_capacity = 16
momentum = 0.9

[finetune]
epochs = 2
lr = 0.001
weight_decay = 0.0001
batch_size = 8
repeats = 1
"""


@pytest.fixture()
def workdir(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n", "24", "--nodes", "10",
                 "--length", "12", "--blocks", "2", "--seed", "0"]) == 0
    config = tmp_path / "run.ini"
    config.write_text(CONFIG)
    return tmp_path


def test_synth_and_ingest(workdir, capsys):
    assert main(["ingest", "--data", str(workdir / "data")]) == 0
    out = capsys.readouterr().out
    assert "samples: 24" in out
    assert "nodes per sample: 10" in out
    assert "labeled: 24" in out


def test_ingest_counts_the_files_of_each_kind(tmp_path, capsys):
    # a subject with both files counts once in each; the matrix wins
    write_connectome_file(tmp_path / "a.conn.csv", np.eye(3))
    write_connectome_file(tmp_path / "b.conn.csv", np.eye(3))
    for sid in ("b", "c"):
        (tmp_path / f"{sid}.ts.csv").write_text("3,3\n0.5,1.0,0\n-1.5,2.0,1\n2.0,-0.25,0\n")
    assert main(["ingest", "--data", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "samples: 3\n" in out
    assert out.endswith("files: 2 *.ts.csv, 2 *.conn.csv\n")


def test_synth_matrices_mode(tmp_path):
    out = tmp_path / "md"
    assert main(["synth", "--out", str(out), "--n", "4", "--nodes", "6",
                 "--length", "8", "--blocks", "2", "--matrices"]) == 0
    assert len(list(out.glob("*.conn.csv"))) == 4
    assert not list(out.glob("*.ts.csv"))


def test_augment_writes_views_and_diff(tmp_path):
    data = tmp_path / "md"
    main(["synth", "--out", str(data), "--n", "2", "--nodes", "8",
          "--length", "10", "--blocks", "2", "--matrices"])
    conn = sorted(data.glob("*.conn.csv"))[0]
    out = tmp_path / "aug"
    assert main(["augment", "--input", str(conn), "--out", str(out),
                 "--k-min", "1", "--k-max", "3", "--seed", "5"]) == 0
    assert (out / "view1.conn.csv").exists()
    assert (out / "view2.conn.csv").exists()
    with (out / "diff.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["view"] for r in rows] == ["view1", "view2"]
    assert all(int(r["entries_changed"]) > 0 for r in rows)


# sha256 of the files `braincl augment` wrote for these inputs when views were
# still built one view at a time; the batched augmentation keeps them
AUGMENT_BYTES = {
    ("--k-min", "1", "--k-max", "3", "--seed", "5"): (
        "d6f4dd09b31a421d06485c9e701b18b1281c648c9a3eadcbde57bd91009ca901",
        "bbb10a3e7c898e2c01dd782b9ee87206415e8ea970f643b20c03ead5009d6faf",
        "9f34d51bb86fdcd5132cf31751a2e1c5bda0448dc58f513e62296907010cc339"),
    ("--k-min", "0", "--k-max", "8", "--seed", "11", "--noise", "uniform(-0.2,0.2)"): (
        "a8a1f6e43eadfee2e5bcd751bb2cd356593e87295ec4c0eb43bb60b302963662",
        "225d3e209cefc0ccff7e898e14abf4272ee3441dd8f8b66cff25a57df5d96203",
        "1435d64a9cb08d6d9a204bded609b4612a4077d11bcc9c0c92a9c1cf943e79c2"),
}


def test_augment_view_files_are_byte_stable(tmp_path):
    data = tmp_path / "md"
    main(["synth", "--out", str(data), "--n", "2", "--nodes", "8",
          "--length", "10", "--blocks", "2", "--matrices"])
    conn = sorted(data.glob("*.conn.csv"))[0]
    for case, (args, digests) in enumerate(AUGMENT_BYTES.items()):
        out = tmp_path / f"aug{case}"
        assert main(["augment", "--input", str(conn), "--out", str(out), *args]) == 0
        got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("view1.conn.csv", "view2.conn.csv", "diff.csv"))
        assert got == digests, args


def test_pretrain_finetune_evaluate_roc_round_trip(workdir, capsys):
    data = str(workdir / "data")
    config = str(workdir / "run.ini")
    pre_out = workdir / "pre"
    assert main(["pretrain", "--data", data, "--config", config,
                 "--out", str(pre_out), "--seed", "1"]) == 0
    assert (pre_out / "pretrained.bnck").exists()
    log = (pre_out / "pretrain_log.csv").read_text().splitlines()
    assert log[0] == "epoch,loss_mean,queue_len,lr"
    assert len(log) == 3  # header + 2 epochs
    assert (pre_out / "config.resolved").exists()

    ft_out = workdir / "ft"
    assert main(["finetune", "--data", data, "--config", config,
                 "--ckpt", str(pre_out / "pretrained.bnck"),
                 "--out", str(ft_out), "--seed", "2"]) == 0
    report = (ft_out / "report.csv").read_text().splitlines()
    assert report[0] == "repeat,accuracy,auroc,sensitivity,specificity"
    assert report[-2].startswith("mean,")
    assert report[-1].startswith("std,")
    assert (ft_out / "report.json").exists()
    assert (ft_out / "model_repeat0.bnck").exists()
    assert (ft_out / "roc.svg").exists()

    ev_out = workdir / "ev"
    assert main(["evaluate", "--data", data,
                 "--model", str(ft_out / "model_repeat0.bnck"),
                 "--out", str(ev_out)]) == 0
    out = capsys.readouterr().out
    assert "auroc:" in out
    assert (ev_out / "scores.csv").exists()

    roc_out = workdir / "roc"
    assert main(["roc", "--scores", str(ft_out / "scores_repeat0.csv"),
                 "--out", str(roc_out)]) == 0
    svg = (roc_out / "roc.svg").read_text()
    assert svg.count("<polyline") == 1


def test_describe_from_config_and_checkpoint(workdir, capsys):
    assert main(["describe", "--config", str(workdir / "run.ini"),
                 "--nodes", "10"]) == 0
    out = capsys.readouterr().out
    assert "classifier" in out and "total" in out

    pre_out = workdir / "pre2"
    main(["pretrain", "--data", str(workdir / "data"),
          "--config", str(workdir / "run.ini"), "--out", str(pre_out)])
    assert main(["describe", "--ckpt", str(pre_out / "pretrained.bnck")]) == 0
    out = capsys.readouterr().out
    assert "n_nodes=10" in out
    assert ("configuration: cluster_dim=8, d_model=10, ffn_dim=20, heads=2, layers=1, "
            "n_clusters=4, n_nodes=10, proj_dim=8") in out
    assert "readout" in out


def test_evaluate_rejects_non_finite_checkpoint(workdir, capsys):
    cfg = EncoderConfig(n_nodes=10, layers=1, heads=2, n_clusters=4, proj_dim=8)
    rng = np.random.default_rng(0)
    arrays = {**init_encoder_params(cfg, rng), **init_classifier_params(cfg, rng)}
    arrays["classifier.w1"] = arrays["classifier.w1"].copy()
    arrays["classifier.w1"][0, 0] = np.inf
    bad = workdir / "bad.bnck"
    save_encoder_checkpoint(bad, arrays, cfg)
    assert main(["evaluate", "--data", str(workdir / "data"), "--model", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "bad.bnck" in err and "classifier.w1" in err


def test_evaluate_reports_a_checkpoint_that_overflows(tmp_path, capsys):
    # every weight is finite, but the head's first product overflows
    cfg = EncoderConfig(n_nodes=8, layers=1, heads=2, n_clusters=3, proj_dim=4)
    rng = np.random.default_rng(0)
    arrays = {**init_encoder_params(cfg, rng), **init_classifier_params(cfg, rng)}
    arrays["classifier.w1"] = np.full_like(arrays["classifier.w1"], 1e308)
    model = tmp_path / "huge.bnck"
    save_encoder_checkpoint(model, arrays, cfg)
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n", "6", "--nodes", "8",
                 "--length", "12", "--seed", "0"]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--data", str(data), "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: non-finite value during evaluation scoring:")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("value", [np.array([2.0]), np.array(2.5)], ids=["shape1", "fraction"])
def test_evaluate_rejects_malformed_checkpoint_metadata(workdir, capsys, value):
    # int() raised a TypeError on the first and read the second as 2 heads
    cfg = EncoderConfig(n_nodes=10, layers=1, heads=2, n_clusters=4, proj_dim=8)
    rng = np.random.default_rng(0)
    model = workdir / "meta.bnck"
    save_encoder_checkpoint(model, {**init_encoder_params(cfg, rng),
                                    **init_classifier_params(cfg, rng)}, cfg)
    save_checkpoint(model, {**load_checkpoint(model), "meta.heads": value})
    capsys.readouterr()
    assert main(["evaluate", "--data", str(workdir / "data"), "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {model}: entry 'meta.heads' is not an integer scalar\n"


def test_evaluate_rejects_an_incomplete_checkpoint(workdir, capsys):
    # a missing weight was a KeyError traceback from inside the forward pass
    cfg = EncoderConfig(n_nodes=10, layers=1, heads=2, n_clusters=4, proj_dim=8)
    rng = np.random.default_rng(0)
    model = workdir / "model.bnck"
    save_encoder_checkpoint(model, {**init_encoder_params(cfg, rng),
                                    **init_classifier_params(cfg, rng)}, cfg)
    entries = load_checkpoint(model)
    del entries["param.layer0.ffn.w2"]
    save_checkpoint(model, entries)
    capsys.readouterr()
    assert main(["evaluate", "--data", str(workdir / "data"), "--model", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: incompatible checkpoint: missing ['layer0.ffn.w2'], "
                            "unexpected []\n")

    entries["param.layer0.ffn.w2"] = np.zeros((3, 10))
    save_checkpoint(model, entries)
    assert main(["evaluate", "--data", str(workdir / "data"), "--model", str(model)]) == 2
    assert capsys.readouterr().err == ("error: incompatible checkpoint: 'layer0.ffn.w2' has "
                                       "shape (3, 10), expected (20, 10)\n")


def test_evaluate_on_one_class_reports_the_auroc_error(workdir, capsys):
    # the summary's auroc runs before any rate would divide by a zero class count
    labels = workdir / "data" / "labels.csv"
    rows = labels.read_text().splitlines()
    labels.write_text("\n".join([rows[0], *(row for row in rows[1:] if row.endswith(",1"))]) + "\n")
    cfg = EncoderConfig(n_nodes=10, layers=1, heads=2, n_clusters=4, proj_dim=8)
    rng = np.random.default_rng(0)
    model = workdir / "model.bnck"
    save_encoder_checkpoint(model, {**init_encoder_params(cfg, rng),
                                    **init_classifier_params(cfg, rng)}, cfg)
    capsys.readouterr()
    out = workdir / "ev"
    assert main(["evaluate", "--data", str(workdir / "data"), "--model", str(model),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: auroc needs at least one sample of each class\n"
    assert not out.exists()


def test_pretrain_checkpoint_does_not_depend_on_blas_threads(tmp_path):
    # the default V=200 encoder's second FFN product has inner dimension 400,
    # where OpenBLAS gives other bits at 2 threads than at 1
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--n", "4", "--nodes", "200",
                 "--length", "40", "--seed", "0"]) == 0
    config = tmp_path / "run.ini"
    config.write_text("[pretrain]\nepochs = 1\nbatch_size = 2\n")
    src = str(Path(braincl.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "braincl.cli", "pretrain", "--data", str(data),
                               "--config", str(config), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.add(hashlib.sha256((out / "pretrained.bnck").read_bytes()).hexdigest())
    assert len(digests) == 1


def test_main_fixes_malloc_thresholds_beside_the_blas_pin_before_the_verb(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "pin_one_blas_thread", lambda: calls.append("blas"))
    monkeypatch.setattr(cli, "fix_malloc_thresholds", lambda: calls.append("malloc"))
    monkeypatch.setattr(cli, "cmd_describe", lambda args: calls.append("verb"))
    assert main(["describe"]) == 0
    assert sorted(calls[:2]) == ["blas", "malloc"] and calls[2:] == ["verb"]


def test_malloc_thresholds_take_effect_on_glibc_and_are_harmless_without_mallopt(monkeypatch):
    assert heap.fix_malloc_thresholds() is (platform.libc_ver()[0] == "glibc")
    monkeypatch.setattr(heap, "_mallopt", lambda: None)
    assert heap.fix_malloc_thresholds() is False


def test_importing_the_cli_leaves_openssl_unloaded():
    # only the config fingerprint hashes, and importing hashlib maps
    # OpenSSL's libcrypto, several MB of a CLI run's peak memory
    src = str(Path(braincl.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c",
                           "import sys, braincl.cli; print('_hashlib' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_finetune_rejects_a_finetuned_checkpoint(workdir, capsys):
    # it was an 'incompatible checkpoint' error listing the head's weights as unexpected
    cfg = EncoderConfig(n_nodes=10, layers=1, heads=2, n_clusters=4, proj_dim=8)
    rng = np.random.default_rng(0)
    model = workdir / "model_repeat0.bnck"
    save_encoder_checkpoint(model, {**init_encoder_params(cfg, rng),
                                    **init_classifier_params(cfg, rng)}, cfg)
    capsys.readouterr()
    assert main(["finetune", "--data", str(workdir / "data"), "--config",
                 str(workdir / "run.ini"), "--ckpt", str(model),
                 "--out", str(workdir / "ft")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {model} holds a classification head; "
                            f"pass a pretrained encoder checkpoint\n")
    assert not (workdir / "ft").exists()


def test_finetune_rejects_checkpoint_with_other_encoder_config(workdir, capsys):
    # heads changes no parameter shape, so only the recorded config tells
    run = EncoderConfig(n_nodes=10, layers=1, heads=2, n_clusters=4, proj_dim=8)
    other = EncoderConfig(n_nodes=10, layers=1, heads=1, n_clusters=4, proj_dim=8)
    ckpt = workdir / "heads1.bnck"
    save_encoder_checkpoint(ckpt, init_encoder_params(other, np.random.default_rng(0)), other)
    args = ["finetune", "--data", str(workdir / "data"), "--config",
            str(workdir / "run.ini"), "--ckpt", str(ckpt)]
    assert main(args + ["--out", str(workdir / "ft_bad")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "heads 1 in the checkpoint, 2 in this run" in err
    assert not (workdir / "ft_bad").exists()

    # proj_dim sizes only the pretraining projection head: not compared
    wide = EncoderConfig(n_nodes=10, layers=1, heads=2, n_clusters=4, proj_dim=16)
    save_encoder_checkpoint(ckpt, init_encoder_params(run, np.random.default_rng(0)), wide)
    assert main(args + ["--out", str(workdir / "ft_ok")]) == 0


def test_ablate_emits_full_grid(workdir):
    # micro settings keep 12 cells fast; structural check only
    config = workdir / "ablate.ini"
    config.write_text(CONFIG.replace("epochs = 2", "epochs = 1"))
    out = workdir / "ab"
    assert main(["ablate", "--data", str(workdir / "data"),
                 "--config", str(config), "--out", str(out), "--seed", "0"]) == 0
    with (out / "ablation.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    assert {r["noise"] for r in rows} == {"none", "uniform(-0.1,0.1)",
                                          "N(0,0.1)", "N(0,0.01)"}
    assert {r["nodes_nominal"] for r in rows} == {"0~0", "5~20", "5~200"}
    assert all(r["auroc_mean"] for r in rows)


def test_cli_error_paths(tmp_path, capsys):
    assert main(["ingest", "--data", str(tmp_path / "missing")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["describe"]) == 2
    bad_config = tmp_path / "bad.ini"
    bad_config.write_text("[pretrain]\nepochs = 1.5\n")
    capsys.readouterr()
    assert main(["describe", "--config", str(bad_config), "--nodes", "10"]) == 2
    assert capsys.readouterr().err.startswith("error: [pretrain] epochs:")
    # malformed INI files: no section header, and a bare % in a value
    for text in ("epochs = 1\n", "[pretrain]\nlr = 5%\n"):
        bad_config.write_text(text)
        assert main(["describe", "--config", str(bad_config), "--nodes", "10"]) == 2
        assert capsys.readouterr().err.startswith(f"error: config file {bad_config}:")


@pytest.mark.parametrize("key", ["d_model", "ffn_dim", "cluster_dim", "proj_dim"])
@pytest.mark.parametrize("verb", ["pretrain", "describe"])
def test_non_positive_model_widths_are_config_errors(workdir, capsys, verb, key):
    config = workdir / "bad.ini"
    config.write_text(f"[model]\n{key} = 0\n")
    args = {"pretrain": ["--data", str(workdir / "data"), "--out", str(workdir / "pre")],
            "describe": ["--nodes", "20"]}[verb]
    assert main([verb, *args, "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {key} must be positive, got 0\n"


@pytest.mark.parametrize("verb, old, new, message", [
    ("pretrain", "noise = N(0,0.01)", "noise = N(0,nan)",
     "[augment] noise: gaussian sigma must be non-negative and finite, got nan"),
    ("pretrain", "noise = N(0,0.01)", "noise = N(0,inf)",
     "[augment] noise: gaussian sigma must be non-negative and finite, got inf"),
    ("pretrain", "noise = N(0,0.01)", "noise = uniform(nan,0.1)",
     "[augment] noise: uniform noise needs finite bounds, got (nan, 0.1)"),
    ("pretrain", "noise = N(0,0.01)", "noise = uniform(-inf,inf)",
     "[augment] noise: uniform noise needs finite bounds, got (-inf, inf)"),
    ("finetune", "repeats = 1", "repeats = 1\ntrain_fraction = nan",
     "train_fraction must be positive and finite, got nan"),
    ("finetune", "repeats = 1", "repeats = 1\ntest_fraction = inf",
     "test_fraction must be positive and finite, got inf"),
], ids=["sigma_nan", "sigma_inf", "uniform_nan", "uniform_inf", "train_nan", "test_inf"])
def test_non_finite_noise_and_split_settings_are_config_errors(workdir, capsys, verb, old, new,
                                                                message):
    # the run stops at config load, naming the setting, before any training
    config = workdir / "bad.ini"
    config.write_text(CONFIG.replace(old, new))
    out = workdir / "out"
    assert main([verb, "--data", str(workdir / "data"), "--out", str(out),
                 "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("bad_row, message", [
    ("0.5", " row 1: want a number score and an integer label, got score '0.5', label None"),
    ("0.5,x", " row 1: want a number score and an integer label, got score '0.5', label 'x'"),
    ("0.5,2", ": labels must be 0 or 1"),
], ids=["no_label", "bad_label", "label_out_of_range"])
def test_roc_names_the_file_and_row_of_a_malformed_score(tmp_path, capsys, bad_row, message):
    scores = tmp_path / "scores.csv"
    scores.write_text(f"score,label\n0.9,1\n\n{bad_row}\n0.1,0\n")
    good = tmp_path / "good.csv"
    good.write_text("score,label\n0.9,1\n0.1,0\n")
    out = tmp_path / "roc"
    assert main(["roc", "--scores", str(good), str(scores), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {scores}{message}\n"
    assert not out.exists()  # every file is read before the directory is made


def test_roc_names_the_file_that_holds_one_class(tmp_path, capsys):
    good, one_class = tmp_path / "good.csv", tmp_path / "one.csv"
    good.write_text("score,label\n0.9,1\n0.1,0\n")
    one_class.write_text("score,label\n0.9,1\n0.4,1\n")
    out = tmp_path / "roc"
    assert main(["roc", "--scores", str(good), str(one_class), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {one_class}: roc_points needs at least one "
                                       f"sample of each class\n")
    assert not out.exists()


def test_roc_refuses_score_files_that_share_a_name(tmp_path, capsys):
    a, b = tmp_path / "a" / "s.csv", tmp_path / "b" / "s.csv"
    for path in (a, b):
        path.parent.mkdir()
        path.write_text("score,label\n0.9,1\n0.1,0\n")
    out = tmp_path / "roc"
    assert main(["roc", "--scores", str(a), str(b), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(a) in err and str(b) in err
    assert not out.exists()


def test_roc_svg_parses_whatever_the_score_file_is_called(tmp_path):
    scores = tmp_path / "a&b<c.csv"
    scores.write_text("score,label\n0.9,1\n0.4,0\n0.6,1\n0.1,0\n")
    out = tmp_path / "roc"
    assert main(["roc", "--scores", str(scores), "--out", str(out)]) == 0
    labels = [el.text for el in ElementTree.parse(out / "roc.svg").iter()
              if el.tag.endswith("text")]
    assert "a&b<c (AUROC 1.000)" in labels


def test_roc_reads_a_score_file_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_bytes("\ufeffscore,label\n0.9,1\n0.4,0\n".encode())
    assert main(["roc", "--scores", str(scores), "--out", str(tmp_path / "roc")]) == 0
    assert "scores: auroc 1.0000" in capsys.readouterr().out


def test_augment_defaults_fit_a_small_matrix(tmp_path, capsys):
    # the default node range 5-20 shrinks to 3-3 on a 3-node matrix
    conn = tmp_path / "tiny.conn.csv"
    write_connectome_file(conn, np.array([[1.0, 0.3, -0.2],
                                          [0.3, 1.0, 0.5],
                                          [-0.2, 0.5, 1.0]]))
    out = tmp_path / "aug"
    assert main(["augment", "--input", str(conn), "--out", str(out)]) == 0
    with (out / "diff.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["entries_changed"]) for r in rows] == [3, 3]  # every node picked
    # an explicit range that cannot fit still fails
    assert main(["augment", "--input", str(conn), "--out", str(tmp_path / "bad"),
                 "--k-min", "4"]) == 2
    assert capsys.readouterr().err == "error: need 0 <= k_min <= k_max, got [4, 3]\n"
