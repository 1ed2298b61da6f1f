import filecmp
import importlib
from dataclasses import fields, replace

import numpy as np
import pytest

from braincl.augment import AugmentConfig, NoiseSpec
from braincl.data import ClassSpec, SplitSpec, stratified_split, synth_dataset
from braincl.metrics import ScoredSet
from braincl.model import (EncoderConfig, init_classifier_params, init_encoder_params,
                           init_projection_params)
from braincl.pipeline import (
    ExperimentConfig,
    ExperimentReport,
    FinetuneConfig,
    FinetuneResult,
    PipelineError,
    PretrainConfig,
    PretrainResult,
    finetune,
    fingerprint,
    load_config,
    load_encoder_checkpoint,
    pretrain,
    resolved_text,
    run_experiment,
    save_encoder_checkpoint,
    write_ablation_csv,
    write_report,
)

ECFG = EncoderConfig(n_nodes=10, layers=1, heads=2, n_clusters=4, proj_dim=8)
AUG = AugmentConfig(k_min=1, k_max=3, delta_max=0.2, noise=NoiseSpec(sigma=0.01))


def tiny_ds(seed=0, separation=1.0, n=24):
    return synth_dataset(n, n_nodes=10, length=12,
                         spec=ClassSpec(separation=separation, blocks=2), seed=seed)


def tiny_experiment(repeats=1, pre_epochs=1, ft_epochs=2) -> ExperimentConfig:
    return ExperimentConfig(
        encoder=ECFG,
        augment=AUG,
        pretrain=PretrainConfig(epochs=pre_epochs, lr=0.01, batch_size=8,
                                queue_capacity=32, momentum=0.9, seed=3),
        finetune=FinetuneConfig(epochs=ft_epochs, lr=1e-3, weight_decay=1e-4,
                                batch_size=8, repeats=repeats, seed=5),
    )


# ---------------------------------------------------------------------------
# pretrain


def test_pretrain_zero_epochs_returns_initialization():
    ds = tiny_ds()
    cfg = PretrainConfig(epochs=0, lr=0.01, batch_size=8, seed=7)
    result = pretrain(ds, ECFG, cfg, AUG)
    assert result.epoch_log == ()

    init_rng = np.random.default_rng(np.random.SeedSequence(7).spawn(3)[0])
    expected = init_encoder_params(ECFG, init_rng)
    expected.update(init_projection_params(ECFG, init_rng))
    for name, arr in result.encoder_params.items():
        np.testing.assert_array_equal(arr, expected[name])


def test_pretrain_deterministic_given_seed():
    ds = tiny_ds()
    cfg = PretrainConfig(epochs=2, lr=0.02, batch_size=8, queue_capacity=16,
                         momentum=0.9, seed=11)
    a = pretrain(ds, ECFG, cfg, AUG)
    b = pretrain(ds, ECFG, cfg, AUG)
    assert a.epoch_log == b.epoch_log
    for name in a.encoder_params:
        assert np.array_equal(a.encoder_params[name], b.encoder_params[name])
    c = pretrain(ds, ECFG, replace(cfg, seed=12), AUG)
    assert any(not np.array_equal(a.encoder_params[n], c.encoder_params[n])
               for n in a.encoder_params)


def test_pretrain_log_schema_and_queue_growth():
    ds = tiny_ds()
    cfg = PretrainConfig(epochs=3, lr=0.02, batch_size=8, queue_capacity=16,
                         momentum=0.9, seed=1)
    result = pretrain(ds, ECFG, cfg, AUG)
    assert len(result.epoch_log) == 3
    epochs = [row[0] for row in result.epoch_log]
    assert epochs == [0, 1, 2]
    queue_lens = [row[2] for row in result.epoch_log]
    assert queue_lens == [16, 16, 16]  # capacity reached within first epoch
    assert all(row[3] == 0.02 for row in result.epoch_log)
    assert not any(k.startswith("project.") for k in result.encoder_params)


def test_pretrain_checks_the_queue_once_per_step(monkeypatch):
    # queue_push checks the keys it admits and info_nce the queue it reads,
    # so holding the queue between steps re-checks nothing
    from braincl import contrastive
    checked = []
    check = contrastive._check_unit_rows

    def counting(rows, what):
        checked.append(what)
        check(rows, what)

    monkeypatch.setattr(contrastive, "_check_unit_rows", counting)
    cfg = PretrainConfig(epochs=1, lr=0.02, batch_size=8, queue_capacity=16,
                         momentum=0.9, seed=1)
    pretrain(tiny_ds(n=16), ECFG, cfg, AUG)
    assert checked.count("queue") == 2


def test_pretrain_rejects_empty_dataset():
    from braincl.data import Dataset
    with pytest.raises(PipelineError):
        pretrain(Dataset(()), ECFG, PretrainConfig(epochs=1), AUG)


# ---------------------------------------------------------------------------
# finetune


def test_finetune_single_epoch_selects_it():
    ds = tiny_ds()
    cfg = FinetuneConfig(epochs=1, lr=1e-3, batch_size=8, repeats=1, seed=2)
    result = finetune(ds, None, ECFG, cfg)
    assert result.best_epoch == 1
    assert len(result.epoch_log) == 1


def test_finetune_fold_isolation():
    ds = tiny_ds(n=40)
    cfg = FinetuneConfig(epochs=2, lr=1e-3, batch_size=8, repeats=1, seed=4)
    result = finetune(ds, None, ECFG, cfg)
    train_ids, val_ids, test_ids = result.split_ids
    assert not train_ids & val_ids
    assert not train_ids & test_ids
    assert not val_ids & test_ids
    assert train_ids | val_ids | test_ids == {s.subject_id for s in ds}


def test_finetune_splits_by_its_own_seed():
    # the split holds the fractions only; its draw follows FinetuneConfig.seed
    assert [f.name for f in fields(SplitSpec)] == ["train", "val", "test"]
    ds = tiny_ds(n=40)
    cfg = FinetuneConfig(epochs=1, lr=1e-3, batch_size=8, repeats=1, seed=4)
    result = finetune(ds, None, ECFG, cfg)
    folds = stratified_split(ds.labeled(), cfg.split, cfg.seed)
    assert result.split_ids == tuple(frozenset(s.subject_id for s in part) for part in folds)
    reseeded = finetune(ds, None, ECFG, replace(cfg, seed=5))
    assert reseeded.split_ids != result.split_ids


def test_finetune_requires_labels_and_compatible_checkpoint():
    from braincl.data import Dataset, Sample
    ds = tiny_ds()
    stripped = Dataset(tuple(Sample(s.subject_id, s.connectome) for s in ds))
    cfg = FinetuneConfig(epochs=1, lr=1e-3, batch_size=8, repeats=1)
    with pytest.raises(PipelineError):
        finetune(stripped, None, ECFG, cfg)

    wrong = init_encoder_params(
        EncoderConfig(n_nodes=10, layers=1, heads=2, n_clusters=3, proj_dim=8),
        np.random.default_rng(0))
    with pytest.raises(PipelineError, match="incompatible checkpoint"):
        finetune(ds, wrong, ECFG, cfg)


def test_finetune_aborts_on_non_finite_checkpoint():
    ds = tiny_ds()
    cfg = FinetuneConfig(epochs=1, lr=1e-3, batch_size=8, repeats=1)
    broken = init_encoder_params(ECFG, np.random.default_rng(1))
    broken["embed.w"] = broken["embed.w"].copy()
    broken["embed.w"][0, 0] = np.inf
    with pytest.raises(PipelineError, match="non-finite"):
        finetune(ds, broken, ECFG, cfg)


def test_finetune_overlapping_folds_raise_pipeline_error(monkeypatch):
    # a real error, not an assert: python -O must not skip the check
    ft = importlib.import_module("braincl.pipeline.finetune")
    from braincl.data import Dataset
    real_split = ft.stratified_split

    def overlapping(ds, spec, seed):
        train, val, test = real_split(ds, spec, seed)
        return train, Dataset(val.samples + train.samples[:1]), test

    monkeypatch.setattr(ft, "stratified_split", overlapping)
    cfg = FinetuneConfig(epochs=1, lr=1e-3, batch_size=8, repeats=1)
    with pytest.raises(PipelineError, match="overlapping folds"):
        finetune(tiny_ds(), None, ECFG, cfg)


def test_pretrain_non_finite_batch_raises_pipeline_error(monkeypatch):
    pre = importlib.import_module("braincl.pipeline.pretrain")

    def diverging_step(optimizer, params, grads):
        return {name: np.full_like(arr, np.inf) for name, arr in params.items()}

    monkeypatch.setattr(pre, "opt_step", diverging_step)
    # the second batch's leaves meet the infinite weights of the first
    cfg = PretrainConfig(epochs=1, lr=0.01, batch_size=8, queue_capacity=16, momentum=0.9)
    with pytest.raises(PipelineError, match="non-finite value during pretraining "
                                            "epoch 0 batch 1"):
        pretrain(tiny_ds(), ECFG, cfg, AUG)


def test_finetune_non_finite_validation_raises_pipeline_error(monkeypatch):
    ft = importlib.import_module("braincl.pipeline.finetune")

    def diverging_step(optimizer, params, grads):
        return {name: np.full_like(arr, np.inf) for name, arr in params.items()}

    monkeypatch.setattr(ft, "opt_step", diverging_step)
    # one batch per epoch, so validation scoring meets the infinite weights first
    cfg = FinetuneConfig(epochs=1, lr=1e-3, batch_size=64, repeats=1)
    with pytest.raises(PipelineError, match="non-finite value during finetuning "
                                            "epoch 1 validation"):
        finetune(tiny_ds(), None, ECFG, cfg)


def test_freeze_encoder_leaves_encoder_untouched(monkeypatch):
    # a frozen encoder is constants in the loss graph: the only leaves that
    # require a gradient are the classifier's
    module = importlib.import_module("braincl.pipeline.finetune")
    graph_leaves = []
    backward = module.backward

    def leaves_then_backward(loss, *args, **kwargs):
        seen, todo = {id(loss)}, [loss]
        while todo:
            node = todo.pop()
            if not node.parents and node.requires_grad:
                graph_leaves.append(node.shape)
            for parent in node.parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    todo.append(parent)
        return backward(loss, *args, **kwargs)

    monkeypatch.setattr(module, "backward", leaves_then_backward)
    ds = tiny_ds()
    ckpt = init_encoder_params(ECFG, np.random.default_rng(2))
    cfg = FinetuneConfig(epochs=2, lr=1e-3, batch_size=8, repeats=1,
                         freeze_encoder=True, seed=6)
    result = finetune(ds, ckpt, ECFG, cfg)
    head_shapes = sorted(a.shape for a in init_classifier_params(ECFG, np.random.default_rng(0))
                         .values())
    steps = len(graph_leaves) // len(head_shapes)
    assert steps > 0 and sorted(graph_leaves) == sorted(head_shapes * steps)
    for name, arr in ckpt.items():
        np.testing.assert_array_equal(result.params[name], arr)
    trained = finetune(ds, ckpt, ECFG, replace(cfg, freeze_encoder=False))
    assert any(not np.array_equal(trained.params[n], ckpt[n]) for n in ckpt)


def test_parameter_leaves_adopt_their_arrays(monkeypatch, tmp_path):
    # parameter dicts hold frozen arrays, so no step or validation pass copies
    # one into a leaf: not the key encoder's, nor a frozen encoder's
    copied, adopted = [], []

    def check(arr, leaf):
        (adopted if np.shares_memory(leaf.data, arr) else copied).append(arr.shape)
        return leaf

    def checked_tensor(make):
        return lambda values, *args, **kwargs: check(values, make(values, *args, **kwargs))

    def checked_as_tensors(make):
        return lambda arrays: {k: check(arrays[k], leaf) for k, leaf in make(arrays).items()}

    for name in ("pretrain", "finetune"):
        module = importlib.import_module(f"braincl.pipeline.{name}")
        monkeypatch.setattr(module, "Tensor", checked_tensor(module.Tensor))
        monkeypatch.setattr(module, "as_tensors", checked_as_tensors(module.as_tensors))

    ds = tiny_ds()
    pre = pretrain(ds, ECFG, PretrainConfig(epochs=1, lr=0.01, batch_size=8,
                                            queue_capacity=16, momentum=0.9, seed=3), AUG)
    save_encoder_checkpoint(tmp_path / "enc.bnck", pre.encoder_params, ECFG)
    ckpt, _ = load_encoder_checkpoint(tmp_path / "enc.bnck")
    for freeze in (True, False):
        finetune(ds, ckpt, ECFG, FinetuneConfig(epochs=2, lr=1e-3, batch_size=8, repeats=1,
                                                freeze_encoder=freeze, seed=6))
    assert adopted and copied == []


# ---------------------------------------------------------------------------
# experiment protocol


def test_single_repeat_std_is_zero():
    report, results, _ = run_experiment(tiny_ds(), tiny_experiment(repeats=1))
    assert all(report.std[m] == 0.0 for m in report.std)
    assert len(results) == 1
    assert report.seeds == (5,)


def test_repeats_use_distinct_derived_seeds_and_splits():
    report, results, _ = run_experiment(tiny_ds(n=40), tiny_experiment(repeats=3))
    assert report.seeds == (5, 6, 7)
    test_folds = [frozenset(r.split_ids[2]) for r in results]
    assert len(set(test_folds)) > 1  # reshuffled per repeat


def test_experiment_regeneration_is_byte_identical(tmp_path):
    ds = tiny_ds(n=32)
    cfg = tiny_experiment(repeats=2)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        report, results, pre = run_experiment(ds, cfg)
        write_report(out, report, results, cfg, pre)
    files = sorted(p.name for p in out1.iterdir())
    assert files == sorted(p.name for p in out2.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, files, shallow=False)
    assert mismatch == [] and errors == []
    assert "report.csv" in files and "report.json" in files
    assert "config.resolved" in files and "pretrained.bnck" in files


def test_report_json_carries_full_scale_reference(tmp_path):
    import json
    ds = tiny_ds()
    cfg = tiny_experiment(repeats=1)
    report, results, pre = run_experiment(ds, cfg)
    write_report(tmp_path, report, results, cfg, pre)
    payload = json.loads((tmp_path / "report.json").read_text())
    ref = payload["reference"]
    assert ref["auroc"] == {"mean": 82.6, "std": 1.8}
    assert ref["accuracy"] == {"mean": 74.4, "std": 2.4}
    assert ref["sensitivity"] == {"mean": 66.9, "std": 8.3}
    assert ref["specificity"] == {"mean": 81.7, "std": 3.6}
    assert "ABIDE" in ref["dataset"]
    assert payload["config_fingerprint"] == report.config_fingerprint
    assert payload["rng"] == "numpy PCG64"


def test_artifact_csv_bytes_are_pinned(tmp_path):
    # hand-built results: numpy-scalar scores and labels, a NaN sensitivity,
    # a float with a long repr; every artifact CSV is compared byte for byte
    nan = float("nan")
    params = init_encoder_params(ECFG, np.random.default_rng(0))
    results = [
        FinetuneResult(params=params, best_epoch=1,
                       epoch_log=((0, 0.6931471805599453, 0.5), (1, 0.25, 0.75)),
                       test_scores=ScoredSet(scores=[0.9, 0.30000000000000004, 0.9, 0.125, 0.6],
                                             labels=[1, 0, 0, 1, 0]),
                       test_metrics={}, split_ids=(frozenset(),) * 3),
        FinetuneResult(params=params, best_epoch=0, epoch_log=((0, 1e-05, 1.0),),
                       test_scores=ScoredSet(scores=[0.0, 1.0], labels=[0, 1]),
                       test_metrics={}, split_ids=(frozenset(),) * 3),
    ]
    rows = ({"repeat": 0, "seed": 5, "best_epoch": 1, "accuracy": 0.6, "auroc": 0.75,
             "sensitivity": 0.5, "specificity": 2 / 3},
            {"repeat": 1, "seed": 6, "best_epoch": 0, "accuracy": 1.0, "auroc": 1.0,
             "sensitivity": nan, "specificity": 1.0})
    report = ExperimentReport(
        rows=rows, seeds=(5, 6), config_fingerprint="0" * 64,
        mean={"accuracy": 0.8, "auroc": 0.875, "sensitivity": nan, "specificity": 5 / 6},
        std={"accuracy": 0.2, "auroc": 0.125, "sensitivity": nan, "specificity": 1 / 6})
    pre = PretrainResult(encoder_params=params,
                         epoch_log=((0, 2.5, 8, 0.02), (1, 2.0000000000000004, 16, 0.02)))
    write_report(tmp_path, report, results, tiny_experiment(repeats=2), pre)
    write_ablation_csv(tmp_path / "ablation.csv", [
        ({"nodes_nominal": "5~200", "nodes_used": "5~10", "noise": "N(0,0.01)"}, report)])

    expected = {
        "pretrain_log.csv": "epoch,loss_mean,queue_len,lr\r\n"
                            "0,2.5,8,0.02\r\n"
                            "1,2.0000000000000004,16,0.02\r\n",
        "report.csv": "repeat,accuracy,auroc,sensitivity,specificity\r\n"
                      "0,0.6,0.75,0.5,0.6666666666666666\r\n"
                      "1,1.0,1.0,nan,1.0\r\n"
                      "mean,0.8,0.875,nan,0.8333333333333334\r\n"
                      "std,0.2,0.125,nan,0.16666666666666666\r\n",
        "finetune_log_repeat0.csv": "epoch,train_loss,val_auroc\r\n"
                                    "0,0.6931471805599453,0.5\r\n"
                                    "1,0.25,0.75\r\n",
        "finetune_log_repeat1.csv": "epoch,train_loss,val_auroc\r\n"
                                    "0,1e-05,1.0\r\n",
        "scores_repeat0.csv": "score,label\r\n"
                              "0.9,1\r\n"
                              "0.30000000000000004,0\r\n"
                              "0.9,0\r\n"
                              "0.125,1\r\n"
                              "0.6,0\r\n",
        "scores_repeat1.csv": "score,label\r\n"
                              "0.0,0\r\n"
                              "1.0,1\r\n",
        "roc.csv": "threshold,fpr,tpr\r\n"
                   "inf,0.0,0.0\r\n"
                   "0.9,0.3333333333333333,0.5\r\n"
                   "0.6,0.6666666666666666,0.5\r\n"
                   "0.30000000000000004,1.0,0.5\r\n"
                   "0.125,1.0,1.0\r\n",
        "ablation.csv": "nodes_nominal,nodes_used,noise,accuracy_mean,accuracy_std,"
                        "auroc_mean,auroc_std,sensitivity_mean,sensitivity_std,"
                        "specificity_mean,specificity_std\r\n"
                        "5~200,5~10,\"N(0,0.01)\",0.8,0.2,0.875,0.125,nan,nan,"
                        "0.8333333333333334,0.16666666666666666\r\n",
    }
    written = {name: (tmp_path / name).read_bytes() for name in expected}
    assert written == {name: text.encode() for name, text in expected.items()}


def test_experiment_with_supplied_checkpoint_skips_pretraining():
    ds = tiny_ds()
    ckpt = init_encoder_params(ECFG, np.random.default_rng(3))
    report, results, pre = run_experiment(ds, tiny_experiment(repeats=1),
                                          encoder_ckpt=ckpt)
    assert pre is None
    assert len(results) == 1


def test_partially_labeled_data_pretrains_on_everything():
    from braincl.data import Dataset, Sample
    ds = tiny_ds(n=32)
    # strip labels from a quarter of the samples; they still feed pretraining
    samples = [Sample(s.subject_id, s.connectome) if i % 4 == 0 else s
               for i, s in enumerate(ds)]
    mixed = Dataset(tuple(samples))
    report, results, pre = run_experiment(mixed, tiny_experiment(repeats=1))
    assert pre is not None
    labeled_ids = {s.subject_id for s in mixed if s.label is not None}
    train_ids, val_ids, test_ids = results[0].split_ids
    assert train_ids | val_ids | test_ids == labeled_ids


def test_train_only_scope_runs():
    ds = tiny_ds(n=40)
    cfg = replace(tiny_experiment(repeats=1), pretrain_scope="train_only")
    report, results, pre = run_experiment(ds, cfg)
    assert pre is None  # per-repeat pretraining, no shared checkpoint
    assert len(results) == 1


# ---------------------------------------------------------------------------
# config files


def test_config_defaults_scale_to_small_data():
    cfg = load_config(None, n_nodes=10)
    assert cfg.encoder.n_clusters == 10
    assert cfg.augment.k_max == 10
    assert cfg.pretrain.epochs == 900  # full-scale default preserved
    assert cfg.finetune.epochs == 200
    assert cfg.finetune.lr == 5e-5
    assert cfg.pretrain.lr == 1e-5


# every key set away from its default (n_nodes comes from the data)
EVERY_KEY = """
[model]
n_nodes = 10
layers = 1
heads = 3
d_model = 12
ffn_dim = 18
n_clusters = 6
cluster_dim = 4
proj_dim = 16

[augment]
k_min = 2
k_max = 7
delta_max = 0.25
noise = uniform(-0.1,0.1)

[pretrain]
epochs = 5
lr = 0.01
batch_size = 8
queue_capacity = 32
momentum = 0.9
temperature = 0.2
seed = 3

[finetune]
epochs = 3
lr = 0.001
weight_decay = 0.0001
batch_size = 16
repeats = 2
train_fraction = 0.6
val_fraction = 0.15
test_fraction = 0.25
freeze_encoder = true
seed = 9

[experiment]
pretrain_scope = train_only
rng = numpy PCG64
"""


def _resolved_items(text: str) -> dict[tuple[str, str], str]:
    import configparser
    parser = configparser.ConfigParser()
    parser.read_string(text)
    return {(section, key): parser.get(section, key)
            for section in parser.sections() for key in parser.options(section)}


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(EVERY_KEY)
    cfg = load_config(path, n_nodes=10)
    assert cfg.encoder.layers == 1
    assert cfg.augment.noise.kind == "uniform"
    assert cfg.pretrain.epochs == 5
    assert cfg.finetune.repeats == 2
    assert cfg.finetune.seed == 9  # the split draws from it
    assert cfg.finetune.freeze_encoder is True
    assert cfg.pretrain_scope == "train_only"

    # the file sets every resolved key, each away from its default
    resolved = resolved_text(cfg)
    items = _resolved_items(resolved)
    assert items == _resolved_items(EVERY_KEY)
    defaults = _resolved_items(resolved_text(load_config(None, n_nodes=10)))
    assert set(items) == set(defaults)
    for entry, value in items.items():
        if entry not in (("model", "n_nodes"), ("experiment", "rng")):
            assert value != defaults[entry], entry

    # resolved text parses back to an identical resolved text
    again = load_config(None, n_nodes=10, text=resolved)
    assert again == cfg
    assert resolved_text(again) == resolved
    assert fingerprint(again) == fingerprint(cfg)


DEFAULT_RESOLVED_V20 = """\
[model]
n_nodes = 20
layers = 2
heads = 4
d_model = 20
ffn_dim = 40
n_clusters = 20
cluster_dim = 8
proj_dim = 128

[augment]
k_min = 5
k_max = 20
delta_max = 0.5
noise = N(0,0.01)

[pretrain]
epochs = 900
lr = 1e-05
batch_size = 64
queue_capacity = 512
momentum = 0.999
temperature = 0.07
seed = 0

[finetune]
epochs = 200
lr = 5e-05
weight_decay = 5e-05
batch_size = 64
repeats = 5
train_fraction = 0.7
val_fraction = 0.1
test_fraction = 0.2
freeze_encoder = false
seed = 0

[experiment]
pretrain_scope = all
rng = numpy PCG64

"""


def test_default_resolved_text_and_fingerprint_are_pinned():
    # recorded fingerprints must not drift: any change here re-keys every report
    cfg = load_config(None, n_nodes=20)
    assert resolved_text(cfg) == DEFAULT_RESOLVED_V20
    assert fingerprint(cfg) == \
        "93ecc4292407a2f429990570cbcbee2252a39319468a724d82d783262d1164ac"


def test_config_rejects_unknown_sections_and_keys():
    with pytest.raises(ValueError, match=r"key \[pretrain\] learning_rate"):
        load_config(None, n_nodes=10, text="[pretrain]\nlearning_rate = 0.1\n")
    with pytest.raises(ValueError, match=r"section \[trainer\]"):
        load_config(None, n_nodes=10, text="[trainer]\nepochs = 1\n")
    with pytest.raises(ValueError, match=r"key \[finetune\] split"):
        load_config(None, n_nodes=10, text="[finetune]\nsplit = 0.5\n")
    # [DEFAULT] keys would silently apply to every section that has them
    with pytest.raises(ValueError, match=r"section \[DEFAULT\]"):
        load_config(None, n_nodes=10, text="[DEFAULT]\nseed = 3\n[pretrain]\n")
    # bad values name their key; booleans accept only configparser's spellings
    for text, prefix in (("[finetune]\nfreeze_encoder = ture\n", r"\[finetune\] freeze_encoder:"),
                         ("[pretrain]\nepochs = 1.5\n", r"\[pretrain\] epochs:"),
                         ("[augment]\nnoise = N(0,x)\n", r"\[augment\] noise:")):
        with pytest.raises(ValueError, match="^" + prefix):
            load_config(None, n_nodes=10, text=text)
    assert load_config(None, n_nodes=10,
                       text="[finetune]\nfreeze_encoder = Yes\n").finetune.freeze_encoder
    # the keys a resolved text records are accepted
    cfg = load_config(None, n_nodes=10,
                      text="[model]\nn_nodes = 10\n[experiment]\nrng = numpy PCG64\n")
    assert cfg == load_config(None, n_nodes=10)


def test_config_accepts_only_the_rng_runs_draw_from():
    assert load_config(None, n_nodes=8, text="[experiment]\nrng = numpy PCG64\n") == \
        load_config(None, n_nodes=8)
    for value in ("MT19937", "numpy  PCG64", "pcg64"):
        with pytest.raises(ValueError, match=r"^\[experiment\] rng: "):
            load_config(None, n_nodes=8, text=f"[experiment]\nrng = {value}\n")


@pytest.mark.parametrize("text, message", [
    ("[pretrain]\nmomentum = 1.5\n", r"momentum must lie in \[0, 1\], got 1.5"),
    ("[pretrain]\ntemperature = -2\n", "temperature must be positive and finite, got -2.0"),
    ("[pretrain]\nepochs = 0\nqueue_capacity = 0\n", "queue_capacity must be positive, got 0"),
    ("[finetune]\nweight_decay = -1\n", "weight_decay must be non-negative and finite, got -1.0"),
    ("[pretrain]\nlr = nan\n", "lr must be positive and finite, got nan"),
    ("[finetune]\nlr = inf\n", "lr must be positive and finite, got inf"),
], ids=["momentum", "temperature", "queue_capacity", "weight_decay", "pretrain_lr", "finetune_lr"])
def test_config_rejects_out_of_range_training_settings(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_config(None, n_nodes=10, text=text)


def test_config_rejects_mismatched_pinned_nodes(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[model]\nn_nodes = 16\n")
    with pytest.raises(ValueError, match="n_nodes"):
        load_config(path, n_nodes=10)


def test_with_seed_rewires_all_seeds():
    cfg = tiny_experiment().with_seed(42)
    assert cfg.pretrain.seed == 42
    assert cfg.finetune.seed == 42
    # the split holds fractions only and draws from finetune.seed
    assert cfg.finetune.split == tiny_experiment().finetune.split


# ---------------------------------------------------------------------------
# encoder checkpoint files


def test_encoder_checkpoint_round_trip(tmp_path):
    arrays = init_encoder_params(ECFG, np.random.default_rng(4))
    path = tmp_path / "enc.bnck"
    save_encoder_checkpoint(path, arrays, ECFG)
    loaded, cfg = load_encoder_checkpoint(path)
    assert cfg.n_nodes == 10
    assert cfg.n_clusters == 4
    for name in arrays:
        np.testing.assert_array_equal(loaded[name], arrays[name])
