"""The names perfbench/probe.py swaps must stay bound where it looks for
them, and the calls it counts must keep their meaning.

The benchmark wraps names that braincl modules imported (see the probe's
``LAYERS``, ``EPOCH_START``, ``STEP_START`` and ``STEP_END``); a rename
under ``src/`` would make a traced run fail or, worse, silently time
nothing. This reads perfbench/ and changes nothing in it.
"""

import importlib
import importlib.util
import inspect
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from braincl.augment import AugmentConfig
from braincl.data import Dataset, stratified_split, synth_dataset
from braincl.model import EncoderConfig, init_classifier_params, init_encoder_params
from braincl.pipeline.config import FinetuneConfig, PretrainConfig
from braincl.pipeline.finetune import SCORE_BATCH, score_dataset
from braincl.pipeline.pretrain import batched_indices

PROBE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"

# the module keys the probe uses, as the benchmark harness resolves them
MODULES = {"cli": "cli", "data": "data", "pretrain": "pipeline.pretrain",
           "finetune": "pipeline.finetune", "experiment": "pipeline.experiment"}


def load_probe():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE_PATH)
    probe = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = probe  # its dataclasses look their module up
    try:
        spec.loader.exec_module(probe)
    finally:
        del sys.modules[spec.name]
    return probe


def swapped_names():
    probe = load_probe()
    pairs = [pair for targets in probe.LAYERS.values() for pair in targets]
    pairs += probe.EPOCH_START + probe.STEP_START + probe.STEP_END
    return sorted(set(pairs))


@pytest.mark.parametrize("key, attr", swapped_names())
def test_probe_names_are_bound(key, attr):
    module = importlib.import_module(f"braincl.{MODULES[key]}")
    assert callable(getattr(module, attr, None)), f"braincl.{MODULES[key]}.{attr}"


def test_features_takes_params_second():
    # the probe reads args[1]["embed.w"].requires_grad to split grad/no-grad calls
    for key in ("pretrain", "finetune"):
        module = importlib.import_module(f"braincl.{MODULES[key]}")
        assert list(inspect.signature(module.features).parameters)[1] == "params"


def test_score_dataset_does_not_start_an_epoch(monkeypatch):
    # every batched_indices call counts as an epoch start in the benchmark
    def no_epochs(*args, **kwargs):
        raise AssertionError("score_dataset called batched_indices")

    monkeypatch.setattr(importlib.import_module("braincl.pipeline.finetune"),
                        "batched_indices", no_epochs)
    cfg = EncoderConfig(n_nodes=8, layers=1, heads=2, n_clusters=3, proj_dim=4)
    rng = np.random.default_rng(0)
    arrays = init_encoder_params(cfg, rng)
    arrays.update(init_classifier_params(cfg, rng))
    ds = synth_dataset(SCORE_BATCH + 5, n_nodes=8, length=10, seed=1)

    scored = score_dataset(ds, arrays, cfg)
    assert scored.scores.shape == (len(ds),)
    np.testing.assert_array_equal(scored.labels, ds.labels)
    # slicing is invisible: the same scores as one sample at a time
    singles = [score_dataset(Dataset((s,)), arrays, cfg).scores[0] for s in ds]
    np.testing.assert_allclose(scored.scores, singles, rtol=0, atol=1e-12)


def run_desk_pretrain(module):  # 2 epochs of batches 4, 4, 3
    cfg = EncoderConfig(n_nodes=8, layers=1, heads=2, n_clusters=3, proj_dim=4)
    ds = synth_dataset(11, n_nodes=8, length=10, seed=2)
    module.pretrain(ds, cfg, PretrainConfig(epochs=2, batch_size=4, queue_capacity=8, lr=0.01),
                    AugmentConfig(k_min=1, k_max=3))


def test_pretrain_augments_each_step_in_one_call(monkeypatch):
    # the traced augment.make_view_pair span must time a whole step's views
    module = importlib.import_module("braincl.pipeline.pretrain")
    calls = {"augment": [], "steps": 0}
    make_view_pair, opt_step = module.make_view_pair, module.opt_step

    def counted_views(conn, *args, **kwargs):
        calls["augment"].append(np.shape(conn))
        return make_view_pair(conn, *args, **kwargs)

    def counted_step(*args, **kwargs):
        calls["steps"] += 1
        return opt_step(*args, **kwargs)

    monkeypatch.setattr(module, "make_view_pair", counted_views)
    monkeypatch.setattr(module, "opt_step", counted_step)
    run_desk_pretrain(module)
    assert calls["steps"] == 6  # 2 epochs of batches 4, 4, 3
    assert calls["augment"] == [(4, 8, 8), (4, 8, 8), (3, 8, 8)] * 2


def live_at(monkeypatch, module, hook: str, kept) -> list[list[bool]]:
    """Patch ``module.backward`` to keep weakrefs to ``kept(loss, grads)`` of
    every call, and ``module.<hook>`` to record at each call, per earlier
    backward, whether any of them is alive."""
    refs, live = [], []
    backward, hooked = module.backward, getattr(module, hook)

    def tracked_backward(loss, *args, **kwargs):
        grads = backward(loss, *args, **kwargs)
        refs.append([weakref.ref(obj) for obj in kept(loss, grads)])
        return grads

    def checked(*args, **kwargs):
        live.append([any(ref() is not None for ref in step) for step in refs])
        return hooked(*args, **kwargs)

    monkeypatch.setattr(module, "backward", tracked_backward)
    monkeypatch.setattr(module, hook, checked)
    return live


def losses(loss, grads):
    return [loss]


def gradients(loss, grads):
    return list(grads.values())


def test_pretrain_frees_each_step_graph_before_the_next(monkeypatch):
    # a step's graph must be gone before the next step builds its own
    module = importlib.import_module("braincl.pipeline.pretrain")
    live = live_at(monkeypatch, module, "make_view_pair", losses)
    run_desk_pretrain(module)
    assert live == [[False] * step for step in range(6)]


def test_pretrain_frees_each_step_gradients_before_the_next(monkeypatch):
    module = importlib.import_module("braincl.pipeline.pretrain")
    live = live_at(monkeypatch, module, "make_view_pair", gradients)
    run_desk_pretrain(module)
    assert live == [[False] * step for step in range(6)]


def finetune_liveness(monkeypatch, kept) -> list[list[bool]]:
    module = importlib.import_module("braincl.pipeline.finetune")
    live = live_at(monkeypatch, module, "as_tensors", kept)
    cfg = EncoderConfig(n_nodes=8, layers=1, heads=2, n_clusters=3, proj_dim=4)
    ds = synth_dataset(40, n_nodes=8, length=10, seed=3)
    module.finetune(ds, None, cfg, FinetuneConfig(epochs=2, lr=1e-3, batch_size=8, repeats=1))
    assert len(live) >= 4
    return live


def test_finetune_frees_each_step_graph_before_the_next(monkeypatch):
    live = finetune_liveness(monkeypatch, losses)
    assert live == [[False] * step for step in range(len(live))]


def test_finetune_frees_each_step_gradients_before_the_next(monkeypatch):
    live = finetune_liveness(monkeypatch, gradients)
    assert live == [[False] * step for step in range(len(live))]


def test_pretrain_runs_the_key_encoder_before_the_query_encoder(monkeypatch):
    # the key forward keeps no graph, so it must finish before the query graph exists
    module = importlib.import_module("braincl.pipeline.pretrain")
    calls, features, as_tensors = [], module.features, module.as_tensors

    def recorded_features(conn, params, *args, **kwargs):
        calls[-1].append(params["embed.w"].requires_grad)
        return features(conn, params, *args, **kwargs)

    def step_start(*args, **kwargs):
        calls.append([])
        return as_tensors(*args, **kwargs)

    monkeypatch.setattr(module, "features", recorded_features)
    monkeypatch.setattr(module, "as_tensors", step_start)
    run_desk_pretrain(module)
    assert calls == [[False, True]] * 6


def test_desk_pretrain_step_graph_stays_fused(monkeypatch):
    # one linear per affine map that no residual add follows, its leaky ReLU
    # folded in, one attention node per layer, one linear_add_layer_norm per
    # residual branch's last map, add and norm, one readout node, and one
    # node each for the projection's unit_rows, InfoNCE's contrastive_logits
    # and its mean_nll: a per-head loop or a matmul-plus-add composition would
    # roughly double this count, a readout split into its elementary ops would
    # add 6 nodes, the normalization and loss built from elementary ops read
    # 80 at the empty-queue step and 83 at the next, and a node of its own for
    # each leaky ReLU and each residual branch's last map read 70
    module = importlib.import_module("braincl.pipeline.pretrain")
    probe = load_probe()
    counts = []
    backward = module.backward

    def counted_backward(loss, *args, **kwargs):
        counts.append(probe.count_graph_nodes(loss))
        return backward(loss, *args, **kwargs)

    monkeypatch.setattr(module, "backward", counted_backward)
    cfg = EncoderConfig(n_nodes=20, n_clusters=10, proj_dim=32)  # the criterion-7 desk model
    ds = synth_dataset(64, n_nodes=20, length=30, seed=4)
    module.pretrain(ds, cfg, PretrainConfig(epochs=1, batch_size=32, queue_capacity=128,
                                            lr=0.05, momentum=0.99),
                    AugmentConfig(k_min=2, k_max=5))
    assert len(counts) == 2  # the second step scores against a non-empty queue
    assert max(counts) <= 63, counts


def test_perfbench_selftest_passes():
    # a rename under src/ or a broken node counter fails here, not in the benchmark
    root = PROBE_PATH.parents[1]
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr


def tiny_finetune():  # 2 epochs over the train fold of 40 subjects, batch 8
    module = importlib.import_module("braincl.pipeline.finetune")
    cfg = EncoderConfig(n_nodes=8, layers=1, heads=2, n_clusters=3, proj_dim=4)
    ds = synth_dataset(40, n_nodes=8, length=10, seed=3)
    fcfg = FinetuneConfig(epochs=2, lr=1e-3, batch_size=8, repeats=1)
    module.finetune(ds, None, cfg, fcfg)
    train, _, _ = stratified_split(ds.labeled(), fcfg.split, fcfg.seed)
    return [min(8, len(train) - start) for start in range(0, len(train), 8)], 8


def tiny_pretrain():
    run_desk_pretrain(importlib.import_module("braincl.pipeline.pretrain"))
    return [4, 4, 3], 4


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("run", [tiny_pretrain, tiny_finetune], ids=["pretrain", "finetune"])
def test_probe_sees_one_step_per_batch_and_one_epoch_per_epoch(run, traced):
    probe = load_probe().Probe(traced=traced)
    modules = {key: importlib.import_module(f"braincl.{name}") for key, name in MODULES.items()}
    with probe.installed(modules):
        batches, batch_size = run()
    assert probe.epochs == 2
    assert [step.samples for step in probe.steps] == batches * 2
    assert [step.full for step in probe.steps] == [n == batch_size for n in batches] * 2
    assert [step.epoch for step in probe.steps] == [1] * len(batches) + [2] * len(batches)
    assert all(step.end > step.start for step in probe.steps)
    if traced:
        assert probe.graph_nodes > 0
        assert sum(span.name == "pipeline.step" for span in probe.spans) == len(probe.steps)


@pytest.mark.parametrize("run", [tiny_pretrain, tiny_finetune], ids=["pretrain", "finetune"])
def test_both_verbs_start_every_epoch_through_the_one_driver(monkeypatch, run):
    pre, ft = (importlib.import_module(f"braincl.{MODULES[key]}")
               for key in ("pretrain", "finetune"))
    starts = []

    def counted(order, batch_size):
        starts.append(batch_size)
        return batched_indices(order, batch_size)

    def unused(*args, **kwargs):
        raise AssertionError("an epoch started outside pretrain.train_epochs")

    monkeypatch.setattr(pre, "batched_indices", counted)
    monkeypatch.setattr(ft, "batched_indices", unused)
    _, batch_size = run()
    assert starts == [batch_size] * 2
