"""Repeated-experiment protocol and artifact emission.

One experiment = optional contrastive pretraining followed by `repeats`
finetuning runs, each with its own derived seed (so the stratified split
reshuffles per repeat), aggregated as mean and population standard
deviation per metric. Every artifact is a pure function of (config, seed):
regenerating a report from its recorded seeds reproduces it byte for byte.
Every CSV artifact is written by ``braincl.tables.write_csv``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from ..augment import NoiseSpec
from ..data import Dataset, stratified_split
from ..metrics import roc_points, write_roc_csv, write_roc_svg
from ..model import EncoderConfig
from ..numcore import load_checkpoint, save_checkpoint
from ..tables import write_csv
from .config import RNG, ExperimentConfig, fingerprint, resolved_text
from .finetune import FinetuneResult, finetune
from .pretrain import PipelineError, PretrainResult, pretrain

__all__ = ["ExperimentReport", "run_experiment", "write_report", "write_pretrain_artifacts",
           "save_encoder_checkpoint", "load_encoder_checkpoint",
           "ablation_grid", "write_ablation_csv",
           "ABLATION_NODE_RANGES", "ABLATION_NOISES",
           "FULL_SCALE_REFERENCE"]

METRIC_NAMES = ("accuracy", "auroc", "sensitivity", "specificity")

# Published full-scale results on the 1,009-sample ABIDE corpus; recorded in
# every report for context, never asserted at desk scale.
FULL_SCALE_REFERENCE = {
    "dataset": "ABIDE (1009 samples, 200 nodes)",
    "accuracy": {"mean": 74.4, "std": 2.4},
    "auroc": {"mean": 82.6, "std": 1.8},
    "sensitivity": {"mean": 66.9, "std": 8.3},
    "specificity": {"mean": 81.7, "std": 3.6},
}


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[dict, ...]  # one dict per repeat
    mean: dict[str, float]
    std: dict[str, float]
    seeds: tuple[int, ...]
    config_fingerprint: str


def _aggregate(rows: list[dict]) -> tuple[dict, dict]:
    mean, std = {}, {}
    for name in METRIC_NAMES:
        values = np.array([row[name] for row in rows])
        mean[name] = float(values.mean())
        std[name] = float(values.std())  # population std; zero for one repeat
    return mean, std


def run_experiment(ds: Dataset, cfg: ExperimentConfig,
                   encoder_ckpt: dict[str, np.ndarray] | None = None,
                   ) -> tuple[ExperimentReport, list[FinetuneResult], PretrainResult | None]:
    """The full protocol; returns the report plus per-repeat artifacts.

    With ``encoder_ckpt`` given, that checkpoint seeds every repeat and no
    pretraining runs; otherwise pretraining follows ``cfg.pretrain_scope``.
    Pretraining consumes every sample, labeled or not; finetuning sees only
    the labeled ones.
    """
    labeled = ds.labeled()
    shared_pretrain: PretrainResult | None = None
    if encoder_ckpt is None and cfg.pretrain_scope == "all" and cfg.pretrain.epochs > 0:
        shared_pretrain = pretrain(ds, cfg.encoder, cfg.pretrain, cfg.augment)

    rows: list[dict] = []
    results: list[FinetuneResult] = []
    seeds: list[int] = []
    for repeat in range(cfg.finetune.repeats):
        seed = cfg.finetune.seed + repeat
        seeds.append(seed)
        fcfg = replace(cfg.finetune, seed=seed)
        if encoder_ckpt is not None:
            ckpt = encoder_ckpt
        elif cfg.pretrain_scope == "train_only" and cfg.pretrain.epochs > 0:
            train_fold, _, _ = stratified_split(labeled, fcfg.split, seed)
            pcfg = replace(cfg.pretrain, seed=cfg.pretrain.seed + repeat)
            ckpt = pretrain(train_fold, cfg.encoder, pcfg, cfg.augment).encoder_params
        else:
            ckpt = shared_pretrain.encoder_params if shared_pretrain else None
        result = finetune(labeled, ckpt, cfg.encoder, fcfg)
        results.append(result)
        rows.append({"repeat": repeat, "seed": seed,
                     "best_epoch": result.best_epoch, **result.test_metrics})

    mean, std = _aggregate(rows)
    report = ExperimentReport(rows=tuple(rows), mean=mean, std=std,
                              seeds=tuple(seeds), config_fingerprint=fingerprint(cfg))
    return report, results, shared_pretrain


# ---------------------------------------------------------------------------
# checkpoint files (encoder weights + the config scalars needed to rebuild)


def save_encoder_checkpoint(path, arrays: dict[str, np.ndarray], cfg: EncoderConfig) -> None:
    payload = {f"param.{name}": arr for name, arr in arrays.items()}
    payload.update((f"meta.{name}", np.array(float(value)))
                   for name, value in asdict(cfg).items())
    save_checkpoint(path, payload)


def load_encoder_checkpoint(path) -> tuple[dict[str, np.ndarray], EncoderConfig]:
    raw = load_checkpoint(path)
    for name, arr in raw.items():
        if not np.isfinite(arr).all():
            raise PipelineError(f"{path}: entry {name!r} holds non-finite values")
    arrays = {name[len("param."):]: arr for name, arr in raw.items()
              if name.startswith("param.")}
    meta = {name[len("meta."):]: arr for name, arr in raw.items() if name.startswith("meta.")}
    if not arrays or set(meta) != {f.name for f in fields(EncoderConfig)}:
        raise PipelineError(f"{path}: not an encoder checkpoint")
    for name, arr in meta.items():
        if arr.shape or not float(arr).is_integer():
            raise PipelineError(f"{path}: entry 'meta.{name}' is not an integer scalar")
    return arrays, EncoderConfig(**{name: int(arr) for name, arr in meta.items()})


# ---------------------------------------------------------------------------
# artifact writing


def write_pretrain_artifacts(out_dir, cfg: ExperimentConfig,
                             result: PretrainResult | None) -> None:
    """config.resolved, plus pretrain_log.csv and pretrained.bnck if pretrained."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.resolved").write_text(resolved_text(cfg))
    if result is None:
        return
    write_csv(out / "pretrain_log.csv", ["epoch", "loss_mean", "queue_len", "lr"],
              result.epoch_log)
    save_encoder_checkpoint(out / "pretrained.bnck", result.encoder_params, cfg.encoder)


def write_report(out_dir, report: ExperimentReport, results: list[FinetuneResult],
                 cfg: ExperimentConfig, pretrain_result: PretrainResult | None) -> None:
    """Pretrain artifacts, report.csv/json, logs, per-repeat scores and models."""
    write_pretrain_artifacts(out_dir, cfg, pretrain_result)
    out = Path(out_dir)

    columns = ("repeat", *METRIC_NAMES)
    summary = [*report.rows, {"repeat": "mean", **report.mean}, {"repeat": "std", **report.std}]
    write_csv(out / "report.csv", columns, ([row[c] for c in columns] for row in summary))

    (out / "report.json").write_text(json.dumps({
        "config_fingerprint": report.config_fingerprint,
        "rng": RNG,
        "seeds": list(report.seeds),
        "rows": list(report.rows),
        "mean": report.mean,
        "std": report.std,
        "reference": FULL_SCALE_REFERENCE,
    }, indent=2, sort_keys=True) + "\n")

    curves = {}
    for i, result in enumerate(results):
        write_csv(out / f"finetune_log_repeat{i}.csv", ["epoch", "train_loss", "val_auroc"],
                  result.epoch_log)
        write_csv(out / f"scores_repeat{i}.csv", ["score", "label"],
                  zip(result.test_scores.scores, result.test_scores.labels))
        save_encoder_checkpoint(out / f"model_repeat{i}.bnck", result.params, cfg.encoder)
        curves[f"repeat{i}"] = roc_points(result.test_scores)

    if curves:
        first = next(iter(curves.values()))
        write_roc_csv(out / "roc.csv", first)
        write_roc_svg(out / "roc.svg", curves)


# ---------------------------------------------------------------------------
# ablation grid

ABLATION_NODE_RANGES = ((0, 0), (5, 20), (5, 200))
ABLATION_NOISES = ("none", "uniform(-0.1,0.1)", "N(0,0.1)", "N(0,0.01)")


def ablation_grid(ds: Dataset, cfg: ExperimentConfig):
    """Run every (node range x noise) cell of the published knob grid.

    Node counts are clamped to the dataset's V so the full-range cell stays
    runnable at desk scale; each emitted row records both the nominal and
    the clamped range. Yields (cell_info, report) pairs.
    """
    n_nodes = ds.n_nodes
    for k_min, k_max in ABLATION_NODE_RANGES:
        used_min, used_max = min(k_min, n_nodes), min(k_max, n_nodes)
        for noise_text in ABLATION_NOISES:
            augment = replace(cfg.augment, k_min=used_min, k_max=used_max,
                              noise=NoiseSpec.parse(noise_text))
            cell_cfg = replace(cfg, augment=augment)
            report, _, _ = run_experiment(ds, cell_cfg)
            yield ({"nodes_nominal": f"{k_min}~{k_max}",
                    "nodes_used": f"{used_min}~{used_max}",
                    "noise": noise_text}, report)


def write_ablation_csv(path, cells: list[tuple[dict, ExperimentReport]]) -> None:
    info_keys = ("nodes_nominal", "nodes_used", "noise")
    header = [*info_keys] + [f"{m}_{stat}" for m in METRIC_NAMES for stat in ("mean", "std")]
    write_csv(path, header, ([info[k] for k in info_keys]
                             + [stat[m] for m in METRIC_NAMES for stat in (report.mean, report.std)]
                             for info, report in cells))
