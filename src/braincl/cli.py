"""Command-line interface.

Verbs: synth, ingest, augment, pretrain, finetune, evaluate, roc, describe,
ablate. Every run takes an optional key=value config file plus --seed and
--out-dir style flags and writes its resolved configuration, logs, and
artifacts into the output directory.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .augment import AugmentConfig, NoiseSpec, make_view_pair
from .blas import pin_one_blas_thread
from .data import (
    ClassSpec,
    DatasetError,
    load_dataset,
    read_connectome_file,
    synth_dataset,
    write_connectome_file,
    write_dataset,
)
from .heap import fix_malloc_thresholds
from .metrics import RocCurve, ScoredSet, roc_points, write_roc_csv, write_roc_svg
from .model import (
    init_classifier_params,
    init_encoder_params,
    init_projection_params,
    parameter_counts,
)
from .pipeline import (
    PipelineError,
    ablation_grid,
    check_compatible,
    fingerprint,
    load_config,
    load_encoder_checkpoint,
    non_finite_guard,
    pretrain,
    run_experiment,
    score_dataset,
    summarize_scores,
    write_ablation_csv,
    write_pretrain_artifacts,
    write_report,
)
from .tables import write_csv


class CliError(Exception):
    pass


def _fail(message: str):
    raise CliError(message)


def _load_experiment_config(args, n_nodes: int):
    cfg = load_config(getattr(args, "config", None), n_nodes=n_nodes)
    if getattr(args, "seed", None) is not None:
        cfg = cfg.with_seed(args.seed)
    if getattr(args, "repeats", None) is not None:
        cfg = replace(cfg, finetune=replace(cfg.finetune, repeats=args.repeats))
    return cfg


# ---------------------------------------------------------------------------
# verbs


def cmd_synth(args) -> None:
    spec = ClassSpec(separation=args.separation, blocks=args.blocks,
                     noise_sd=args.noise_sd, sample_jitter=args.sample_jitter)
    ds = synth_dataset(args.n, args.nodes, args.length, spec=spec, seed=args.seed or 0)
    write_dataset(args.out, ds, as_time_series=not args.matrices)
    print(f"wrote {len(ds)} samples (V={ds.n_nodes}) to {args.out}")


def cmd_ingest(args) -> None:
    ds = load_dataset(args.data)
    print(f"samples: {len(ds)}")
    print(f"nodes per sample: {ds.n_nodes}")
    print(f"labeled: {len(ds.labeled())} ({ds.labels.count(1)} positive, "
          f"{ds.labels.count(0)} control)")
    root = Path(args.data)
    print(f"files: {len(list(root.glob('*.ts.csv')))} *.ts.csv, "
          f"{len(list(root.glob('*.conn.csv')))} *.conn.csv")


def cmd_augment(args) -> None:
    conn = read_connectome_file(Path(args.input))
    cfg = AugmentConfig(k_min=args.k_min, k_max=min(args.k_max, len(conn)),
                        delta_max=args.delta_max, noise=NoiseSpec.parse(args.noise))
    rng = np.random.default_rng(args.seed or 0)
    views = dict(zip(("view1", "view2"), make_view_pair(conn, cfg, rng)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, view in views.items():
        write_connectome_file(out / f"{name}.conn.csv", view)
    iu = np.triu_indices(len(conn), k=1)
    deltas = ((name, np.abs(view - conn)[iu]) for name, view in views.items())
    write_csv(out / "diff.csv", ["view", "entries_changed", "mean_abs_delta"],
              ([name, (delta > 0).sum(), delta.mean()] for name, delta in deltas))
    print(f"wrote views and diff summary to {out}")


def cmd_pretrain(args) -> None:
    ds = load_dataset(args.data)
    cfg = _load_experiment_config(args, ds.n_nodes)
    result = pretrain(ds, cfg.encoder, cfg.pretrain, cfg.augment)
    out = Path(args.out)
    write_pretrain_artifacts(out, cfg, result)
    final = result.epoch_log[-1][1] if result.epoch_log else float("nan")
    print(f"pretrained {cfg.pretrain.epochs} epochs on {len(ds)} samples; "
          f"final epoch mean loss {final:.4f}")
    print(f"checkpoint: {out / 'pretrained.bnck'}")


def cmd_finetune(args) -> None:
    ds = load_dataset(args.data)
    cfg = _load_experiment_config(args, ds.n_nodes)
    encoder_ckpt = None
    if args.ckpt is not None:
        encoder_ckpt, ckpt_cfg = load_encoder_checkpoint(args.ckpt)
        if any(k.startswith("classifier.") for k in encoder_ckpt):
            _fail(f"{args.ckpt} holds a classification head; "
                  f"pass a pretrained encoder checkpoint")
        # proj_dim sizes the pretraining projection head, which the checkpoint lacks
        run = asdict(cfg.encoder)
        differ = [f"{name} {value} in the checkpoint, {run[name]} in this run"
                  for name, value in asdict(ckpt_cfg).items()
                  if name != "proj_dim" and value != run[name]]
        if differ:
            _fail(f"{args.ckpt}: encoder config differs: " + "; ".join(differ))
    report, results, pre = run_experiment(ds, cfg, encoder_ckpt=encoder_ckpt)
    write_report(args.out, report, results, cfg, pre)
    print(f"config fingerprint: {report.config_fingerprint}")
    for row in report.rows:
        print(f"repeat {row['repeat']}: auroc {row['auroc']:.4f} "
              f"accuracy {row['accuracy']:.4f}")
    print(f"mean auroc {report.mean['auroc']:.4f} ± {report.std['auroc']:.4f}; "
          f"mean accuracy {report.mean['accuracy']:.4f} ± {report.std['accuracy']:.4f}")
    print(f"report: {Path(args.out) / 'report.csv'}")


def cmd_evaluate(args) -> None:
    ds = load_dataset(args.data).labeled()
    if len(ds) == 0:
        _fail("evaluation needs labeled samples")
    arrays, cfg = load_encoder_checkpoint(args.model)
    if not any(k.startswith("classifier.") for k in arrays):
        _fail("checkpoint has no classification head; pass a finetuned model")
    if ds.n_nodes != cfg.n_nodes:
        _fail(f"model expects V={cfg.n_nodes}, data has V={ds.n_nodes}")
    rng = np.random.default_rng(0)  # only the names and shapes are compared
    reference = init_encoder_params(cfg, rng)
    reference.update(init_classifier_params(cfg, rng))
    check_compatible(arrays, reference)
    with non_finite_guard("evaluation scoring"):
        scores = score_dataset(ds, arrays, cfg)
    metrics = summarize_scores(scores)
    for name, value in metrics.items():
        print(f"{name}: {value:.4f}")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "scores.csv", ["subject_id", "score", "label"],
                  zip(ds.ids, scores.scores, ds.labels))
        curve = roc_points(scores)
        write_roc_csv(out / "roc.csv", curve)
        write_roc_svg(out / "roc.svg", {"evaluation": curve})
        print(f"wrote scores and ROC artifacts to {out}")


def _read_roc_curve(path: Path) -> RocCurve:
    scores, labels = [], []
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"score", "label"} <= set(reader.fieldnames):
            _fail(f"{path}: expected columns score,label")
        for i, row in enumerate(reader):
            try:  # a short row reads its missing fields as None
                scores.append(float(row["score"]))
                labels.append(int(row["label"]))
            except (TypeError, ValueError):
                _fail(f"{path} row {i}: want a number score and an integer label, got "
                      f"score {row['score']!r}, label {row['label']!r}")
    try:
        return roc_points(ScoredSet(scores=np.array(scores), labels=np.array(labels)))
    except ValueError as exc:
        _fail(f"{path}: {exc}")


def cmd_roc(args) -> None:
    # every curve is named by its file's stem, so two files must not share one
    paths: dict[str, Path] = {}
    for path in map(Path, args.scores):
        if path.stem in paths:
            _fail(f"{paths[path.stem]} and {path} would both write {path.stem}.roc.csv; "
                  f"give the score files different names")
        paths[path.stem] = path
    # read every file before making the output directory, so a bad one leaves none
    curves = {stem: _read_roc_curve(path) for stem, path in paths.items()}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for stem, curve in curves.items():
        write_roc_csv(out / f"{stem}.roc.csv", curve)
        print(f"{stem}: auroc {curve.area():.4f}")
    write_roc_svg(out / "roc.svg", curves)
    print(f"wrote {out / 'roc.svg'}")


def cmd_describe(args) -> None:
    if args.ckpt is not None:
        arrays, cfg = load_encoder_checkpoint(args.ckpt)
        print(f"checkpoint: {args.ckpt}")
        print("configuration: " + ", ".join(f"{k}={v}" for k, v in sorted(asdict(cfg).items())))
        counts = parameter_counts(arrays)
    else:
        if args.nodes is None:
            _fail("describe needs --ckpt or --nodes (with optional --config)")
        cfg = load_config(args.config, n_nodes=args.nodes)
        print(f"config fingerprint: {fingerprint(cfg)}")
        rng = np.random.default_rng(0)
        arrays = init_encoder_params(cfg.encoder, rng)
        arrays.update(init_classifier_params(cfg.encoder, rng))
        arrays.update(init_projection_params(cfg.encoder, rng))
        counts = parameter_counts(arrays)
    total = sum(counts.values())
    for group in sorted(counts):
        print(f"{group:12s} {counts[group]:10d}")
    print(f"{'total':12s} {total:10d}")


def cmd_ablate(args) -> None:
    ds = load_dataset(args.data)
    cfg = _load_experiment_config(args, ds.n_nodes)
    out = Path(args.out)
    write_pretrain_artifacts(out, cfg, None)
    cells = []
    for info, report in ablation_grid(ds, cfg):
        cells.append((info, report))
        print(f"nodes {info['nodes_used']:7s} noise {info['noise']:18s} "
              f"auroc {report.mean['auroc']:.4f} ± {report.std['auroc']:.4f}")
    write_ablation_csv(out / "ablation.csv", cells)
    print(f"wrote {out / 'ablation.csv'} ({len(cells)} cells)")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braincl",
        description="Contrastive self-supervised pretraining and supervised "
                    "evaluation of a connectome graph transformer.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--nodes", type=int, default=20)
    p.add_argument("--length", type=int, default=30)
    p.add_argument("--separation", type=float, default=ClassSpec.separation)
    p.add_argument("--blocks", type=int, default=ClassSpec.blocks)
    p.add_argument("--noise-sd", type=float, default=ClassSpec.noise_sd)
    p.add_argument("--sample-jitter", type=float, default=ClassSpec.sample_jitter)
    p.add_argument("--matrices", action="store_true",
                   help="write connectome files instead of time series")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="load and validate a dataset directory")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("augment", help="write two augmented views of one connectome")
    p.add_argument("--input", required=True, help="a .conn.csv file")
    p.add_argument("--out", required=True)
    p.add_argument("--k-min", type=int,
                   help="left out: 5, or the clamped --k-max if smaller (AugmentConfig's rule)")
    p.add_argument("--k-max", type=int, default=AugmentConfig.k_max)
    p.add_argument("--delta-max", type=float, default=AugmentConfig.delta_max)
    p.add_argument("--noise", default=str(AugmentConfig().noise))
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("pretrain", help="contrastive pretraining")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="supervised finetuning experiment")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", help="pretrained encoder checkpoint")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--repeats", type=int)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="score a finetuned model on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="model checkpoint with head")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("roc", help="ROC curves from score CSVs")
    p.add_argument("--scores", nargs="+", required=True,
                   help="CSV files with score,label columns")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("describe", help="parameter counts per component")
    p.add_argument("--ckpt")
    p.add_argument("--config")
    p.add_argument("--nodes", type=int)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("ablate", help="run the augmentation knob grid")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    pin_one_blas_thread()  # artifacts must not depend on the BLAS thread count
    fix_malloc_thresholds()  # a step's freed pages stay mapped for the next one
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (CliError, DatasetError, PipelineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
