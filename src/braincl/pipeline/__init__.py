"""Orchestration: pretraining, finetuning, repeated experiments, reports."""

from .config import (
    ExperimentConfig,
    FinetuneConfig,
    PretrainConfig,
    fingerprint,
    load_config,
    resolved_text,
)
from .experiment import (
    ABLATION_NODE_RANGES,
    ABLATION_NOISES,
    FULL_SCALE_REFERENCE,
    ExperimentReport,
    ablation_grid,
    load_encoder_checkpoint,
    run_experiment,
    save_encoder_checkpoint,
    write_ablation_csv,
    write_pretrain_artifacts,
    write_report,
)
from .finetune import FinetuneResult, check_compatible, finetune, score_dataset, summarize_scores
from .pretrain import PipelineError, PretrainResult, non_finite_guard, pretrain

__all__ = [
    "PretrainConfig", "FinetuneConfig", "ExperimentConfig",
    "load_config", "resolved_text", "fingerprint",
    "pretrain", "PretrainResult", "PipelineError", "non_finite_guard",
    "finetune", "FinetuneResult", "check_compatible", "score_dataset", "summarize_scores",
    "run_experiment", "ExperimentReport", "write_report", "write_pretrain_artifacts",
    "ablation_grid", "write_ablation_csv",
    "ABLATION_NODE_RANGES", "ABLATION_NOISES", "FULL_SCALE_REFERENCE",
    "save_encoder_checkpoint", "load_encoder_checkpoint",
]
