"""Timing wrappers around the braincl layers, installed from outside.

For the length of one CLI invocation the benchmark replaces names that
``braincl.cli`` and the ``braincl.pipeline`` modules imported from each
layer with wrappers, and puts the originals back afterwards. Nothing under
``src/`` knows about it.

Two levels:

* untraced: only the once-per-epoch call (``batched_indices``) and the calls
  that open and close an optimizer step are wrapped, to find step
  boundaries and the training-loop time;
* traced: every layer call listed in ``LAYERS`` also records a span (name,
  start, end, parent, step id), and the loss handed to ``backward`` has its
  graph walked to count nodes exactly.

Spans stay in memory; the harness writes them out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Probe.spans
    step: int | None = None  # optimizer step id, None outside steps


@dataclass
class Step:
    start: float
    end: float = 0.0
    samples: int = 0
    full: bool = True  # the batch had batch_size samples
    epoch: int = 0


# span name -> the (module key, attribute) pairs whose calls it times
LAYERS = {
    "data.load_dataset": [("cli", "load_dataset")],
    "model.init_params": [("pretrain", "init_encoder_params"),
                          ("pretrain", "init_projection_params"),
                          ("finetune", "init_encoder_params"),
                          ("finetune", "init_classifier_params")],
    "model.gram_schmidt": [("pretrain", "gram_schmidt"), ("finetune", "gram_schmidt")],
    "model.features": [("pretrain", "features"), ("finetune", "features")],
    "model.heads": [("pretrain", "project"), ("finetune", "classify"),
                    ("finetune", "cross_entropy")],
    "augment.make_view_pair": [("pretrain", "make_view_pair")],
    "contrastive.info_nce": [("pretrain", "info_nce")],
    "contrastive.momentum_update": [("pretrain", "momentum_update")],
    "contrastive.queue_push": [("pretrain", "queue_push")],
    "numcore.backward": [("pretrain", "backward"), ("finetune", "backward")],
    "numcore.opt_step": [("pretrain", "opt_step"), ("finetune", "opt_step")],
    "pipeline.score_dataset": [("finetune", "score_dataset")],
    "metrics.auroc": [("finetune", "auroc")],
    "numcore.save_checkpoint": [("experiment", "save_checkpoint")],
    "pipeline.write_report": [("cli", "write_report")],
    "metrics.write_roc": [("experiment", "roc_points"), ("experiment", "write_roc_csv"),
                          ("experiment", "write_roc_svg")],
}

EPOCH_START = [("pretrain", "batched_indices"), ("finetune", "batched_indices")]
STEP_START = [("pretrain", "as_tensors"), ("finetune", "as_tensors")]
# the last call of each optimizer step
STEP_END = [("pretrain", "queue_push"), ("finetune", "opt_step")]


def count_graph_nodes(loss) -> int:
    """Distinct tensors reachable from ``loss`` through ``.parents``."""
    seen = {id(loss)}
    todo = [loss]
    while todo:
        for parent in todo.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


class Probe:
    """Records step boundaries, and with ``traced`` layer spans, for one invocation."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[Span] = []
        self.steps: list[Step] = []
        self.epochs = 0
        self.graph_nodes = 0
        self.score_samples = 0
        self._open: list[int] = []
        self._batch_sizes: list[int] = []
        self._batch_size = 0
        self._epoch_first_step = 0
        self._step_span: int | None = None
        self._current_step: int | None = None

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               step=self._current_step))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError("spans must close in reverse order of opening")

    # -- boundaries --------------------------------------------------------

    def _epoch_start(self, args, result) -> None:
        self.epochs += 1
        self._batch_size = args[1]
        self._batch_sizes = [len(batch) for batch in result]
        self._epoch_first_step = len(self.steps)

    def _step_start(self) -> None:
        samples = self._batch_sizes[len(self.steps) - self._epoch_first_step]
        self.steps.append(Step(start=time.perf_counter(), samples=samples,
                               full=samples == self._batch_size, epoch=self.epochs))
        if self.traced:
            self._current_step = len(self.steps) - 1
            self._step_span = self.open("pipeline.step")

    def _step_end(self) -> None:
        self.steps[-1].end = time.perf_counter()
        if self._step_span is not None:
            self.close(self._step_span)
            self._step_span = self._current_step = None

    # -- wrappers ----------------------------------------------------------

    def _boundary_wrapper(self, role: str, fn):
        if role == "epoch":
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self._epoch_start(args, result)
                return result
        elif role == "step_start":
            def wrapper(*args, **kwargs):
                self._step_start()
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self._step_end()
                return result
        return wrapper

    def _layer_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "model.features":
                grad = args[1]["embed.w"].requires_grad
                span_name = "model.features.grad" if grad else "model.features.nograd"
            elif name == "numcore.backward":
                idx = self.open("trace.count_graph_nodes")
                self.graph_nodes += count_graph_nodes(args[0])
                self.close(idx)
            elif name == "pipeline.score_dataset":
                self.score_samples += len(args[0])
            idx = self.open(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    @contextmanager
    def installed(self, modules: dict):
        """Swap the wrappers into ``modules`` (key -> module) and restore them."""
        saved = []

        def swap(key, attr, make):
            module = modules[key]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))

        try:
            if self.traced:
                for name, targets in LAYERS.items():
                    for key, attr in targets:
                        swap(key, attr, lambda fn, name=name: self._layer_wrapper(name, fn))
            for role, targets in (("epoch", EPOCH_START), ("step_start", STEP_START),
                                  ("step_end", STEP_END)):
                for key, attr in targets:
                    swap(key, attr, lambda fn, role=role: self._boundary_wrapper(role, fn))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
