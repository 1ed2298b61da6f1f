"""Float64 tensors with reverse-mode autodiff over fused graph nodes
(linear with an optional leaky ReLU, attention, linear-add-norm, readout,
row normalization, contrastive logits, mean negative log-likelihood),
gradient checking, SGD/Adam, and flat binary checkpoints.

The tensor ops are the ones braincl's model, heads and losses run (see
``tensor``); the elementary ops and the compositions the fused nodes replace
(a standalone leaky ReLU and add-norm, a layer norm, the elementary readout,
the losses) live in ``tests/references.py``."""

from .checkpoint import CheckpointError, FORMAT_VERSION, load_checkpoint, save_checkpoint
from .gradcheck import directional_gradcheck, gradcheck
from .optim import OptimState, adam, opt_step, sgd
from .tensor import (GraphError, NonFiniteError, Tensor, attention, backward, contrastive_logits,
                     freeze, linear, linear_add_layer_norm, mean_nll, readout, unit_rows)

__all__ = [
    "Tensor", "backward", "freeze", "GraphError", "NonFiniteError",
    "linear", "attention", "linear_add_layer_norm", "readout",
    "unit_rows", "contrastive_logits", "mean_nll",
    "gradcheck", "directional_gradcheck",
    "OptimState", "sgd", "adam", "opt_step",
    "save_checkpoint", "load_checkpoint", "CheckpointError", "FORMAT_VERSION",
]
