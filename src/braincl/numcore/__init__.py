"""Minimal float64 tensor arithmetic with reverse-mode autodiff, fused
linear/attention/add-norm/readout nodes, gradient checking, SGD/Adam, and
flat binary checkpoints.

The tensor ops are the ones braincl's model, heads and losses run (see
``tensor``); reference compositions, such as a standalone layer norm and the
elementary readout, live in ``tests/``."""

from .checkpoint import CheckpointError, FORMAT_VERSION, load_checkpoint, save_checkpoint
from .gradcheck import directional_gradcheck, gradcheck
from .optim import OptimState, adam, opt_step, sgd
from .tensor import (GraphError, NonFiniteError, Tensor, add_layer_norm, attention, backward,
                     concat, freeze, linear, readout)

__all__ = [
    "Tensor", "backward", "concat", "freeze", "GraphError", "NonFiniteError",
    "linear", "attention", "add_layer_norm", "readout",
    "gradcheck", "directional_gradcheck",
    "OptimState", "sgd", "adam", "opt_step",
    "save_checkpoint", "load_checkpoint", "CheckpointError", "FORMAT_VERSION",
]
