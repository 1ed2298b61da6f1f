"""Minimal float64 tensor arithmetic with reverse-mode autodiff, fused
linear/attention/add-norm nodes, gradient checking, SGD/Adam, and flat
binary checkpoints.

The tensor ops are the ones braincl's model, heads and losses run (see
``tensor``); reference compositions built from them, such as a standalone
layer norm and a stack, live in ``tests/``."""

from .checkpoint import CheckpointError, FORMAT_VERSION, load_checkpoint, save_checkpoint
from .gradcheck import directional_gradcheck, gradcheck
from .optim import OptimState, adam, opt_step, sgd
from .tensor import (GraphError, NonFiniteError, Tensor, add_layer_norm, attention, backward,
                     concat, freeze, linear)

__all__ = [
    "Tensor", "backward", "concat", "freeze", "GraphError", "NonFiniteError",
    "linear", "attention", "add_layer_norm",
    "gradcheck", "directional_gradcheck",
    "OptimState", "sgd", "adam", "opt_step",
    "save_checkpoint", "load_checkpoint", "CheckpointError", "FORMAT_VERSION",
]
