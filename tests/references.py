"""Reference compositions of elementary numcore ops, for tests only.

numcore keeps only the ops braincl runs, so the layer norm and the stack that
the fused nodes and batched forwards are checked against are built here from
those ops. Their gradients come from the ops' own backward rules.
"""

from braincl.numcore import Tensor, concat


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, in the arithmetic ``add_layer_norm``
    uses, so its values equal the fused node's bit for bit."""
    keepdims = x.shape[:-1] + (1,)
    centered = x - x.mean(-1).reshape(keepdims)
    var = (centered * centered).mean(-1).reshape(keepdims)
    return centered * (Tensor(1.0, requires_grad=False) / (var + eps).sqrt())


def stack(tensors) -> Tensor:
    """Same-shape tensors along a new leading axis."""
    return concat([t.reshape((1,) + t.shape) for t in tensors])
