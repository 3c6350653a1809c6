"""Reverse-mode autodiff engine (the deep-learning substrate).

The paper implements PIT on top of PyTorch; this package provides the
equivalent differentiable-tensor substrate on plain numpy, so the
reproduction needs no deep-learning framework.
"""

from .tensor import (
    OpDef,
    Tensor,
    apply_op,
    record_side_effect,
    no_grad,
    is_grad_enabled,
    set_default_dtype,
    get_default_dtype,
    default_dtype_scope,
    concatenate,
    stack,
)
from .backends import current_backend
from .ops_conv import (
    conv1d_causal,
    conv1d_causal_path,
    conv1d_causal_masked,
    conv1d_causal_masked_stacked,
    conv1d_causal_stacked,
    avg_pool1d,
    global_avg_pool1d,
)
from .ops_nn import (
    softmax,
    batch_norm_stats,
    batch_norm,
    binarize_ste,
    dropout,
    dropout_stacked,
)
from .graph import (
    CompiledStep,
    EagerStep,
    GraphCapture,
    GraphCaptureError,
)
from .gradcheck import numerical_gradient, check_gradients, GradCheckError

__all__ = [
    "OpDef",
    "apply_op",
    "record_side_effect",
    "set_default_dtype",
    "get_default_dtype",
    "default_dtype_scope",
    "CompiledStep",
    "EagerStep",
    "GraphCapture",
    "GraphCaptureError",
    "current_backend",
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "concatenate",
    "stack",
    "conv1d_causal",
    "conv1d_causal_path",
    "conv1d_causal_masked",
    "conv1d_causal_masked_stacked",
    "conv1d_causal_stacked",
    "avg_pool1d",
    "global_avg_pool1d",
    "softmax",
    "batch_norm_stats",
    "batch_norm",
    "binarize_ste",
    "dropout",
    "dropout_stacked",
    "numerical_gradient",
    "check_gradients",
    "GradCheckError",
]
