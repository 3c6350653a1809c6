"""Reverse-mode autodiff engine (the deep-learning substrate).

The paper implements PIT on top of PyTorch; this package provides the
equivalent differentiable-tensor substrate on plain numpy.  See
``DESIGN.md`` §4 for the substitution rationale.
"""

from .tensor import (
    OpDef,
    Tensor,
    apply_op,
    record_side_effect,
    mark_capture_unsafe,
    no_grad,
    is_grad_enabled,
    set_default_dtype,
    get_default_dtype,
    default_dtype_scope,
    tensor,
    zeros,
    ones,
    full,
    arange,
    randn,
    rand,
    concatenate,
    stack,
    where,
    maximum,
    minimum,
)
from .backends import current_backend
from .ops_conv import (
    conv1d_causal,
    conv1d_causal_masked,
    conv1d_causal_stacked,
    avg_pool1d,
    max_pool1d,
    global_avg_pool1d,
)
from .ops_nn import (
    softmax,
    log_softmax,
    logsumexp,
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
    "mark_capture_unsafe",
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
    "tensor",
    "zeros",
    "ones",
    "full",
    "arange",
    "randn",
    "rand",
    "concatenate",
    "stack",
    "where",
    "maximum",
    "minimum",
    "conv1d_causal",
    "conv1d_causal_masked",
    "conv1d_causal_stacked",
    "avg_pool1d",
    "max_pool1d",
    "global_avg_pool1d",
    "softmax",
    "log_softmax",
    "logsumexp",
    "binarize_ste",
    "dropout",
    "dropout_stacked",
    "numerical_gradient",
    "check_gradients",
    "GradCheckError",
]
