"""Neural-network layer library built on :mod:`repro.autograd`."""

from .module import Module, Parameter
from .layers import (
    Linear,
    CausalConv1d,
    BatchNorm1d,
    ReLU,
    Dropout,
    AvgPool1d,
    GlobalAvgPool1d,
    Flatten,
    Identity,
    Sequential,
)
from .losses import (
    bce_with_logits,
    polyphonic_nll,
    mae_loss,
    mse_loss,
)
from .eval_utils import mean_loss_over_loader
from .stacked import (
    StackedModel,
    StackingUnsupported,
    StackedLinear,
    StackedCausalConv1d,
    StackedBatchNorm1d,
    StackedDropout,
    register_stacked,
    stack_module,
)
from .recurrent import LSTM
from .serialization import save_model, load_model, save_state, load_state
from . import init

__all__ = [
    "mean_loss_over_loader",
    "Module",
    "Parameter",
    "Linear",
    "CausalConv1d",
    "BatchNorm1d",
    "ReLU",
    "Dropout",
    "AvgPool1d",
    "GlobalAvgPool1d",
    "Flatten",
    "Identity",
    "Sequential",
    "bce_with_logits",
    "polyphonic_nll",
    "mae_loss",
    "mse_loss",
    "StackedModel",
    "StackingUnsupported",
    "StackedLinear",
    "StackedCausalConv1d",
    "StackedBatchNorm1d",
    "StackedDropout",
    "register_stacked",
    "stack_module",
    "init",
    "LSTM",
    "save_model",
    "load_model",
    "save_state",
    "load_state",
]
