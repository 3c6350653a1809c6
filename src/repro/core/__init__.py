"""PIT — the paper's primary contribution.

Public surface:

* :class:`PITConv1d` — searchable causal convolution (Eq. 5); with
  ``min_channels=`` it searches its output channels too (Sec. III-C).
* :class:`TimeMask` and the mask algebra (Eq. 2-4, Fig. 2).
* :func:`size_regularizer` / :func:`flops_regularizer` (Eq. 6).
* :class:`PITTrainer` — the 3-phase search (Algorithm 1).
* :func:`export_network` — collapse the searched net into a plain TCN.
* Search-space accounting (Sec. IV-B).
"""

from .masks import (
    TimeMask,
    num_gamma,
    gamma_index_for_lag,
    lag_gamma_indices,
    mask_from_binary_gamma,
    mask_from_dilation,
    gamma_from_dilation,
    effective_dilation,
    kept_lags,
    build_t_matrix,
    build_k_matrix,
    mask_eq4,
)
from .pit_conv import PITConv1d
from .regularizer import (
    gamma_size_coefficients,
    size_regularizer,
    flops_regularizer,
    channel_regularizer,
    pit_layers,
)
from .export import (
    NotDeployableError,
    export_conv,
    export_channel_conv,
    export_network,
    deployable_network,
    network_dilations,
    effective_parameters,
)
from .search_space import (
    layer_choices,
    search_space_size,
    enumerate_configurations,
    parameter_range,
)
from .channel_mask import ChannelMask
from .._lazy import lazy_exports

# The training side (trainer, stacked trainer, checkpoints) loads on first
# use, so importing the model and export helpers (as serving does) does
# not pull in the training stack.
__getattr__ = lazy_exports(__name__, globals(), {
    ".checkpoint": ("CheckpointError", "CheckpointState", "TrainerCheckpoint",
                    "checkpoint_file", "key_tag"),
    ".trainer": ("PITTrainer", "PITResult", "train_plain", "evaluate",
                 "TrainResult", "DivergedError", "PointTimeout",
                 "make_training_step"),
    ".stacked": ("StackedPITConv1d", "StackedPITTrainer", "StackedTimeMask",
                 "per_model_loss", "register_stacked_loss",
                 "stacked_regularizer_vector"),
})

__all__ = [
    "TimeMask",
    "num_gamma",
    "gamma_index_for_lag",
    "lag_gamma_indices",
    "mask_from_binary_gamma",
    "mask_from_dilation",
    "gamma_from_dilation",
    "effective_dilation",
    "kept_lags",
    "build_t_matrix",
    "build_k_matrix",
    "mask_eq4",
    "PITConv1d",
    "gamma_size_coefficients",
    "size_regularizer",
    "flops_regularizer",
    "pit_layers",
    "export_conv",
    "export_network",
    "deployable_network",
    "NotDeployableError",
    "network_dilations",
    "effective_parameters",
    "layer_choices",
    "search_space_size",
    "enumerate_configurations",
    "parameter_range",
    "CheckpointError",
    "CheckpointState",
    "TrainerCheckpoint",
    "checkpoint_file",
    "key_tag",
    "PITTrainer",
    "PITResult",
    "train_plain",
    "evaluate",
    "TrainResult",
    "DivergedError",
    "PointTimeout",
    "make_training_step",
    "StackedPITConv1d",
    "StackedPITTrainer",
    "StackedTimeMask",
    "per_model_loss",
    "register_stacked_loss",
    "stacked_regularizer_vector",
    "ChannelMask",
    "channel_regularizer",
    "export_channel_conv",
]
