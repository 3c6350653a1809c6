"""repro — reproduction of "Pruning In Time (PIT)" (Risso et al., DAC 2021).

PIT is a lightweight DMaskingNAS that learns the dilation factors of every
temporal convolution in a TCN during a single training run, by modeling
dilation selection as structured weight pruning along the time axis.

Package map (one subpackage per subsystem):

* :mod:`repro.autograd`   — numpy reverse-mode autodiff (the DL substrate);
* :mod:`repro.nn`         — layers, losses, module system;
* :mod:`repro.optim`      — SGD/Adam, early stopping;
* :mod:`repro.data`       — synthetic Nottingham & PPG-Dalia generators;
* :mod:`repro.core`       — PIT itself: masks, PITConv1d, regularizers,
  the 3-phase trainer, export, search-space accounting;
* :mod:`repro.models`     — ResTCN and TEMPONet seeds;
* :mod:`repro.baselines`  — ProxylessNAS (dilation supernet), random search;
* :mod:`repro.hw`         — int8 quantization + GAP8 SoC deployment model;
* :mod:`repro.evaluation` — Pareto analysis, DSE driver, reporting;
* :mod:`repro.serving`    — streaming inference and its TCP server.

The training-side re-exports (the trainers and checkpoints of
:mod:`repro.core`, the deployment flow of :mod:`repro.hw`, and the
trainer names below) load on first use, so serving imports only what it
runs.

Quickstart::

    from repro import PITTrainer, export_network
    from repro.models import temponet_seed
    from repro.data import make_ppg_dalia, DataLoader, train_val_test_split
    from repro.nn import mae_loss

    seed = temponet_seed(width_mult=0.25)
    train, val, test = train_val_test_split(make_ppg_dalia())
    trainer = PITTrainer(seed, mae_loss, lam=1e-6)
    result = trainer.fit(DataLoader(train, 32, shuffle=True), DataLoader(val, 32))
    deployable = export_network(seed)
"""

from .autograd import (
    CompiledStep,
    get_default_dtype,
    set_default_dtype,
)
from .core import (
    PITConv1d,
    TimeMask,
    export_network,
    network_dilations,
    effective_parameters,
    size_regularizer,
    flops_regularizer,
    search_space_size,
)
from ._lazy import lazy_exports

# Training-side names resolve on first use (see repro.core).
__getattr__ = lazy_exports(__name__, globals(), {
    ".core": ("PITTrainer", "PITResult", "StackedPITTrainer", "train_plain",
              "evaluate", "make_training_step"),
})

__version__ = "1.1.0"

__all__ = [
    "CompiledStep",
    "get_default_dtype",
    "set_default_dtype",
    "make_training_step",
    "PITConv1d",
    "PITTrainer",
    "PITResult",
    "StackedPITTrainer",
    "TimeMask",
    "export_network",
    "network_dilations",
    "effective_parameters",
    "size_regularizer",
    "flops_regularizer",
    "search_space_size",
    "train_plain",
    "evaluate",
    "__version__",
]
