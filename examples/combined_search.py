"""Combined dilation + channel search (the paper's Sec. III-C extension).

The paper notes PIT "can be easily integrated with other DMaskingNAS
techniques ... e.g. [MorphNet] to tune the number of channels in each
layer, simply by adding further regularization terms and masking
parameters".  This example does exactly that: a small TCN whose layers are
:class:`repro.core.PITConv1d` built with ``min_channels=`` — searchable in
time (dilation) *and* width (output channels) — trained with both Lasso
terms at once.

Run with::

    python examples/combined_search.py
"""

import numpy as np

from repro.autograd import Tensor
from repro.core import PITConv1d, PITTrainer, effective_parameters, pit_layers
from repro.data import DataLoader, PPGDaliaConfig, make_ppg_dalia, train_val_test_split
from repro.nn import AvgPool1d, CausalConv1d, Flatten, Linear, Module, ReLU, Sequential
from repro.nn import mae_loss


class CombinedSearchTCN(Module):
    """A TEMPONet-flavored stack with combined-searchable convolutions."""

    def __init__(self, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.features = Sequential(
            PITConv1d(4, 16, rf_max=9, min_channels=2, rng=rng), ReLU(),
            AvgPool1d(4),                                     # 256 -> 64
            PITConv1d(16, 32, rf_max=17, min_channels=2, rng=rng), ReLU(),
            AvgPool1d(4),                                     # 64 -> 16
        )
        self.head = Sequential(
            Flatten(),
            Linear(32 * 16, 32, rng=rng), ReLU(),
            Linear(32, 1, rng=rng),
        )
        self.head[-1].bias.data[...] = 100.0  # start at the mean HR

    def forward(self, x: Tensor) -> Tensor:
        return self.head(self.features(x))


def main():
    config = PPGDaliaConfig(num_subjects=3, seconds_per_subject=60)
    dataset = make_ppg_dalia(config, seed=0)
    train, val, _ = train_val_test_split(dataset, rng=np.random.default_rng(0))
    train_loader = DataLoader(train, 16, shuffle=True, rng=np.random.default_rng(1))
    val_loader = DataLoader(val, 16)

    model = CombinedSearchTCN(seed=0)
    combined = [layer for layer in pit_layers(model)
                if layer.channel_mask is not None]
    print(f"seed: {model.count_parameters()} parameters, "
          f"{len(combined)} combined-search convs")

    trainer = PITTrainer(
        model, mae_loss,
        lam=0.05,           # time-axis (dilation) Lasso, Eq. 6
        channel_lam=0.002,  # width-axis (channel) Lasso, Sec. III-C
        gamma_lr=0.05, warmup_epochs=2, max_prune_epochs=8, prune_patience=6,
        finetune_epochs=4, finetune_patience=4, verbose=True)
    result = trainer.fit(train_loader, val_loader)

    print(f"\ndilations found : {result.dilations}")
    for i, layer in enumerate(combined):
        print(f"conv{i} channels  : {layer.alive_channels()}/{layer.out_channels} alive")
    print(f"validation MAE  : {result.best_val:.2f} BPM")
    print(f"effective params: {effective_parameters(model)} "
          f"(seed had {model.count_parameters()})")


if __name__ == "__main__":
    main()
