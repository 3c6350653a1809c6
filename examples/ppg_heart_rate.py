"""PPG-based heart-rate estimation: a λ sweep tracing the Pareto front.

Reproduces the Fig. 4 (bottom) workflow of the paper at laptop scale: PIT
searches the TEMPONet seed under several regularization strengths; each
run yields one (size, MAE) point, together tracing the accuracy-vs-size
trade-off.  The undilated seed and the hand-engineered TEMPONet are
trained as references.

Run with::

    python examples/ppg_heart_rate.py
"""

import functools

import numpy as np

from repro.core import train_plain
from repro.data import DataLoader, PPGDaliaConfig, make_ppg_dalia, train_val_test_split
from repro.evaluation import DSEEngine, pareto_points
from repro.models import TEMPONET_HAND_DILATIONS, temponet_fixed, temponet_seed
from repro.nn import mae_loss

WIDTH = 0.25
LAMBDAS = (0.0, 0.02, 0.2, 2.0)


def main():
    config = PPGDaliaConfig(num_subjects=4, seconds_per_subject=60)
    dataset = make_ppg_dalia(config, seed=0)
    train, val, _ = train_val_test_split(dataset, rng=np.random.default_rng(0))
    train_loader = DataLoader(train, 16, shuffle=True, rng=np.random.default_rng(1))
    val_loader = DataLoader(val, 16)

    # References: the d=1 seed and the hand-engineered network.
    references = {}
    for name, dilations in [("seed (d=1)", None),
                            ("hand-tuned", TEMPONET_HAND_DILATIONS)]:
        model = temponet_fixed(dilations, width_mult=WIDTH, seed=0)
        outcome = train_plain(model, mae_loss, train_loader, val_loader,
                              epochs=10, patience=5)
        references[name] = (model.count_parameters(), outcome.best_val)
        print(f"{name:<12s}: {references[name][0]:>7d} params, "
              f"MAE {references[name][1]:.2f} BPM")

    # The PIT λ sweep (one full search per λ).  The seed factory is a
    # partial of a module-level function, not a lambda, so it pickles to
    # worker processes when the sweep runs pooled (REPRO_DSE_WORKERS=N).
    sweep = DSEEngine(
        functools.partial(temponet_seed, width_mult=WIDTH, seed=0),
        mae_loss, train_loader, val_loader,
        trainer_kwargs=dict(gamma_lr=0.03, max_prune_epochs=6, prune_patience=4,
                            finetune_epochs=4, finetune_patience=4),
        verbose=True).run(LAMBDAS, warmups=(1,))

    print("\nlambda      params   MAE     dilations")
    for p in sorted(sweep.points, key=lambda q: q.params):
        print(f"{p.lam:<10g} {p.params:>7d} {p.loss:>7.2f} {p.dilations}")

    points = ([(p.params, p.loss) for p in sweep.points]
              + list(references.values()))
    print("\nPareto front (params, MAE):")
    for params, mae in pareto_points(points):
        print(f"  {int(params):>7d}  {mae:.2f}")


if __name__ == "__main__":
    main()
