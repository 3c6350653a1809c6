"""User-journey integration tests: search -> checkpoint -> reload -> deploy.

These mirror how a downstream user chains the library's pieces; each test
is a miniature of a workflow documented in README/examples.
"""

import numpy as np
import pytest

from repro import PITTrainer, export_network
from repro.core import evaluate, pit_layers
from repro.data import (
    DataLoader,
    PPGDaliaConfig,
    make_ppg_dalia,
    train_val_test_split,
)
from repro.evaluation import DSEEngine, format_table
from repro.hw import GAP8Model, deploy
from repro.models import temponet_fixed, temponet_seed
from repro.nn import mae_loss
from repro.nn.serialization import load_model, save_model


@pytest.fixture(scope="module")
def ppg():
    cfg = PPGDaliaConfig(num_subjects=2, seconds_per_subject=40)
    ds = make_ppg_dalia(cfg, seed=0)
    train, val, test = train_val_test_split(ds, rng=np.random.default_rng(0))
    return (DataLoader(train, 16, shuffle=True, rng=np.random.default_rng(1)),
            DataLoader(val, 16), DataLoader(test, 16))


class TestSearchCheckpointReload:
    def test_checkpoint_preserves_search_outcome(self, ppg, tmp_path):
        train, val, test = ppg
        seed = temponet_seed(width_mult=0.125, seed=0)
        trainer = PITTrainer(seed, mae_loss, lam=1.0, gamma_lr=0.1,
                             warmup_epochs=0, max_prune_epochs=4,
                             prune_patience=4, finetune_epochs=1,
                             finetune_patience=1)
        result = trainer.fit(train, val)
        path = tmp_path / "searched.npz"
        save_model(seed, path, metadata={"dilations": list(result.dilations)})

        # A fresh seed, restored, must reproduce dilations AND outputs.
        restored = temponet_seed(width_mult=0.125, seed=99)
        meta = load_model(restored, path)
        assert tuple(meta["dilations"]) == result.dilations
        for layer, d in zip(pit_layers(restored), result.dilations):
            # Restored γ̂ encode the same dilations (masks were frozen, so
            # compare through the frozen buffers).
            assert layer.mask.current_dilation() == d
        restored.eval()
        seed.eval()
        assert evaluate(restored, mae_loss, test) == pytest.approx(
            evaluate(seed, mae_loss, test))

    def test_exported_network_deploys_after_reload(self, ppg, tmp_path):
        train, val, test = ppg
        seed = temponet_seed(width_mult=0.125, seed=0)
        for layer in pit_layers(seed):
            layer.set_dilation(2)
            layer.freeze()
        network = export_network(seed)
        path = tmp_path / "exported.npz"
        save_model(network, path)

        clone = export_network(seed)  # same architecture
        load_model(clone, path)
        report = deploy(clone, mae_loss, train, test, (1, 4, 256),
                        name="reloaded")
        assert report.params == clone.count_parameters()


class TestRegistryWorkflow:
    def test_table_rendering_of_sweep(self, ppg):
        train, val, _ = ppg
        sweep = DSEEngine(lambda: temponet_seed(width_mult=0.125, seed=0),
                          mae_loss, train, val,
                          trainer_kwargs=dict(max_prune_epochs=1,
                                              finetune_epochs=0)).run(
            [0.0], warmups=(0,))
        table = format_table(
            ["lambda", "params", "loss"],
            [[p.lam, p.params, p.loss] for p in sweep.points],
            formats=[None, None, ".3f"])
        assert "lambda" in table
        assert "params" in table


class TestCostModelConsistency:
    def test_deploy_and_estimate_agree(self, ppg):
        train, _, test = ppg
        network = temponet_fixed((2, 2, 1, 4, 4, 8, 8), width_mult=0.125, seed=0)
        report = deploy(network, mae_loss, train, test, (1, 4, 256),
                        quantize=False)
        direct = GAP8Model().estimate(network, (1, 4, 256))
        assert report.latency_ms == pytest.approx(direct.latency_ms)
        assert report.energy_mj == pytest.approx(direct.energy_mj)

    def test_exported_pit_costs_less_than_seed(self, ppg):
        seed_net = temponet_fixed(None, width_mult=0.125, seed=0)
        pruned_net = temponet_fixed((4, 4, 4, 8, 8, 16, 16),
                                    width_mult=0.125, seed=0)
        gap8 = GAP8Model()
        seed_cost = gap8.estimate(seed_net, (1, 4, 256))
        pruned_cost = gap8.estimate(pruned_net, (1, 4, 256))
        assert pruned_cost.latency_ms < seed_cost.latency_ms
        assert pruned_cost.total_macs < seed_cost.total_macs
