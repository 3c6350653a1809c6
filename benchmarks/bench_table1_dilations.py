"""Table I: per-layer dilations of the small/medium/large PIT outputs.

Regenerates the paper's Table I selection: from each λ sweep, pick the
smallest network, the largest, and the one closest in size to the original
hand-designed ResTCN/TEMPONet, and print their per-layer dilation tuples
next to the hand-tuned references.

Paper shape to reproduce: the *small* output uses larger dilations than the
hand-tuned network in most layers; the *large* output keeps several layers
at (or near) d=1; all dilations are powers of two within each layer's
budget.
"""

from conftest import RESTCN_WIDTH, TEMPONET_WIDTH, print_header
from repro.core import layer_choices, pit_layers
from repro.evaluation import select_small_medium_large
from repro.models import (
    RESTCN_HAND_DILATIONS,
    TEMPONET_HAND_DILATIONS,
    restcn_hand_tuned,
    restcn_seed,
    temponet_hand_tuned,
    temponet_seed,
)


def _selection(sweep, reference):
    return select_small_medium_large(sweep.points, reference)


def _check_dilations_valid(dilations, seed_model):
    for layer, d in zip(pit_layers(seed_model), dilations):
        assert d in layer_choices(layer), (d, layer.rf_max)


def test_table1_dilations(benchmark, restcn_sweep, temponet_sweep):
    restcn_ref = restcn_hand_tuned(width_mult=RESTCN_WIDTH, seed=0).count_parameters()
    temponet_ref = temponet_hand_tuned(width_mult=TEMPONET_WIDTH,
                                       seed=0).count_parameters()

    def run():
        return (_selection(restcn_sweep, restcn_ref),
                _selection(temponet_sweep, temponet_ref))

    restcn_sel, temponet_sel = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("Table I — dilations of PIT outputs")
    print(f"{'network':<26s} dilations")
    print(f"{'ResTCN dil=hand-tuned':<26s} {RESTCN_HAND_DILATIONS}")
    for name in ("small", "medium", "large"):
        p = restcn_sel[name]
        print(f"{'PIT ResTCN ' + name:<26s} {p.dilations}  "
              f"({p.params} params, lam={p.lam:g})")
    print(f"{'TEMPONet dil=hand-tuned':<26s} {TEMPONET_HAND_DILATIONS}")
    for name in ("small", "medium", "large"):
        p = temponet_sel[name]
        print(f"{'PIT TEMPONet ' + name:<26s} {p.dilations}  "
              f"({p.params} params, lam={p.lam:g})")

    # --- paper-shape assertions -----------------------------------------
    # Selection ordering by construction.
    assert restcn_sel["small"].params <= restcn_sel["medium"].params
    assert restcn_sel["medium"].params <= restcn_sel["large"].params or \
        restcn_sel["medium"].params <= restcn_ref * 1.5
    assert temponet_sel["small"].params <= temponet_sel["large"].params
    # All dilations live in the per-layer power-of-two budgets.
    _check_dilations_valid(restcn_sel["small"].dilations,
                           restcn_seed(width_mult=RESTCN_WIDTH, seed=0))
    _check_dilations_valid(temponet_sel["small"].dilations,
                           temponet_seed(width_mult=TEMPONET_WIDTH, seed=0))
    # The small nets use aggressive dilation: mean d above the hand-tuned.
    small = restcn_sel["small"].dilations
    assert sum(small) >= sum(RESTCN_HAND_DILATIONS)
