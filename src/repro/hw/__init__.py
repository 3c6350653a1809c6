"""Hardware deployment substrate: int8 quantization + GAP8 SoC model."""

from .quantization import (
    QuantizedArray,
    quantize_array,
    fake_quantize,
    FakeQuant,
    QuantWrapper,
    quantize_network,
)
from .gap8 import GAP8Config, LayerCost, GAP8Report, GAP8Model
from .._lazy import lazy_exports

# The deployment flow evaluates with the trainer's loop, so it (and the
# training stack) loads on first use: quantizing a network for serving
# does not need it.
__getattr__ = lazy_exports(__name__, globals(), {
    ".deployment": ("DeploymentReport", "GAP8PointEvaluator", "deploy",
                    "format_table_iii"),
})

__all__ = [
    "QuantizedArray",
    "quantize_array",
    "fake_quantize",
    "FakeQuant",
    "QuantWrapper",
    "quantize_network",
    "GAP8Config",
    "LayerCost",
    "GAP8Report",
    "GAP8Model",
    "DeploymentReport",
    "GAP8PointEvaluator",
    "deploy",
    "format_table_iii",
]
