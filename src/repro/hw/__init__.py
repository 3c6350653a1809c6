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
from .deployment import (
    DeploymentReport,
    GAP8PointEvaluator,
    deploy,
    format_table_iii,
)

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
