"""Seed architectures: ResTCN (Nottingham) and TEMPONet (PPG-Dalia)."""

from .restcn import ResTCN, RESTCN_HAND_DILATIONS, RESTCN_RECEPTIVE_FIELDS
from .temponet import TEMPONet, TEMPONET_HAND_DILATIONS, TEMPONET_RECEPTIVE_FIELDS
from .rnn_baselines import MusicLSTM
from .seeds import (
    restcn_seed,
    restcn_fixed,
    restcn_hand_tuned,
    temponet_seed,
    temponet_fixed,
    temponet_hand_tuned,
)

__all__ = [
    "ResTCN",
    "RESTCN_HAND_DILATIONS",
    "RESTCN_RECEPTIVE_FIELDS",
    "TEMPONet",
    "TEMPONET_HAND_DILATIONS",
    "TEMPONET_RECEPTIVE_FIELDS",
    "restcn_seed",
    "restcn_fixed",
    "restcn_hand_tuned",
    "temponet_seed",
    "temponet_fixed",
    "temponet_hand_tuned",
    "MusicLSTM",
]
