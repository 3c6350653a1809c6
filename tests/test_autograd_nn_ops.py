"""The ``dropout`` wrapper's argument handling: the cases that never reach
the op.  The op itself has its entry in ``tests/test_ops.py``."""

import numpy as np
import pytest

from repro.autograd import Tensor, dropout

RNG = np.random.default_rng(11)


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(RNG.standard_normal((4, 5)))
        out = dropout(x, 0.5, training=False)
        assert out is x

    def test_p_zero_is_identity(self):
        x = Tensor(RNG.standard_normal((4, 5)))
        assert dropout(x, 0.0, training=True) is x

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            dropout(Tensor([1.0]), 1.0, training=True)
        with pytest.raises(ValueError):
            dropout(Tensor([1.0]), -0.1, training=True)
