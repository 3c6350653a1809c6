"""Tests for the configurable default dtype (``repro.set_default_dtype``).

float32 is the default — it halves memory traffic — and float64 the
opt-in, while gradient checking stays pinned to float64 so numerical
differentiation keeps meaning.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.autograd import (
    Tensor,
    check_gradients,
    default_dtype_scope,
    get_default_dtype,
    set_default_dtype,
)
from repro.data import ArrayDataset


@pytest.fixture(autouse=True)
def restore_dtype():
    # Pin the float32 baseline on entry, so these tests hold even when the
    # suite itself was launched under a REPRO_DTYPE override, and hand the
    # suite's own dtype back on exit.
    previous = get_default_dtype()
    set_default_dtype("float32")
    yield
    set_default_dtype(previous)


def _fresh_dtypes(**env):
    """The default dtype and a new Tensor's dtype that a fresh interpreter
    reports, with ``env`` added to an environment stripped of
    ``REPRO_DTYPE``."""
    base = {k: v for k, v in os.environ.items() if k != "REPRO_DTYPE"}
    base["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    code = ("import numpy as np; import repro; "
            "from repro.autograd import Tensor; "
            "print(np.dtype(repro.get_default_dtype()).name, "
            "Tensor([1.0]).dtype)")
    result = subprocess.run([sys.executable, "-c", code],
                            env={**base, **env}, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


class TestConfiguration:
    def test_default_is_float32(self):
        assert _fresh_dtypes() == ["float32", "float32"]

    def test_set_by_name_and_dtype(self):
        set_default_dtype("float32")
        assert get_default_dtype() is np.float32
        set_default_dtype(np.float64)
        assert get_default_dtype() is np.float64

    def test_rejects_unsupported(self):
        with pytest.raises(ValueError, match="unsupported dtype"):
            set_default_dtype("int32")
        with pytest.raises(ValueError):
            set_default_dtype("float16")

    def test_top_level_reexports(self):
        assert repro.get_default_dtype() is np.float32
        repro.set_default_dtype("float64")
        assert get_default_dtype() is np.float64

    def test_scope_restores(self):
        with default_dtype_scope("float64"):
            assert get_default_dtype() is np.float64
            with default_dtype_scope("float32"):
                assert get_default_dtype() is np.float32
            assert get_default_dtype() is np.float64
        assert get_default_dtype() is np.float32


class TestTensorDtype:
    def test_tensor_storage_follows_default(self):
        set_default_dtype("float32")
        t = Tensor([1.0, 2.0])
        assert t.dtype == np.float32
        out = (t * 2.0 + 1.0).exp()
        assert out.dtype == np.float32

    def test_float64_inputs_are_downcast(self):
        set_default_dtype("float32")
        t = Tensor(np.arange(4, dtype=np.float64))
        assert t.dtype == np.float32

    def test_gradients_in_float32(self):
        set_default_dtype("float32")
        t = Tensor(np.ones(3), requires_grad=True)
        (t * t).sum().backward()
        assert t.grad.dtype == np.float32
        assert np.allclose(t.grad, 2.0)

    def test_training_step_in_float32(self):
        from repro.core.trainer import make_training_step
        from repro.nn import CausalConv1d, GlobalAvgPool1d, Linear, Sequential, mse_loss
        from repro.optim import Adam
        set_default_dtype("float32")
        rng = np.random.default_rng(0)
        model = Sequential(CausalConv1d(2, 4, 3, rng=rng),
                           GlobalAvgPool1d(), Linear(4, 1, rng=rng))
        step = make_training_step(model, mse_loss)
        optimizer = Adam(model.parameters())
        optimizer.zero_grad()
        loss, task = step(rng.standard_normal((4, 2, 8)),
                          rng.standard_normal((4, 1)))
        optimizer.step()
        assert np.isfinite(loss) and loss == task
        assert all(p.dtype == np.float32 for p in model.parameters())

    def test_frozen_searchable_net_is_all_float32(self):
        """Masks are built at the default dtype, so a frozen mask is used
        as stored, not cast to a fresh copy on every forward."""
        from repro.core import ChannelMask
        from repro.core.regularizer import pit_layers
        from repro.models import temponet_seed
        model = temponet_seed(0.125)
        layers = pit_layers(model)
        channels = ChannelMask(4)
        channels.gamma_hat.data[:2] = 0.0
        masks = [layer.mask for layer in layers] + [channels]
        for mask in masks:
            mask.freeze()
        arrays = ([p.data for p in model.parameters()]
                  + [b for _, b in model.named_buffers()]
                  + [channels.frozen_mask])
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
        assert all(mask().data is mask.frozen_mask for mask in masks)

    def test_mask_and_serving_constants_need_no_cast(self, monkeypatch):
        """Unfrozen mask forwards and the serving tick build their constant
        arrays at the default dtype, so no float64 array reaches a Tensor
        (each would be cast to a fresh float32 copy)."""
        import repro.autograd.tensor as tensor_module
        from repro.core.masks import TimeMask
        from repro.core.stacked import StackedTimeMask
        from repro.nn import CausalConv1d, Sequential
        from repro.nn.stacked import StackContext
        from repro.serving import StreamingPool
        set_default_dtype("float32")
        pool = StreamingPool(Sequential(CausalConv1d(2, 3, 3)).eval(),
                             capacity=2)
        cast = []
        as_array = tensor_module._as_array

        def spy(value):
            if isinstance(value, np.ndarray) and value.dtype != np.float32:
                cast.append(value.dtype)
            return as_array(value)
        monkeypatch.setattr(tensor_module, "_as_array", spy)

        for rf_max in (2, 9):
            TimeMask(rf_max)()
            stacked = StackedTimeMask(TimeMask(rf_max), StackContext(2))
            stacked()
            assert stacked.binary_gamma(1).dtype == np.float32
        slot = pool.attach()
        pool.tick({slot: np.array([0.5, -1.0])})  # float64 wire samples
        assert cast == []


class TestDataAndGradcheck:
    def test_array_dataset_follows_default(self):
        set_default_dtype("float32")
        data = ArrayDataset(np.zeros((4, 2)), np.zeros((4, 1)))
        assert data.inputs.dtype == np.float32
        assert data.targets.dtype == np.float32

    def test_gradcheck_pinned_to_float64(self):
        """check_gradients stays meaningful under a float32 default: the
        inputs are upcast and the whole comparison runs in float64."""
        set_default_dtype("float32")
        t = Tensor(np.array([0.3, -1.2, 2.0], dtype=np.float32),
                   requires_grad=True)
        check_gradients(lambda a: (a * a).exp(), [t])
        assert t.data.dtype == np.float64
        assert get_default_dtype() is np.float32  # scope restored

    def test_env_variable(self):
        assert _fresh_dtypes(REPRO_DTYPE="float64") == ["float64", "float64"]

    def test_invalid_env_variable_fails_on_use_not_import(self):
        code = ("import repro.cli; "  # import must survive a bad REPRO_DTYPE
                "from repro.autograd import get_default_dtype\n"
                "try:\n"
                "    get_default_dtype()\n"
                "except ValueError as exc:\n"
                "    assert 'REPRO_DTYPE' in str(exc); print('ok')\n")
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={"REPRO_DTYPE": "float128", "PYTHONPATH": "src",
                 "PATH": "/usr/bin:/bin"},
            capture_output=True, text=True, cwd=".")
        assert result.returncode == 0, result.stderr
        assert "ok" in result.stdout
