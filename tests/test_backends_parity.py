"""Differential test harness locking the conv kernels to the oracle.

Every conv runs the im2col kernels of :mod:`repro.autograd.backends`.  They
must agree with the per-tap einsum oracle
(:class:`repro.autograd.backends.EinsumReference`) on forward values *and*
all gradients, over a grid of dilations, strides and kernel sizes that
includes ``C_in != C_out`` and a temporal length not divisible by the
stride.  The oracle runs on plain arrays with its own padding, so it shares
no code with the autograd ops.  The im2col path is also validated against
central finite differences via :mod:`repro.autograd.gradcheck`, so kernels
and oracle can never be "consistently wrong" together.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    check_gradients,
    conv1d_causal,
    conv1d_causal_masked,
    conv1d_causal_stacked,
)
from repro.autograd.backends import (
    EinsumReference,
    available_backends,
    current_backend,
    get_backend,
)

DILATIONS = (1, 2, 4, 8)
STRIDES = (1, 2, 3)
KERNELS = (1, 3, 9)

# C_in != C_out, and T=13 is not divisible by strides 2 or 3.
N, C_IN, C_OUT, T = 2, 3, 4, 13

GRID = [(d, s, k) for d in DILATIONS for s in STRIDES for k in KERNELS]

# The conv kernel set under test; its name labels every parity test ID.
KERNEL_SETS = ["im2col"]

# Comparison tolerance follows the substrate precision: under
# REPRO_DTYPE=float32 kernels and oracle compute in single precision, so
# last-ulp disagreements are ~1e-6 on O(10) values.
from repro.autograd import get_default_dtype

if np.dtype(get_default_dtype()) == np.float64:
    TOL = dict(atol=1e-12)
else:
    TOL = dict(atol=1e-4, rtol=1e-4)

ORACLE = EinsumReference()


def _reference(x, w, b=None, dilation=1, stride=1, upstream=None):
    """Output and ``(x, w, b)`` gradients of the causal conv from the
    oracle kernels on plain arrays; ``upstream`` defaults to ones, the
    gradient of ``out.sum()``.  The bias gradient is None without a bias."""
    t, pad = x.shape[2], (w.shape[2] - 1) * dilation
    xp = np.pad(x, ((0, 0), (0, 0), (pad, 0)))
    out = ORACLE.forward(xp, w, dilation, stride, t)
    if b is not None:
        out += b[:, None]
    g = np.ones_like(out) if upstream is None else upstream.astype(out.dtype)
    gx = ORACLE.grad_input(g, w, xp.shape, dilation, stride, t)[:, :, pad:]
    gw = ORACLE.grad_weight(g, xp, w.shape, dilation, stride, t)
    return out, gx, gw, None if b is None else g.sum(axis=(0, 2))


def _inputs(kernel, requires_grad=False, seed=0):
    rng = np.random.default_rng(seed + 100 * kernel)
    x = Tensor(rng.standard_normal((N, C_IN, T)), requires_grad=requires_grad)
    w = Tensor(rng.standard_normal((C_OUT, C_IN, kernel)),
               requires_grad=requires_grad)
    b = Tensor(rng.standard_normal(C_OUT), requires_grad=requires_grad)
    return x, w, b


def _run(dilation, stride, kernel):
    """Forward + backward of the conv op; returns output and gradients."""
    x, w, b = _inputs(kernel, requires_grad=True)
    out = conv1d_causal(x, w, b, dilation=dilation, stride=stride)
    out.sum().backward()
    return out.data, x.grad, w.grad, b.grad


def _assert_close(got, ref, where=""):
    for label, a, r in zip(("out", "x", "w", "b"), got, ref):
        assert np.allclose(a, r, **TOL), f"{label} {where}"


class TestForwardParity:
    @pytest.mark.parametrize("backend", KERNEL_SETS)
    @pytest.mark.parametrize("dilation,stride,kernel", GRID)
    def test_matches_einsum(self, backend, dilation, stride, kernel):
        x, w, b = _inputs(kernel)
        ref = _reference(x.data, w.data, b.data, dilation, stride)[0]
        fast = conv1d_causal(x, w, b, dilation=dilation, stride=stride)
        assert ref.shape == fast.shape
        assert np.allclose(ref, fast.data, **TOL)

    @pytest.mark.parametrize("backend", KERNEL_SETS)
    def test_no_bias(self, backend):
        x, w, _ = _inputs(3)
        ref = _reference(x.data, w.data, dilation=2)[0]
        fast = conv1d_causal(x, w, dilation=2)
        assert np.allclose(ref, fast.data, **TOL)

    def test_all_registered_backends_agree(self):
        """The one kernel set the ops run agrees with the oracle at a long
        receptive field, and is the only one the profiling hooks list."""
        assert available_backends() == [current_backend()] == KERNEL_SETS
        x, w, b = _inputs(9)
        reference = _reference(x.data, w.data, b.data, 4, 2)[0]
        out = conv1d_causal(x, w, b, dilation=4, stride=2)
        assert np.allclose(out.data, reference, **TOL)


class TestGradientParity:
    @pytest.mark.parametrize("backend", KERNEL_SETS)
    @pytest.mark.parametrize("dilation,stride,kernel", GRID)
    def test_all_gradients_match(self, backend, dilation, stride, kernel):
        x, w, b = _inputs(kernel)
        _assert_close(_run(dilation, stride, kernel),
                      _reference(x.data, w.data, b.data, dilation, stride))

    @pytest.mark.parametrize("backend", KERNEL_SETS)
    @pytest.mark.parametrize("dilation,stride,kernel",
                             [(1, 1, 1), (2, 1, 3), (4, 2, 3), (8, 3, 9),
                              (1, 3, 9), (2, 2, 9)])
    def test_fast_path_gradcheck(self, backend, dilation, stride, kernel):
        """The kernels against finite differences, not just the oracle."""
        x, w, b = _inputs(kernel, requires_grad=True, seed=7)
        check_gradients(
            lambda x, w, b: conv1d_causal(x, w, b, dilation=dilation,
                                          stride=stride),
            [x, w, b])


class TestStackedKernelParity:
    """The stacked (leading model axis) conv against each model's 2-D conv."""

    M = 3
    STACK_GRID = [(1, 1, 3), (2, 1, 9), (4, 2, 3), (2, 3, 9), (1, 2, 1)]

    def _stacked_inputs(self, kernel, requires_grad=False, seed=0):
        rng = np.random.default_rng(seed + 17 * kernel)
        x = Tensor(rng.standard_normal((self.M, N, C_IN, T)),
                   requires_grad=requires_grad)
        w = Tensor(rng.standard_normal((self.M, C_OUT, C_IN, kernel)),
                   requires_grad=requires_grad)
        b = Tensor(rng.standard_normal((self.M, C_OUT)),
                   requires_grad=requires_grad)
        return x, w, b

    def _stacked_run(self, dilation, stride, kernel):
        x, w, b = self._stacked_inputs(kernel, requires_grad=True)
        out = conv1d_causal_stacked(x, w, b, dilation=dilation, stride=stride)
        upstream = np.random.default_rng(99).standard_normal(out.shape)
        out.backward(upstream)
        return x, w, b, out, upstream

    @pytest.mark.parametrize("backend", ["einsum"] + KERNEL_SETS)
    @pytest.mark.parametrize("dilation,stride,kernel", STACK_GRID)
    def test_stacked_matches_per_model(self, backend, dilation, stride,
                                       kernel, use_kernels):
        """The stacked op against the oracle on each model's arrays, on
        the production kernels and on the oracle's own (looped) kernels."""
        with use_kernels(backend):
            x, w, b, out, upstream = self._stacked_run(dilation, stride,
                                                       kernel)
        for m in range(self.M):
            ref = _reference(x.data[m], w.data[m], b.data[m], dilation,
                             stride, upstream[m])
            _assert_close((out.data[m], x.grad[m], w.grad[m], b.grad[m]),
                          ref, where=f"model {m}")

    @pytest.mark.parametrize("dilation,stride,kernel", STACK_GRID)
    def test_stacked_slice_bit_identical_to_2d(self, dilation, stride,
                                               kernel):
        """Model ``m`` of a stack computes exactly what its 2-D conv
        computes: the stacked kernels run the 2-D kernels per model."""
        x, w, b, out, upstream = self._stacked_run(dilation, stride, kernel)
        for m in range(self.M):
            xm = Tensor(x.data[m], requires_grad=True)
            wm = Tensor(w.data[m], requires_grad=True)
            ref = conv1d_causal(xm, wm, Tensor(b.data[m]), dilation=dilation,
                                stride=stride)
            ref.backward(upstream[m])
            assert np.array_equal(out.data[m], ref.data), m
            assert np.array_equal(x.grad[m], xm.grad), m
            assert np.array_equal(w.grad[m], wm.grad), m

    def test_base_class_loop_covers_unbatched_backends(self):
        """The stacked kernels are a per-model loop of the 2-D lowering:
        at the kernel level every slice of a stacked forward, input
        gradient and weight gradient is bit-identical to the 2-D kernel
        on that model's arrays."""
        kernels = get_backend()
        rng = np.random.default_rng(5)
        d, stride, t, k = 2, 2, T, 3
        xp = rng.standard_normal((self.M, N, C_IN, t + (k - 1) * d))
        w = rng.standard_normal((self.M, C_OUT, C_IN, k))
        out = kernels.forward_stacked(xp, w, d, stride, t)
        g = rng.standard_normal(out.shape)
        gx = kernels.grad_input_stacked(g, w, xp.shape, d, stride, t)
        gw = kernels.grad_weight_stacked(g, xp, w.shape, d, stride, t)
        assert gx.shape == xp.shape and gw.shape == w.shape
        for m in range(self.M):
            assert np.array_equal(
                out[m], kernels.forward(xp[m], w[m], d, stride, t)), m
            assert np.array_equal(gx[m], kernels.grad_input(
                g[m], w[m], xp.shape[1:], d, stride, t)), m
            assert np.array_equal(gw[m], kernels.grad_weight(
                g[m], xp[m], w.shape[1:], d, stride, t)), m

    def test_stacked_validates_shapes(self):
        x, w, _ = self._stacked_inputs(3)
        with pytest.raises(ValueError, match="expected input"):
            conv1d_causal_stacked(Tensor(np.zeros((2, 3, 5))), w)
        with pytest.raises(ValueError, match="stack"):
            conv1d_causal_stacked(
                x, Tensor(np.zeros((self.M + 1, C_OUT, C_IN, 3))))


class TestBackendSelection:
    """There is one kernel set and no switch: what stays of selection is
    the lookup the profiling hooks use, the scoped oracle patch the tests
    use, and the one kernel object every op calls."""

    def test_default_honours_environment(self):
        """The kernels keep the precision the environment chose
        (``REPRO_DTYPE``): every kernel returns its inputs' dtype, so a
        float32 run stays float32 end to end."""
        assert current_backend() == get_backend().name == "im2col"
        kernels, rng = get_backend(), np.random.default_rng(2)
        for dtype in (np.float32, np.float64):
            xp = rng.standard_normal((N, C_IN, T + 4)).astype(dtype)
            w = rng.standard_normal((C_OUT, C_IN, 3)).astype(dtype)
            out = kernels.forward(xp, w, 2, 1, T)
            assert out.dtype == dtype
            assert kernels.grad_input(out, w, xp.shape, 2, 1, T).dtype \
                == dtype
            assert kernels.grad_weight(out, xp, w.shape, 2, 1, T).dtype \
                == dtype
            assert kernels.forward_step(xp[:, :, :3], w).dtype == dtype
        x, w, b = _inputs(3)
        out = conv1d_causal(x, w, b, dilation=2)
        assert out.data.dtype == np.dtype(get_default_dtype())

    def test_set_backend_round_trip(self):
        """Every name the profiling hooks list resolves to the kernel
        object the ops call, and that object reports the current name."""
        assert current_backend() in available_backends()
        for name in available_backends():
            kernels = get_backend(name)
            assert kernels is get_backend()
            assert kernels.name == name
        assert get_backend(current_backend()) is get_backend()

    def test_use_backend_restores_on_exit(self, use_kernels):
        """The oracle patch is scoped: after it the ops run im2col again,
        bit for bit (a leak would silently hand the oracle every later
        test)."""
        x, w, b = _inputs(3)
        production = conv1d_causal(x, w, b, dilation=2).data
        with use_kernels("einsum") as kernels:
            assert kernels is get_backend()
            assert kernels.forward.__func__ is EinsumReference.forward
        assert "forward" not in vars(get_backend())
        assert np.array_equal(conv1d_causal(x, w, b, dilation=2).data,
                              production)

    def test_use_backend_restores_on_error(self, use_kernels):
        with pytest.raises(RuntimeError):
            with use_kernels("einsum"):
                raise RuntimeError("boom")
        kernels = get_backend()
        assert not set(vars(kernels)) & {
            "forward", "grad_input", "grad_weight", "forward_stacked",
            "grad_input_stacked", "grad_weight_stacked", "forward_step"}
        with pytest.raises(ValueError, match="unknown kernel set"):
            with use_kernels("cudnn"):
                pass

    def test_unknown_backend_rejected(self):
        assert get_backend("im2col") is get_backend()
        with pytest.raises(ValueError, match="unknown conv kernels"):
            get_backend("cudnn")

    def test_bogus_env_var_does_not_crash_import(self):
        """A malformed environment knob (here REPRO_CKPT_EVERY) must fail
        at first use with an error naming the variable, not at
        ``import repro`` (which would break even --help)."""
        script = (
            "import repro, repro.cli\n"
            "repro.cli.build_parser().parse_args(['train'])\n"
            "from repro.core.checkpoint import checkpoint_every_default\n"
            "try:\n"
            "    checkpoint_every_default()\n"
            "except ValueError as exc:\n"
            "    assert 'REPRO_CKPT_EVERY' in str(exc), exc\n"
            "    print('LAZY-OK')\n")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "REPRO_CKPT_EVERY": "every",
                 "PYTHONPATH": os.path.join(os.path.dirname(__file__),
                                            "..", "src")})
        assert proc.returncode == 0, proc.stderr
        assert "LAZY-OK" in proc.stdout

    def test_global_default_steers_untagged_calls(self, use_kernels):
        """The ops name no kernels: patching the oracle onto the one kernel
        object steers every plain and stacked conv call, bit for bit."""
        x, w, b = _inputs(3)
        with use_kernels("einsum"):
            out = conv1d_causal(x, w, b, dilation=2).data
            stacked = conv1d_causal_stacked(
                Tensor(x.data[None]), Tensor(w.data[None]),
                Tensor(b.data[None]), dilation=2).data
        ref = _reference(x.data, w.data, b.data, dilation=2)[0]
        assert np.array_equal(out, ref)
        assert np.array_equal(stacked[0], ref)

    def test_backward_uses_forward_backend(self, use_kernels):
        """Backward calls the gradient kernels of the object the forward
        called: under the oracle, every gradient is the oracle's, bit for
        bit."""
        x, w, b = _inputs(3, requires_grad=True)
        with use_kernels("einsum"):
            out = conv1d_causal(x, w, b, dilation=2)
            out.sum().backward()
        _, gx, gw, gb = _reference(x.data, w.data, b.data, dilation=2)
        assert np.array_equal(x.grad, gx)
        assert np.array_equal(w.grad, gw)
        assert np.array_equal(b.grad, gb)


class TestKernelObject:
    def test_instance_wrappers_see_eager_and_replayed_calls(
            self, count_kernel_calls):
        """The ops call the kernels through the object ``get_backend()``
        returns, in eager dispatch and in compiled replay alike, so a
        profiler wrapping its methods sees every call."""
        from repro.core.trainer import make_training_step
        from repro.nn import CausalConv1d, GlobalAvgPool1d, Linear, Sequential
        from repro.nn.losses import mse_loss

        rng = np.random.default_rng(0)
        model = Sequential(CausalConv1d(2, 3, kernel_size=3, rng=rng),
                           GlobalAvgPool1d(), Linear(3, 1, rng=rng))
        step = make_training_step(model, mse_loss)
        x, y = rng.standard_normal((2, 2, 12)), rng.standard_normal((2, 1))
        with count_kernel_calls() as calls:
            first = step(x, y)    # trace (an eager step under capture)
            traced = list(calls)
            second = step(x, y)   # replay
        assert step.fallback_reason is None
        assert first == second
        # The input is not a parameter: no input gradient is computed.
        assert traced == ["forward", "grad_weight"]
        assert calls == traced * 2

    def test_stacked_call_is_counted_once(self, count_kernel_calls):
        """A stacked kernel loops the 2-D lowering helpers, not the public
        2-D methods, so a wrapper sees one call per stacked call."""
        x, w, b = TestStackedKernelParity()._stacked_inputs(
            3, requires_grad=True)
        with count_kernel_calls() as calls:
            conv1d_causal_stacked(x, w, b, dilation=2).sum().backward()
        assert sorted(calls) == ["forward_stacked", "grad_input_stacked",
                                 "grad_weight_stacked"]


class TestLegacyBackendSignature:
    def test_scratchless_backend_survives_compiled_replay(
            self, use_kernels, count_kernel_calls):
        """Kernels that supply only the three 2-D methods (the oracle,
        patched onto the kernel object) run under the compiled step:
        replay calls them exactly as eager dispatch does, and the
        compiled losses and gradients equal an eager run on them."""
        from repro.autograd import CompiledStep, EagerStep
        from repro.nn import CausalConv1d, GlobalAvgPool1d, Linear, Sequential
        from repro.nn.losses import mse_loss

        def make_model():
            rng = np.random.default_rng(0)
            return Sequential(
                CausalConv1d(2, 3, kernel_size=3, dilation=2, rng=rng),
                CausalConv1d(3, 3, kernel_size=3, rng=rng),
                GlobalAvgPool1d(), Linear(3, 1, rng=rng))
        rng = np.random.default_rng(1)
        batches = [(rng.standard_normal((2, 2, 12)),
                    rng.standard_normal((2, 1))) for _ in range(3)]
        models = {runner: make_model() for runner in (CompiledStep,
                                                      EagerStep)}
        with use_kernels("einsum"), count_kernel_calls() as calls:
            steps = {runner: runner(lambda tx, ty, m=model:
                                    mse_loss(m(tx), ty))
                     for runner, model in models.items()}
            for x, y in batches:
                losses, counts = [], []
                for runner, step in steps.items():
                    models[runner].zero_grad()
                    before = len(calls)
                    losses.append(step(x, y))
                    counts.append(calls[before:])
                assert losses[0] == losses[1]
                assert counts[0] == counts[1] == [
                    "forward", "forward", "grad_input", "grad_weight",
                    "grad_weight"]
                for p, q in zip(models[CompiledStep].parameters(),
                                models[EagerStep].parameters()):
                    assert np.array_equal(p.grad, q.grad)
        assert steps[CompiledStep].fallback_reason is None


class TestLayerIntegration:
    def test_causal_conv_layer_backend_parity(self):
        from repro.nn import CausalConv1d
        x = np.random.default_rng(3).standard_normal((2, C_IN, T))
        layer = CausalConv1d(C_IN, C_OUT, 5, dilation=2, stride=2,
                             rng=np.random.default_rng(11))
        ref = _reference(x, layer.weight.data, layer.bias.data, 2, 2)[0]
        assert np.allclose(layer(Tensor(x)).data, ref, **TOL)

    def test_pit_conv_layer_backend_parity(self):
        from repro.core import PITConv1d
        x = np.random.default_rng(5).standard_normal((2, C_IN, T))
        layer = PITConv1d(C_IN, C_OUT, rf_max=9,
                          rng=np.random.default_rng(13))
        layer.set_dilation(2)
        mask = layer.mask().data[::-1]   # lag order -> kernel order
        ref = _reference(x, layer.weight.data * mask, layer.bias.data)[0]
        assert np.allclose(layer(Tensor(x)).data, ref, **TOL)

    def test_export_propagates_backend(self, count_kernel_calls):
        """An exported layer runs on the same kernel object as its
        searchable source and computes the same output."""
        from repro.core import PITConv1d
        from repro.core.export import export_conv
        x = Tensor(np.random.default_rng(7).standard_normal((2, 2, T)))
        layer = PITConv1d(2, 2, rf_max=5, rng=np.random.default_rng(0))
        layer.set_dilation(2)
        exported = export_conv(layer)
        with count_kernel_calls() as calls:
            out = layer(x).data
            assert calls == ["forward"]
            assert np.allclose(exported(x).data, out, **TOL)
        assert calls == ["forward", "forward"]


# ----------------------------------------------------------------------
# Tap-masked convolution: the PIT layers' live-taps-only op
# ----------------------------------------------------------------------

def _dilation_masks():
    """Kernel-order tap masks of every dilation a PIT layer can reach."""
    from repro.core.masks import mask_from_dilation, num_gamma
    cases = []
    # rf_max = 2^k + 1 keeps tap 0 live; rf_max = 12 starts the live taps
    # at an offset (d=4 keeps taps 3, 7, 11).
    for rf_max in (2, 3, 5, 9, 12, 17, 33):
        for exponent in range(num_gamma(rf_max)):
            d = 2 ** exponent
            cases.append((f"rf{rf_max}-d{d}",
                          mask_from_dilation(rf_max, d)[::-1].copy()))
    # Taps 0, 3, 4, 6, 8 live: not a dilation, so every tap is computed.
    cases.append(("irregular", np.array([1., 0, 0, 1, 1, 0, 1, 0, 1])))
    return cases


MASKS = _dilation_masks()
MASK_IDS = [name for name, _ in MASKS]


def _masked_inputs(mask, seed=0, t=37):
    rng = np.random.default_rng(seed + mask.size)
    x = Tensor(rng.standard_normal((N, C_IN, t)), requires_grad=True)
    w = Tensor(rng.standard_normal((C_OUT, C_IN, mask.size)),
               requires_grad=True)
    b = Tensor(rng.standard_normal(C_OUT), requires_grad=True)
    return x, w, b


def _masked_run(op, mask_array, stride, bias, mask_grad, kernels):
    """Forward + backward of ``op`` on the ``kernels`` context; returns
    output and every gradient."""
    x, w, b = _masked_inputs(mask_array)
    mask = Tensor(mask_array, requires_grad=mask_grad)
    b = b if bias else None
    with kernels:
        if op == "masked":
            out = conv1d_causal_masked(x, w, mask, b, stride=stride)
        else:
            out = conv1d_causal(x, w * mask, b, stride=stride)
        # A non-uniform upstream gradient, so every output sample counts.
        out.backward(np.cos(np.arange(out.data.size)).reshape(out.shape))
    return [out.data, x.grad, w.grad, mask.grad,
            None if b is None else b.grad]


# The masked op on the oracle kernels too: their dead taps only ever add
# exact zeros, so there it must equal the full-tap conv bit for bit.
MASKED_KERNEL_SETS = ["einsum"] + KERNEL_SETS


class TestMaskedConvParity:
    """``conv1d_causal_masked(x, w, m, b)`` against the full-tap reference
    ``conv1d_causal(x, w * m, b)`` on the oracle kernels: bit-equal when the
    masked op runs the oracle too, and within tolerance on im2col."""

    @pytest.mark.parametrize("backend", MASKED_KERNEL_SETS)
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("name,mask", MASKS, ids=MASK_IDS)
    def test_matches_full_tap_reference(self, backend, stride, name, mask,
                                        use_kernels):
        for bias in (True, False):
            for mask_grad in (True, False):
                got = _masked_run("masked", mask, stride, bias, mask_grad,
                                  use_kernels(backend))
                ref = _masked_run("full", mask, stride, bias, mask_grad,
                                  use_kernels("einsum"))
                for label, a, r in zip(("out", "x", "w", "mask", "b"),
                                       got, ref):
                    where = f"{label} (bias={bias}, mask_grad={mask_grad})"
                    assert (a is None) == (r is None), where
                    if a is None:
                        continue
                    if backend == "einsum":
                        assert np.array_equal(a, r), where
                    else:
                        assert np.allclose(a, r, **TOL), where

    @pytest.mark.parametrize("backend", MASKED_KERNEL_SETS)
    @pytest.mark.parametrize("name,mask", MASKS[::4] + MASKS[-1:],
                             ids=MASK_IDS[::4] + MASK_IDS[-1:])
    def test_gradcheck(self, backend, name, mask, use_kernels):
        """Float64 finite differences over a sample of the grid, with and
        without a mask gradient."""
        for mask_grad in (True, False):
            x, w, b = _masked_inputs(mask, seed=3, t=12)
            m = Tensor(mask, requires_grad=mask_grad)
            with use_kernels(backend):
                check_gradients(
                    lambda x, w, m, b: conv1d_causal_masked(x, w, m, b,
                                                            stride=2),
                    [x, w, m, b])

    def test_live_tap_pattern(self):
        from repro.autograd.ops_conv import _live_taps
        assert _live_taps(np.array([0., 1, 0, 1, 0, 1])) == (1, 2)
        assert _live_taps(np.array([1., 0, 0, 0, 1])) == (0, 4)
        assert _live_taps(np.array([0., 0, 0.5])) == (2, 1)
        assert _live_taps(np.ones(4)) == (0, 1)
        # Irregular, last tap dead, all dead: every tap is computed.
        assert _live_taps(np.array([1., 1, 0, 1])) == (0, 1)
        assert _live_taps(np.array([1., 0, 1, 0])) == (0, 1)
        assert _live_taps(np.zeros(3)) == (0, 1)

    def test_validates_mask_shape(self):
        x, w, _ = _masked_inputs(np.ones(3))
        with pytest.raises(ValueError, match="tap mask"):
            conv1d_causal_masked(x, w, Tensor(np.ones(4)))


class TestMaskedConvCompiled:
    """A compiled PIT step replays the live-tap pattern the mask has *now*:
    eager-equal through warmup, pruning with a moving dilation and
    frozen fine-tuning."""

    def _model(self):
        from repro.core import PITConv1d
        from repro.nn import GlobalAvgPool1d, Linear, ReLU, Sequential
        rng = np.random.default_rng(4)
        return Sequential(PITConv1d(3, 4, rf_max=9, rng=rng), ReLU(),
                          PITConv1d(4, 4, rf_max=17, stride=2, rng=rng),
                          GlobalAvgPool1d(), Linear(4, 1, rng=rng))

    def test_three_phase_replay(self):
        import copy
        from repro.autograd import CompiledStep, EagerStep
        from repro.core import pit_layers, size_regularizer
        from repro.nn import mse_loss

        compiled_model = self._model()
        eager_model = copy.deepcopy(compiled_model)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((4, 3, 40)), rng.standard_normal((4, 1))
        # Each phase: (regularized, freeze, dilations per replay).
        phases = [(False, False, [(1, 1)] * 4),
                  (True, False, [(1, 1), (2, 4), (4, 2), (8, 16), (1, 1),
                                 (2, 4)]),
                  (True, True, [None] * 4)]
        for regularized, freeze, schedule in phases:
            steps = []
            for model, runner in ((compiled_model, CompiledStep),
                                  (eager_model, EagerStep)):
                if freeze:
                    for layer in pit_layers(model):
                        layer.freeze()

                def step_fn(tx, ty, model=model, regularized=regularized):
                    loss = mse_loss(model(tx), ty)
                    if regularized:
                        loss = loss + size_regularizer(model, 1e-3)
                    return loss
                steps.append(runner(step_fn))
            compiled, eager = steps
            for dilations in schedule:
                for model in (compiled_model, eager_model):
                    model.zero_grad()
                    if dilations is not None:
                        for layer, d in zip(pit_layers(model), dilations):
                            layer.set_dilation(d)
                assert compiled(x, y) == eager(x, y)
                for (name, p), q in zip(compiled_model.named_parameters(),
                                        eager_model.parameters()):
                    assert (p.grad is None) == (q.grad is None), name
                    if p.grad is not None:
                        assert np.array_equal(p.grad, q.grad), name
            assert compiled.fallback_reason is None
