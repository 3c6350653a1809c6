"""The op table: every differentiable op, its samples, and the checks they run.

Each entry of :data:`OPS` names one :class:`repro.autograd.OpDef` and
declares its sample inputs once — PyTorch's ``op_db`` idiom.  Every sample
of every entry then runs the same checks:

* the forward against a numpy reference (and the sample must dispatch the
  op it is filed under);
* float64 gradient checking against central differences, through a random
  upstream weighting — or, for inputs whose gradient is *defined* rather
  than numerical, that definition (the straight-through binarizer passes
  the upstream gradient unchanged; dropout scales it by its saved mask;
  a supernet path's α gets a straight-through gate gradient while its
  branches are checked numerically); a *detached* op (BatchNorm's batch
  statistics) must stay out of the graph instead;
* eager against compiled replay: three steps with fresh input values,
  bit-equal losses and gradients;
* under a float32 scope: float32 outputs and gradients as the kernels
  return them (before any cast), close to the reference.

:func:`test_every_opdef_has_an_entry` compares the table with the ``OpDef``
objects the autograd modules define, so an op added without samples fails.
"""

import contextlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np
import pytest

from repro.autograd import (
    CompiledStep,
    EagerStep,
    OpDef,
    Tensor,
    avg_pool1d,
    batch_norm,
    batch_norm_stats,
    binarize_ste,
    check_gradients,
    concatenate,
    conv1d_causal,
    conv1d_causal_masked,
    conv1d_causal_masked_stacked,
    conv1d_causal_path,
    conv1d_causal_stacked,
    default_dtype_scope,
    dropout,
    dropout_stacked,
    softmax,
    stack,
)
from repro.autograd import ops_conv, ops_nn, tensor
from repro.autograd.graph import capture


@dataclass
class Sample:
    """One way to call an op: ``call(*tensors)`` on ``make(rng)``'s arrays
    must equal ``ref(*arrays)``."""
    name: str
    make: Callable[[np.random.Generator], tuple]
    call: Callable[..., Tensor]
    ref: Callable[..., np.ndarray]


@dataclass
class OpInfo:
    samples: Callable[[], List[Sample]]  # fresh samples (and generators)
    # ``grad_rule(arrays, out, upstream)`` gives the expected gradient of
    # each input whose gradient is defined, not numerical; a None entry
    # leaves that input to central differences.
    grad_rule: Optional[Callable] = None
    # Dispatched with ``apply_op(..., detach=True)``: no backward at all.
    detached: bool = False


OPS: Dict[str, OpInfo] = {}


def op(name, grad_rule=None, detached=False):
    def register(samples):
        OPS[name] = OpInfo(samples, grad_rule, detached)
        return samples
    return register


def randn(*shapes, shift=0.0, scale=1.0):
    return lambda rng: tuple(rng.standard_normal(s) * scale + shift
                             for s in shapes)


def const(*arrays):
    return lambda rng: tuple(np.array(a, dtype=np.float64) for a in arrays)


# -- elementwise arithmetic ---------------------------------------------

BROADCAST = [((3, 4), (3, 4)), ((3, 4), (4,)), ((3, 4), (1, 4)),
             ((3, 1), (1, 4)), ((2, 3, 4), (3, 4)), ((2, 3, 4), (1,)),
             ((5,), ())]


def shape_name(shape):
    return "x".join(map(str, shape)) or "scalar"


def broadcast_samples(call, ref, shift=0.0):
    return [Sample(f"{shape_name(a)}-{shape_name(b)}",
                   randn(a, b, shift=shift), call, ref)
            for a, b in BROADCAST]


@op("add")
def _add_samples():
    return broadcast_samples(lambda a, b: a + b, np.add) + [
        Sample("scalar-left", randn((3,)), lambda a: 1.0 + a,
               lambda a: 1.0 + a)]


@op("sub")
def _sub_samples():
    return broadcast_samples(lambda a, b: a - b, np.subtract) + [
        Sample("scalar-left", randn((3,)), lambda a: 5.0 - a,
               lambda a: 5.0 - a),
        Sample("scalar-right", randn((3,)), lambda a: a - 2.0,
               lambda a: a - 2.0)]


@op("mul")
def _mul_samples():
    return broadcast_samples(lambda a, b: a * b, np.multiply) + [
        Sample("scalar-left", randn((3,)), lambda a: 3.0 * a,
               lambda a: 3.0 * a)]


@op("div")
def _div_samples():
    # Operands around 3 keep the denominators away from zero.
    return broadcast_samples(lambda a, b: a / b, np.divide, shift=3.0) + [
        Sample("scalar-left", randn((3,), shift=3.0), lambda a: 6.0 / a,
               lambda a: 6.0 / a),
        Sample("scalar-right", randn((3,)), lambda a: a / 2.0,
               lambda a: a / 2.0)]


@op("neg")
def _neg_samples():
    return [Sample("3x4", randn((3, 4)), lambda a: -a, np.negative)]


@op("abs")
def _abs_samples():
    return [Sample("3x4", randn((3, 4)), lambda a: a.abs(), np.abs),
            # Subgradient 0 at exactly 0, as central differences see it.
            Sample("zero", const([-2.0, 0.0, 3.0]), lambda a: a.abs(),
                   np.abs)]


def unary(method, ref, shift=0.0, scale=1.0):
    return [Sample("4x3", randn((4, 3), shift=shift, scale=scale),
                   lambda a: getattr(a, method)(), ref)]


op("exp")(lambda: unary("exp", np.exp, scale=0.8))
op("log")(lambda: unary("log", np.log, shift=5.0))
op("sqrt")(lambda: unary("sqrt", np.sqrt, shift=5.0))
op("tanh")(lambda: unary("tanh", np.tanh))
op("relu")(lambda: unary("relu", lambda a: np.maximum(a, 0.0)))


def sigmoid_ref(a):
    return 1.0 / (1.0 + np.exp(-a))


@op("sigmoid")
def _sigmoid_samples():
    return unary("sigmoid", sigmoid_ref) + [
        Sample("saturated", const([-50.0, -1.0, 0.0, 1.0, 50.0]),
               lambda a: a.sigmoid(), sigmoid_ref)]


# -- matmul, reductions, shapes ------------------------------------------

@op("matmul")
def _matmul_samples():
    shapes = [((2, 3), (3, 4)), ((3,), (3, 4)), ((2, 3), (3,)),
              ((3,), (3,)), ((5, 2, 3), (3, 4)), ((5, 2, 3), (5, 3, 4))]
    return [Sample(f"{shape_name(a)}@{shape_name(b)}", randn(a, b),
                   lambda a, b: a @ b, np.matmul) for a, b in shapes]


def reduction(method, axis, keepdims):
    axes = "all" if axis is None else ",".join(map(str, np.atleast_1d(axis)))
    return Sample(f"axis={axes}-keepdims={keepdims}", randn((2, 3, 4)),
                  lambda a: getattr(a, method)(axis=axis, keepdims=keepdims),
                  lambda a: getattr(a, method)(axis=axis, keepdims=keepdims))


@op("sum")
def _sum_samples():
    return [reduction("sum", axis, keepdims) for axis, keepdims in
            [(None, False), (0, False), (1, False), (0, True),
             ((0, 1), False), ((0, 2), True), (-1, False)]]


@op("mean")
def _mean_samples():
    return [reduction("mean", axis, keepdims) for axis, keepdims in
            [(None, False), (0, False), (1, False), ((0, 2), True),
             (2, True)]]


@op("reshape")
def _reshape_samples():
    return [Sample("2x6-to-3x4", randn((2, 6)), lambda a: a.reshape(3, 4),
                   lambda a: a.reshape(3, 4)),
            Sample("minus-one", randn((2, 6)), lambda a: a.reshape(4, -1),
                   lambda a: a.reshape(4, 3)),
            Sample("tuple-arg", randn((6,)), lambda a: a.reshape((2, 3)),
                   lambda a: a.reshape(2, 3))]


@op("transpose")
def _transpose_samples():
    return [Sample("axes", randn((2, 3, 4)), lambda a: a.transpose(1, 0, 2),
                   lambda a: a.transpose(1, 0, 2)),
            Sample("default-reverses", randn((2, 3, 4)),
                   lambda a: a.transpose(), lambda a: a.transpose(2, 1, 0)),
            Sample("T-property", randn((2, 3)), lambda a: a.T,
                   lambda a: a.T)]


@op("getitem")
def _getitem_samples():
    index = np.array([0, 0, 2])
    return [Sample("slice", randn((4, 5)), lambda a: a[1:3, ::2],
                   lambda a: a[1:3, ::2]),
            Sample("int", randn((4, 5)), lambda a: a[2], lambda a: a[2]),
            # A repeated index accumulates its gradient: d/da = [2, 0, 1].
            Sample("fancy-accumulates", randn((3,)), lambda a: a[index],
                   lambda a: a[index])]


@op("concatenate")
def _concatenate_samples():
    return [Sample("axis1", randn((2, 3), (2, 2)),
                   lambda a, b: concatenate([a, b], axis=1),
                   lambda a, b: np.concatenate([a, b], axis=1)),
            Sample("axis0-three", randn((1, 3), (2, 3), (3, 3)),
                   lambda *ts: concatenate(ts, axis=0),
                   lambda *arrays: np.concatenate(arrays, axis=0))]


@op("stack")
def _stack_samples():
    return [Sample("axis1", randn((2, 3), (2, 3)),
                   lambda a, b: stack([a, b], axis=1),
                   lambda a, b: np.stack([a, b], axis=1)),
            Sample("negative-axis", randn((2, 3), (2, 3)),
                   lambda a, b: stack([a, b], axis=-1),
                   lambda a, b: np.stack([a, b], axis=-1))]


# -- nn ops ----------------------------------------------------------------

def softmax_ref(a, axis):
    e = np.exp(a - a.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


@op("softmax")
def _softmax_samples():
    return [Sample(f"axis{axis}", randn((3, 4)),
                   lambda a, axis=axis: softmax(a, axis=axis),
                   lambda a, axis=axis: softmax_ref(a, axis))
            for axis in (1, 0)] + [
        Sample("large-logits", const([1e4, 0.0]),
               lambda a: softmax(a, axis=0), lambda a: np.array([1.0, 0.0]))]


@op("binarize_ste", grad_rule=lambda arrays, out, g: (g,))
def _binarize_samples():
    return [
        # Paper Eq. 2: H(γ̂ - δ) = 1 for γ̂ >= δ, so 0.5 binarizes to 1.
        Sample("inclusive-threshold", const([0.2, 0.5, 0.9]),
               binarize_ste, lambda a: np.array([0.0, 1.0, 1.0])),
        Sample("custom-threshold", const([0.2, 0.3]),
               lambda a: binarize_ste(a, threshold=0.25),
               lambda a: np.array([0.0, 1.0])),
        Sample("random", randn((3, 4), shift=0.5),
               binarize_ste, lambda a: (a >= 0.5).astype(float)),
        # The rescue: fewer than min_keep entries pass, so the min_keep
        # largest entries are 1 as well.
        Sample("rescue-top-k", const([0.1, 0.4, 0.2, 0.45]),
               lambda a: binarize_ste(a, min_keep=2),
               lambda a: np.array([0.0, 1.0, 0.0, 1.0])),
        # Of the replay test's three steps only the last needs the rescue.
        # Reference: at or above the threshold, or among the two largest.
        Sample("rescue-random", randn((6,)),
               lambda a: binarize_ste(a, min_keep=2),
               lambda a: np.maximum(a >= 0.5,
                                    np.argsort(np.argsort(a)) >= 4) * 1.0)]


def keep_mask(seed, shape, p):
    return (np.random.default_rng(seed).random(shape) >= p) / (1.0 - p)


def dropout_grad(arrays, out, g):
    # The saved keep-mask is out / x (the sample inputs have no zeros).
    return (g * out / arrays[0],)


@op("dropout", grad_rule=dropout_grad)
def _dropout_samples():
    def sample(p, shape, seed):
        rng = np.random.default_rng(seed)
        return Sample(f"p={p}", randn(shape, shift=3.0),
                      lambda a: dropout(a, p, training=True, rng=rng),
                      lambda a: a * keep_mask(seed, a.shape, p))
    return [sample(0.5, (4, 5), 3), sample(0.25, (10, 10), 0)]


@op("dropout_stacked", grad_rule=dropout_grad)
def _dropout_stacked_samples():
    def sample(name, active):
        rngs = [np.random.default_rng(seed) for seed in (0, 1)]

        def ref(a):
            keep = [keep_mask(m, a.shape[1:], 0.5) if active is None
                    or active[m] else np.ones(a.shape[1:]) for m in (0, 1)]
            return a * np.stack(keep)
        return Sample(name, randn((2, 3, 4), shift=3.0),
                      lambda a: dropout_stacked(a, 0.5, True, rngs,
                                                active=active), ref)
    # An inactive slice draws nothing and passes through unscaled.
    return [sample("all-active", None),
            sample("one-inactive", np.array([1.0, 0.0]))]


# The layouts BatchNorm1d and StackedBatchNorm1d normalize: name, input
# shape, reduced axes, the shape weight and bias broadcast as, and their
# own shape.
BN_LAYOUTS = [("NCT", (4, 3, 5), (0, 2), (1, 3, 1), (3,)),
              ("NC", (6, 3), (0,), (1, 3), (3,)),
              ("stacked-MNCT", (2, 4, 3, 5), (1, 3), (2, 1, 3, 1), (2, 3))]


def batch_stats_ref(x, axes):
    return np.stack((x.mean(axis=axes, keepdims=True),
                     x.var(axis=axes, keepdims=True)))


@op("batch_norm_stats", detached=True)
def _batch_norm_stats_samples():
    return [Sample(name, randn(x_shape, shift=2.0, scale=3.0),
                   lambda x, axes=axes: batch_norm_stats(x, axes),
                   lambda x, axes=axes: batch_stats_ref(x, axes))
            for name, x_shape, axes, _, _ in BN_LAYOUTS]


def batch_norm_ref(x, w, b, axes, shape, eps=1e-5):
    mean, var = batch_stats_ref(x, axes)
    return ((x - mean) / np.sqrt(var + eps) * w.reshape(shape)
            + b.reshape(shape))


@op("batch_norm")
def _batch_norm_samples():
    # The stacked layout carries per-model weights; the gradient check
    # perturbs x through both ops, so it also checks that the closed form
    # covers how the (gradient-free) statistics depend on x.
    def call(x, w, b, axes, shape):
        return batch_norm(x, batch_norm_stats(x, axes), w, b, axes, shape,
                          1e-5)
    return [Sample(name, randn(x_shape, p_shape, p_shape),
                   lambda x, w, b, axes=axes, shape=shape:
                       call(x, w, b, axes, shape),
                   lambda x, w, b, axes=axes, shape=shape:
                       batch_norm_ref(x, w, b, axes, shape))
            for name, x_shape, axes, shape, p_shape in BN_LAYOUTS]


# -- convolution and pooling ---------------------------------------------

def conv_ref(x, w, b=None, dilation=1, stride=1):
    """Paper Eq. 1: kernel index K-1 reads lag 0, index i lag
    (K-1-i)·dilation; left zero padding keeps it causal."""
    n, c, t = x.shape
    k = w.shape[2]
    xp = np.concatenate([np.zeros((n, c, (k - 1) * dilation)), x], axis=2)
    out = sum(np.einsum("oc,nct->not", w[:, :, i],
                        xp[:, :, i * dilation: i * dilation + t])
              for i in range(k))
    if b is not None:
        out = out + b[None, :, None]
    return out[:, :, ::stride]


@op("conv1d_causal")
def _conv_samples():
    return [Sample("bias-dilation2", randn((2, 3, 10), (4, 3, 3), (4,)),
                   lambda x, w, b: conv1d_causal(x, w, b, dilation=2),
                   lambda x, w, b: conv_ref(x, w, b, dilation=2)),
            Sample("stride2-no-bias", randn((2, 3, 9), (4, 3, 2)),
                   lambda x, w: conv1d_causal(x, w, stride=2),
                   lambda x, w: conv_ref(x, w, stride=2))]


PATH_DILATIONS = (1, 2, 4)  # rf 5: branches of 5, 3 and 2 taps


def path_branch_outputs(x, alpha, *params, stride=1):
    """Every branch's conv; the op returns one of them."""
    return [conv_ref(x, w, b, dilation=d, stride=stride)
            for d, w, b in zip(PATH_DILATIONS, params[0::2], params[1::2])]


def path_grad(arrays, out, g):
    """α's straight-through gradient: the gate on the returned branch k is
    1 in value, so ∂L/∂p_k = Σ g·out, taken back through the softmax.  The
    branches' gradients are left to central differences."""
    x, alpha, *params = arrays
    outs = path_branch_outputs(*arrays, stride=x.shape[2] // out.shape[2])
    k = int(np.argmin([np.abs(o - out).max() for o in outs]))
    p = np.exp(alpha - alpha.max())
    p /= p.sum()
    gp = np.zeros_like(p)
    gp[k] = (g * out).sum()
    return (None, p * (gp - gp @ p)) + (None,) * len(params)


@op("conv1d_causal_path", grad_rule=path_grad)
def _path_conv_samples():
    def make(rng):
        x, alpha = rng.standard_normal((2, 3, 10)), rng.standard_normal(3)
        params = [a for k in (5, 3, 2) for a in randn((4, 3, k), (4,))(rng)]
        return (x, alpha, *params)

    def sample(name, seed, stride):
        # seed None: the argmax path; else a draw from its own generator.
        rng = None if seed is None else np.random.default_rng(seed)

        def call(x, alpha, *params):
            return conv1d_causal_path(
                x, alpha, list(zip(params[0::2], params[1::2])),
                PATH_DILATIONS, stride=stride, rng=rng, sample=rng is not None)

        def ref(x, alpha, *params):
            p = np.exp(alpha - alpha.max())
            k = (np.argmax(alpha) if seed is None else
                 np.random.default_rng(seed).choice(3, p=p / p.sum()))
            return path_branch_outputs(x, alpha, *params, stride=stride)[k]
        return Sample(name, make, call, ref)
    return [sample("argmax", None, 1), sample("sampled-stride2", 4, 2)]


@op("conv1d_causal_masked")
def _masked_conv_samples():
    def sample(name, mask, bias=False, stride=1):
        shapes = [(2, 3, 11), (4, 3, 5)] + ([(4,)] if bias else [])

        def make(rng):
            x, w, *b = randn(*shapes)(rng)
            return (x, w, np.array(mask, dtype=np.float64), *b)
        return Sample(
            name, make,
            lambda x, w, m, *b: conv1d_causal_masked(x, w, m, *b,
                                                     stride=stride),
            lambda x, w, m, *b: conv_ref(x, w * m, *b, stride=stride))
    # A dilation-2 pattern (live taps only), a dead prefix, and an
    # irregular pattern that computes every tap.
    return [sample("dilated", [1.0, 0.0, 1.0, 0.0, 1.0]),
            sample("dead-prefix-bias-stride2", [0.0, 0.0, 1.0, 1.0, 1.0],
                   bias=True, stride=2),
            sample("irregular", [1.0, 1.0, 0.0, 1.0, 1.0])]


@op("conv1d_causal_masked_stacked")
def _masked_stacked_conv_samples():
    # One mask per slice: every tap live, a dilated tail, a single live
    # tap, and an irregular pattern that computes every tap.
    masks = [[1.0, 1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 1.0, 0.0, 1.0],
             [0.0, 0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 0.0, 1.0, 1.0]]

    def sample(name, bias=False, stride=1):
        shapes = [(4, 2, 3, 11), (4, 4, 3, 5)] + ([(4, 4)] if bias else [])

        def make(rng):
            x, w, *b = randn(*shapes)(rng)
            return (x, w, np.array(masks), *b)

        def ref(x, w, m, *b):
            return np.stack([conv_ref(x[i], w[i] * m[i],
                                      *(c[i] for c in b), stride=stride)
                             for i in range(len(masks))])
        return Sample(
            name, make,
            lambda x, w, m, *b: conv1d_causal_masked_stacked(
                x, w, m, *b, stride=stride),
            ref)
    return [sample("per-slice-masks"),
            sample("per-slice-masks-bias-stride2", bias=True, stride=2)]


@op("conv1d_causal_stacked")
def _stacked_conv_samples():
    def ref(x, w, b=None, **kw):
        return np.stack([conv_ref(x[m], w[m], None if b is None else b[m],
                                  **kw) for m in range(x.shape[0])])
    return [Sample("bias-dilation2", randn((2, 2, 3, 8), (2, 4, 3, 3), (2, 4)),
                   lambda x, w, b: conv1d_causal_stacked(x, w, b, dilation=2),
                   lambda x, w, b: ref(x, w, b, dilation=2)),
            Sample("stride2-no-bias", randn((2, 2, 3, 9), (2, 4, 3, 2)),
                   lambda x, w: conv1d_causal_stacked(x, w, stride=2),
                   lambda x, w: ref(x, w, stride=2))]


def avg_pool_ref(x, k, s):
    t_out = (x.shape[2] - k) // s + 1
    return np.stack([x[:, :, j * s: j * s + k].mean(axis=2)
                     for j in range(t_out)], axis=2)


@op("avg_pool1d")
def _avg_pool_samples():
    return [Sample("k3-stride2", randn((2, 3, 9)),
                   lambda x: avg_pool1d(x, 3, stride=2),
                   lambda x: avg_pool_ref(x, 3, 2)),
            # Incomplete trailing windows are dropped: 7 -> 3 outputs.
            Sample("k2-drops-trailing", randn((1, 2, 7)),
                   lambda x: avg_pool1d(x, 2),
                   lambda x: avg_pool_ref(x, 2, 2))]


# ----------------------------------------------------------------------
# The checks every sample runs
# ----------------------------------------------------------------------

CASES = [(name, i) for name, info in OPS.items()
         for i in range(len(info.samples()))]
IDS = [f"{name}-{OPS[name].samples()[i].name}" for name, i in CASES]
cases = pytest.mark.parametrize("name,index", CASES, ids=IDS)


def sample_of(name, index) -> Sample:
    """A freshly built sample: its generators start from their seeds."""
    return OPS[name].samples()[index]


def leaves(arrays, requires_grad=True):
    return [Tensor(a, requires_grad=requires_grad) for a in arrays]


def defined_opdefs():
    return [value for module in (tensor, ops_nn, ops_conv)
            for value in vars(module).values() if isinstance(value, OpDef)]


@contextlib.contextmanager
def raw_kernel_dtypes():
    """Wrap every ``OpDef``'s kernels; yields the list of ``(kernel,
    dtype)`` each forward output and backward gradient appends, as the
    kernel returned it, before ``Tensor()`` or the replay coerce it."""
    seen = []

    def wrap_fwd(op, fwd):
        def run(ins, attrs):
            out, ctx = fwd(ins, attrs)
            seen.append((f"{op.name}.fwd", np.asarray(out).dtype))
            return out, ctx
        return run

    def wrap_bwd(op, bwd):
        def run(*args):
            grads = bwd(*args)
            seen.extend((f"{op.name}.bwd", np.asarray(g).dtype)
                        for g in grads if g is not None)
            return grads
        return run
    saved = [(op, op.fwd, op.bwd) for op in defined_opdefs()]
    try:
        for op, fwd, bwd in saved:
            op.fwd = wrap_fwd(op, fwd)
            if bwd is not None:
                op.bwd = wrap_bwd(op, bwd)
        yield seen
    finally:
        for op, fwd, bwd in saved:
            op.fwd, op.bwd = fwd, bwd


def test_every_opdef_has_an_entry():
    assert {op.name for op in defined_opdefs()} == set(OPS)


@cases
def test_forward_matches_numpy(name, index):
    sample = sample_of(name, index)
    arrays = sample.make(np.random.default_rng(0))
    with default_dtype_scope("float64"), capture() as tracer:
        out = sample.call(*leaves(arrays, requires_grad=False))
    assert name in {node.op.name for node in tracer.records}
    assert out.dtype == np.float64
    np.testing.assert_allclose(out.data, sample.ref(*arrays),
                               rtol=1e-10, atol=1e-12)


@cases
def test_gradients(name, index):
    sample, rule = sample_of(name, index), OPS[name].grad_rule
    rng = np.random.default_rng(0)
    arrays = sample.make(rng)
    with default_dtype_scope("float64"):
        inputs = leaves(arrays)
        if OPS[name].detached:
            assert not sample.call(*inputs).requires_grad
            return
        expected = [None] * len(arrays)
        if rule is not None:
            out = sample.call(*inputs)
            upstream = rng.standard_normal(out.shape)
            out.backward(upstream)
            expected = rule(arrays, out.data, upstream)
            for t, grad in zip(inputs, expected):
                if grad is not None:
                    np.testing.assert_allclose(t.grad, grad, rtol=1e-12)
        numeric = [Tensor(a, requires_grad=grad is None)
                   for a, grad in zip(arrays, expected)]
        if any(t.requires_grad for t in numeric):
            # A fresh sample per evaluation: an op drawing from a
            # generator draws the same values every time.
            weights = Tensor(rng.standard_normal(sample.ref(*arrays).shape))
            check_gradients(
                lambda *ts: sample_of(name, index).call(*ts) * weights,
                numeric)


@cases
def test_compiled_replay_matches_eager(name, index):
    """Three steps, each with fresh input values written into the leaves
    (as an optimizer would) and a fresh upstream weighting as the batch.

    A detached op's output is scaled by a differentiable scalar, so the
    step has a loss and the scalar's gradient ``sum(out * y)`` shows the
    replay recomputed the output."""
    detached = OPS[name].detached
    runs = {}
    for compiled in (False, True):
        sample = sample_of(name, index)
        rng = np.random.default_rng(2)
        with default_dtype_scope("float64"):
            values = [sample.make(rng) for _ in range(3)]
            params = leaves([a.copy() for a in values[0]])
            scale = Tensor(1.0, requires_grad=True)
            graded = [scale] if detached else params

            def step_fn(x, y):
                out = sample.call(*params)
                return ((out * scale if detached else out) * y).sum()
            step = CompiledStep(step_fn) if compiled else EagerStep(step_fn)
            trace = []
            for arrays in values:
                for p, a in zip(params, arrays):
                    p.data[...] = a
                for p in graded:
                    p.grad = None
                y = rng.standard_normal(sample.ref(*arrays).shape)
                loss = step(np.zeros(1), y)
                trace.append((loss, [None if p.grad is None else p.grad.copy()
                                     for p in graded]))
        runs[compiled] = trace
    assert step.compiled_shapes
    for (loss_e, grads_e), (loss_c, grads_c) in zip(runs[False], runs[True]):
        assert loss_e == loss_c
        for ge, gc in zip(grads_e, grads_c):
            assert (ge is None) == (gc is None)
            assert ge is None or np.array_equal(ge, gc)


@cases
def test_float32_outputs_and_gradients(name, index):
    """The kernels themselves compute in float32: a float64 result the
    dispatch casts back costs a double-width array and a copy."""
    sample = sample_of(name, index)
    arrays = sample.make(np.random.default_rng(0))
    with default_dtype_scope("float32"), raw_kernel_dtypes() as seen:
        inputs = leaves(arrays)
        out = sample.call(*inputs)
        if not OPS[name].detached:
            out.backward(np.ones(out.shape))
    kernels = {kernel for kernel, _ in seen}
    assert f"{name}.fwd" in kernels
    assert OPS[name].detached or f"{name}.bwd" in kernels
    assert [(kernel, dtype) for kernel, dtype in seen
            if dtype != np.float32] == []
    np.testing.assert_allclose(out.data, sample.ref(*arrays),
                               rtol=1e-4, atol=1e-4)
