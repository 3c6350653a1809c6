"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the whole reproduction: the paper's method
(PIT) is a differentiable architecture search, so it needs a tensor library
with gradients.  The environment provides no deep-learning framework, hence
we implement a small but complete reverse-mode engine, in the spirit of
PyTorch's eager autograd:

* :class:`Tensor` wraps a ``numpy.ndarray`` and records the operations that
  produced it (its *parents* plus a shared :class:`OpDef` describing the op).
* Calling :meth:`Tensor.backward` topologically sorts the recorded graph and
  accumulates gradients into every leaf with ``requires_grad=True``.
* All elementwise ops broadcast like numpy; gradients are "unbroadcast"
  (summed) back to the original operand shapes.

Unlike the original closure-based tape, every operator is described by an
:class:`OpDef` — a pair of *pure* numpy kernels (forward and backward) shared
by all calls — and routed through a single dispatch point, :func:`apply_op`.
That removes thousands of per-step closure allocations from the eager hot
path, and it is what makes the graph-capture executor possible: a thread-local
tracer (see :mod:`repro.autograd.graph`) can observe every dispatch, record a
static IR of one training step, and replay it later by invoking exactly the
same kernels in exactly the same order — which is why compiled execution is
bit-identical to eager.

Every operator has an entry in the op table of ``tests/test_ops.py``,
which checks it against numpy and finite differences (see also
:mod:`repro.autograd.gradcheck`) and its compiled replay against eager.

The default dtype is ``float32``: it halves the memory traffic of the
im2col patches and GEMMs that dominate a search, and no searched network
changes with it (the deployed network is int8 anyway).
``repro.set_default_dtype("float64")`` (or ``REPRO_DTYPE=float64``)
switches the whole substrate to double precision, which the oracle and
parity tests use; gradient checking stays pinned to float64 regardless.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "OpDef",
    "Tensor",
    "apply_op",
    "record_side_effect",
    "no_grad",
    "is_grad_enabled",
    "set_default_dtype",
    "get_default_dtype",
    "default_dtype_scope",
    "concatenate",
    "stack",
]

# Per-thread tape switch: trainings running in concurrent threads must
# not see another thread's no_grad() evaluation window.
_GRAD_STATE = threading.local()

# Per-thread graph tracer (see repro.autograd.graph.capture): while a
# GraphCapture is pushed here, apply_op reports every dispatch to it.
# Thread-local for the same reason no_grad is — concurrent threads must
# be able to trace their own step without observing each other's ops.
_TRACE_STATE = threading.local()


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph recording (like ``torch.no_grad``).

    The switch is thread-local, so disabling the tape in one thread never
    affects graphs being built concurrently in others.
    """
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations are currently recorded on the tape
    (in the calling thread)."""
    return getattr(_GRAD_STATE, "enabled", True)


# ----------------------------------------------------------------------
# Default dtype configuration
# ----------------------------------------------------------------------

ENV_DTYPE = "REPRO_DTYPE"

_SUPPORTED_DTYPES = {"float32": np.float32, "float64": np.float64}

# A mistyped REPRO_DTYPE is deliberately NOT validated here: this module is
# imported by `import repro`, and failing at import time would crash even
# `repro.cli --help`.  The name is checked on first use (get_default_dtype),
# where the error can surface with context.
_DTYPE_NAME = os.environ.get(ENV_DTYPE) or "float32"
_DTYPE_RESOLVED = None


def _resolve_dtype(dtype) -> type:
    name = dtype if isinstance(dtype, str) else np.dtype(dtype).name
    if name not in _SUPPORTED_DTYPES:
        raise ValueError(f"unsupported dtype {dtype!r}; "
                         f"choose from {sorted(_SUPPORTED_DTYPES)}")
    return _SUPPORTED_DTYPES[name]


def get_default_dtype():
    """The numpy scalar type every :class:`Tensor` stores (float32 default)."""
    global _DTYPE_RESOLVED
    if _DTYPE_RESOLVED is None:
        try:
            _DTYPE_RESOLVED = _resolve_dtype(_DTYPE_NAME)
        except ValueError as exc:
            raise ValueError(
                f"invalid {ENV_DTYPE} value {_DTYPE_NAME!r}: {exc}") from exc
    return _DTYPE_RESOLVED


def set_default_dtype(dtype) -> None:
    """Set the process-wide tensor dtype: ``"float32"`` or ``"float64"``.

    Affects tensors created afterwards; existing tensors keep their storage.
    Mixed graphs work (numpy promotes), but for the compiled-step and
    conv-kernel parity guarantees switch dtypes between runs, not mid-graph.
    """
    global _DTYPE_NAME, _DTYPE_RESOLVED
    _DTYPE_RESOLVED = _resolve_dtype(dtype)
    _DTYPE_NAME = np.dtype(_DTYPE_RESOLVED).name


@contextlib.contextmanager
def default_dtype_scope(dtype):
    """Temporarily switch the default dtype (process-wide, not thread-local).

    Used by :mod:`repro.autograd.gradcheck` to pin numerical differentiation
    to float64 even when the library runs in float32 mode.
    """
    previous = get_default_dtype()
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


def _as_array(value) -> np.ndarray:
    """Coerce python scalars / lists / arrays to the default float ndarray."""
    dtype = get_default_dtype()
    if isinstance(value, np.ndarray):
        if value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting.

    Broadcasting may both prepend axes and stretch size-1 axes; the adjoint
    of a broadcast is a sum over the broadcasted axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched (size-1) axes.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ----------------------------------------------------------------------
# Op dispatch
# ----------------------------------------------------------------------

class OpDef:
    """A differentiable operator as a pair of pure numpy kernels.

    Parameters
    ----------
    name:
        Stable identifier (used by the graph IR and error messages).
    fwd:
        ``fwd(ins, attrs) -> (out, ctx)`` where ``ins`` is a tuple of input
        arrays and ``attrs`` the op's static attributes (axis, dilation,
        ...).  ``ctx`` carries forward-pass byproducts the backward needs
        (e.g. a dropout keep-mask); None when there are none.
    bwd:
        ``bwd(grad, ins, out, ctx, attrs, needs) -> grads`` returning one
        gradient (or None) per input; ``needs[i]`` tells whether input ``i``
        requires a gradient.  None for an op that is only ever dispatched
        detached (``apply_op(..., detach=True)``).

    Kernels must be *pure* in the buffers: they may close over static
    configuration but never over arrays of a particular call — this is the
    contract that lets the graph executor replay a recorded op on fresh
    batch data.
    """

    __slots__ = ("name", "fwd", "bwd")

    def __init__(self, name: str, fwd: Callable, bwd: Callable):
        self.name = name
        self.fwd = fwd
        self.bwd = bwd

    def __repr__(self) -> str:
        return f"OpDef({self.name!r})"


_NO_ATTRS: Dict = {}


def apply_op(op: OpDef, inputs: Sequence["Tensor"],
             attrs: Optional[Dict] = None, detach: bool = False) -> "Tensor":
    """Dispatch point of every differentiable operator.

    Runs ``op``'s forward kernel on the inputs' arrays, wires the result
    into the autograd graph (unless ``detach`` or grads are disabled), and
    reports the dispatch to the active :class:`GraphCapture` tracer, if any.
    """
    if attrs is None:
        attrs = _NO_ATTRS
    arrays = tuple(t.data for t in inputs)
    out_data, ctx = op.fwd(arrays, attrs)
    out = Tensor(out_data)
    if not detach and is_grad_enabled() and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._parents = tuple(inputs)
        out._op = op
        out._ctx = ctx
        out._attrs = attrs
    tracer = getattr(_TRACE_STATE, "tracer", None)
    if tracer is not None:
        tracer.record(op, inputs, out, attrs)
    return out


def record_side_effect(inputs: Sequence["Tensor"], fn: Callable) -> None:
    """Run ``fn(*input_arrays)`` now and replay it with the captured graph.

    For stateful updates that live *next to* the differentiable graph but
    outside it — e.g. BatchNorm's running statistics, which are computed
    from the batch-mean/variance nodes with plain numpy.  Eagerly this is
    just a call; under capture the effect is recorded at its program
    position so the compiled step reproduces it on every replay.  ``fn``
    must only close over static state (the module), never over arrays of a
    particular batch.
    """
    fn(*(t.data for t in inputs))
    tracer = getattr(_TRACE_STATE, "tracer", None)
    if tracer is not None:
        tracer.record_effect(tuple(inputs), fn)


def push_tracer(tracer) -> None:
    """Install a graph tracer for the calling thread (no nesting)."""
    if getattr(_TRACE_STATE, "tracer", None) is not None:
        raise RuntimeError("a graph capture is already active in this thread")
    _TRACE_STATE.tracer = tracer


def pop_tracer() -> None:
    _TRACE_STATE.tracer = None


def _topo_sort(root: "Tensor") -> List["Tensor"]:
    """Iterative DFS topological sort of ``root``'s ancestor graph.

    Shared between eager :meth:`Tensor.backward` and the graph capture's
    backward-schedule builder so both traverse (and therefore accumulate
    gradients) in exactly the same order — a prerequisite for the
    compiled-vs-eager bit-parity guarantee.
    """
    topo: List[Tensor] = []
    visited: set = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return topo


# ----------------------------------------------------------------------
# Op kernels
#
# Each kernel pair reproduces the expressions of the original closure tape
# verbatim — the numbers must not change, only where they are computed.
# ----------------------------------------------------------------------

# -- elementwise arithmetic ---------------------------------------------

def _add_fwd(ins, attrs):
    return ins[0] + ins[1], None


def _add_bwd(g, ins, out, ctx, attrs, needs):
    return (_unbroadcast(g, ins[0].shape) if needs[0] else None,
            _unbroadcast(g, ins[1].shape) if needs[1] else None)


_ADD = OpDef("add", _add_fwd, _add_bwd)


def _sub_fwd(ins, attrs):
    return ins[0] - ins[1], None


def _sub_bwd(g, ins, out, ctx, attrs, needs):
    return (_unbroadcast(g, ins[0].shape) if needs[0] else None,
            _unbroadcast(-g, ins[1].shape) if needs[1] else None)


_SUB = OpDef("sub", _sub_fwd, _sub_bwd)


def _mul_fwd(ins, attrs):
    return ins[0] * ins[1], None


def _mul_bwd(g, ins, out, ctx, attrs, needs):
    a, b = ins
    return (_unbroadcast(g * b, a.shape) if needs[0] else None,
            _unbroadcast(g * a, b.shape) if needs[1] else None)


_MUL = OpDef("mul", _mul_fwd, _mul_bwd)


def _div_fwd(ins, attrs):
    return ins[0] / ins[1], None


def _div_bwd(g, ins, out, ctx, attrs, needs):
    a, b = ins
    return (_unbroadcast(g / b, a.shape) if needs[0] else None,
            _unbroadcast(-g * a / (b ** 2), b.shape) if needs[1] else None)


_DIV = OpDef("div", _div_fwd, _div_bwd)


def _neg_fwd(ins, attrs):
    return -ins[0], None


def _neg_bwd(g, ins, out, ctx, attrs, needs):
    return (-g,)


_NEG = OpDef("neg", _neg_fwd, _neg_bwd)


def _abs_fwd(ins, attrs):
    return np.abs(ins[0]), None


def _abs_bwd(g, ins, out, ctx, attrs, needs):
    return (g * np.sign(ins[0]),)


_ABS = OpDef("abs", _abs_fwd, _abs_bwd)


def _exp_fwd(ins, attrs):
    return np.exp(ins[0]), None


def _exp_bwd(g, ins, out, ctx, attrs, needs):
    return (g * out,)


_EXP = OpDef("exp", _exp_fwd, _exp_bwd)


def _log_fwd(ins, attrs):
    return np.log(ins[0]), None


def _log_bwd(g, ins, out, ctx, attrs, needs):
    return (g / ins[0],)


_LOG = OpDef("log", _log_fwd, _log_bwd)


def _sqrt_fwd(ins, attrs):
    return np.sqrt(ins[0]), None


def _sqrt_bwd(g, ins, out, ctx, attrs, needs):
    return (g * 0.5 / out,)


_SQRT = OpDef("sqrt", _sqrt_fwd, _sqrt_bwd)


# -- matrix multiplication ----------------------------------------------

def _matmul_fwd(ins, attrs):
    return ins[0] @ ins[1], None


def _matmul_bwd(g, ins, out, ctx, attrs, needs):
    a, b = ins
    grad_a = grad_b = None
    if needs[0]:
        if b.ndim == 1:
            grad_a = g * b if a.ndim == 1 else np.expand_dims(g, -1) * b
        else:
            grad_a = g @ np.swapaxes(b, -1, -2)
            grad_a = _unbroadcast(grad_a, a.shape)
        grad_a = grad_a.reshape(a.shape)
    if needs[1]:
        if a.ndim == 1:
            grad_b = g * a if b.ndim == 1 else np.multiply.outer(a, g)
        elif b.ndim == 1:
            grad_b = np.swapaxes(a, -1, -2) @ np.expand_dims(g, -1)
            grad_b = _unbroadcast(grad_b.squeeze(-1), b.shape)
        else:
            grad_b = _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)
        grad_b = grad_b.reshape(b.shape)
    return grad_a, grad_b


_MATMUL = OpDef("matmul", _matmul_fwd, _matmul_bwd)


# -- reductions ----------------------------------------------------------

def _sum_fwd(ins, attrs):
    return ins[0].sum(axis=attrs["axis"], keepdims=attrs["keepdims"]), None


def _sum_bwd(g, ins, out, ctx, attrs, needs):
    a = ins[0]
    axis = attrs["axis"]
    if axis is not None and not attrs["keepdims"]:
        g = np.expand_dims(g, axis=_normalize_axes(axis, a.ndim))
    return (np.broadcast_to(g, a.shape).copy(),)


_SUM = OpDef("sum", _sum_fwd, _sum_bwd)


def _mean_fwd(ins, attrs):
    return ins[0].mean(axis=attrs["axis"], keepdims=attrs["keepdims"]), None


def _mean_bwd(g, ins, out, ctx, attrs, needs):
    a = ins[0]
    axis = attrs["axis"]
    count = a.size if axis is None else _axis_size(a.shape, axis)
    g = g / count
    if axis is not None and not attrs["keepdims"]:
        g = np.expand_dims(g, axis=_normalize_axes(axis, a.ndim))
    return (np.broadcast_to(g, a.shape).copy(),)


_MEAN = OpDef("mean", _mean_fwd, _mean_bwd)


# -- shape manipulation --------------------------------------------------

def _reshape_fwd(ins, attrs):
    return ins[0].reshape(attrs["shape"]), None


def _reshape_bwd(g, ins, out, ctx, attrs, needs):
    return (g.reshape(ins[0].shape),)


_RESHAPE = OpDef("reshape", _reshape_fwd, _reshape_bwd)


def _transpose_fwd(ins, attrs):
    return ins[0].transpose(attrs["axes"]), None


def _transpose_bwd(g, ins, out, ctx, attrs, needs):
    return (g.transpose(tuple(np.argsort(attrs["axes"]))),)


_TRANSPOSE = OpDef("transpose", _transpose_fwd, _transpose_bwd)


def _getitem_fwd(ins, attrs):
    return ins[0][attrs["index"]], None


def _getitem_bwd(g, ins, out, ctx, attrs, needs):
    full = np.zeros_like(ins[0])
    np.add.at(full, attrs["index"], g)
    return (full,)


_GETITEM = OpDef("getitem", _getitem_fwd, _getitem_bwd)


# -- activations ---------------------------------------------------------

def _sigmoid_fwd(ins, attrs):
    return _stable_sigmoid(ins[0]), None


def _sigmoid_bwd(g, ins, out, ctx, attrs, needs):
    return (g * out * (1.0 - out),)


_SIGMOID = OpDef("sigmoid", _sigmoid_fwd, _sigmoid_bwd)


def _tanh_fwd(ins, attrs):
    return np.tanh(ins[0]), None


def _tanh_bwd(g, ins, out, ctx, attrs, needs):
    return (g * (1.0 - out ** 2),)


_TANH = OpDef("tanh", _tanh_fwd, _tanh_bwd)


def _relu_fwd(ins, attrs):
    return np.maximum(ins[0], 0.0), None


def _relu_bwd(g, ins, out, ctx, attrs, needs):
    return (g * (ins[0] > 0.0),)


_RELU = OpDef("relu", _relu_fwd, _relu_bwd)


# -- variadic / free-function ops ---------------------------------------

def _concat_fwd(ins, attrs):
    return np.concatenate(ins, axis=attrs["axis"]), None


def _concat_bwd(g, ins, out, ctx, attrs, needs):
    axis = attrs["axis"]
    sizes = [a.shape[axis] for a in ins]
    offsets = np.cumsum([0] + sizes)
    grads = []
    for a, need, start, stop in zip(ins, needs, offsets[:-1], offsets[1:]):
        if need:
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, stop)
            grads.append(g[tuple(sl)])
        else:
            grads.append(None)
    return tuple(grads)


_CONCAT = OpDef("concatenate", _concat_fwd, _concat_bwd)


def _stack_fwd(ins, attrs):
    return np.stack(ins, axis=attrs["axis"]), None


def _stack_bwd(g, ins, out, ctx, attrs, needs):
    moved = np.moveaxis(g, attrs["axis"], 0)
    return tuple(moved[i] if need else None for i, need in enumerate(needs))


_STACK = OpDef("stack", _stack_fwd, _stack_bwd)


# ----------------------------------------------------------------------
# Tensor
# ----------------------------------------------------------------------

class Tensor:
    """A numpy-backed array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts.  Stored with the default dtype
        (see :func:`set_default_dtype`).
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    name:
        Optional label used in error messages and debugging dumps.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents",
                 "_op", "_ctx", "_attrs", "name")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._parents: Tuple["Tensor", ...] = ()
        self._op: Optional[OpDef] = None
        self._ctx = None
        self._attrs: Dict = _NO_ATTRS
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor({self.data!r}{grad_flag}{label})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._raise_item()

    def _raise_item(self):
        raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy).  Do not mutate in graphs."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but severed from the graph."""
        out = Tensor(self.data)
        out.data = self.data  # share storage, skip the copy made by asarray
        return out

    def copy(self) -> "Tensor":
        """Return a detached deep copy."""
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into :attr:`grad`, allocating on first use."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults to
            1.0, which requires this tensor to be a scalar (as with a loss).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    f"backward() without an explicit gradient requires a scalar "
                    f"output, got shape {self.shape}")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        if grad.shape != self.data.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match tensor shape {self.shape}")

        topo = _topo_sort(self)
        self._accumulate(grad)
        for node in reversed(topo):
            node_grad = node.grad
            if node_grad is None:
                continue
            op = node._op
            if op is not None:
                parents = node._parents
                needs = tuple(p.requires_grad for p in parents)
                grads = op.bwd(node_grad, tuple(p.data for p in parents),
                               node.data, node._ctx, node._attrs, needs)
                for parent, g in zip(parents, grads):
                    if g is not None and parent.requires_grad:
                        parent._accumulate(g)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        return apply_op(_ADD, (self, _ensure_tensor(other)))

    def __radd__(self, other) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other) -> "Tensor":
        return apply_op(_SUB, (self, _ensure_tensor(other)))

    def __rsub__(self, other) -> "Tensor":
        return _ensure_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        return apply_op(_MUL, (self, _ensure_tensor(other)))

    def __rmul__(self, other) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Tensor":
        return apply_op(_DIV, (self, _ensure_tensor(other)))

    def __rtruediv__(self, other) -> "Tensor":
        return _ensure_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return apply_op(_NEG, (self,))

    def abs(self) -> "Tensor":
        """Elementwise absolute value; subgradient 0 at exactly 0."""
        return apply_op(_ABS, (self,))

    def exp(self) -> "Tensor":
        return apply_op(_EXP, (self,))

    def log(self) -> "Tensor":
        return apply_op(_LOG, (self,))

    def sqrt(self) -> "Tensor":
        return apply_op(_SQRT, (self,))

    # ------------------------------------------------------------------
    # Matrix multiplication
    # ------------------------------------------------------------------
    def __matmul__(self, other) -> "Tensor":
        return apply_op(_MATMUL, (self, _ensure_tensor(other)))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op(_SUM, (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op(_MEAN, (self,), {"axis": axis, "keepdims": keepdims})

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply_op(_RESHAPE, (self,), {"shape": shape})

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return apply_op(_TRANSPOSE, (self,), {"axes": axes})

    def __getitem__(self, index) -> "Tensor":
        return apply_op(_GETITEM, (self,), {"index": index})

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def sigmoid(self) -> "Tensor":
        return apply_op(_SIGMOID, (self,))

    def tanh(self) -> "Tensor":
        return apply_op(_TANH, (self,))

    def relu(self) -> "Tensor":
        return apply_op(_RELU, (self,))


# ----------------------------------------------------------------------
# Free functions
# ----------------------------------------------------------------------

def _ensure_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _normalize_axes(axis, ndim: int):
    if isinstance(axis, int):
        return axis % ndim
    return tuple(a % ndim for a in axis)


def _axis_size(shape: Tuple[int, ...], axis) -> int:
    if isinstance(axis, int):
        return shape[axis % len(shape)]
    size = 1
    for a in axis:
        size *= shape[a % len(shape)]
    return size


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    expx = np.exp(x[~positive])
    out[~positive] = expx / (1.0 + expx)
    return out


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``numpy.concatenate``."""
    return apply_op(_CONCAT, tuple(_ensure_tensor(t) for t in tensors),
                    {"axis": axis})


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``numpy.stack``."""
    return apply_op(_STACK, tuple(_ensure_tensor(t) for t in tensors),
                    {"axis": axis})

