"""Outside-in timing of the program's layers.

Nothing here touches ``src/``: every measurement is a wrapper the benchmark
installs around a public function or method of the program after importing
it.  Two kinds of wrapper exist:

* :class:`Probe` — the few timestamps an *untraced* run needs to compute the
  end-to-end metrics (when training started and ended, how long each
  optimizer step took).  A handful of ``perf_counter`` calls per training
  step, nothing per op.
* :class:`Tracer` — nested spans around every layer boundary, installed only
  in traced runs.  A span's *self* time is its wall time minus the wall time
  of the spans nested directly inside it, so the self times of all layers
  never overlap and, together with the unattributed remainder, add up to
  the traced wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

_perf = time.perf_counter


class Probe:
    """Timestamps at the program's public entry points (always installed)."""

    def __init__(self):
        self.fits = []          # (trainer, loaders, result, t0, t1)
        self.runs = []          # (engine, result, t0 wall, t1 wall)
        self.step_ms = []       # per optimizer step: zero_grad -> step end
        self._step_start = None
        self.listen_wall = self.listen_cpu = None

    def install_training(self):
        from repro.core import PITTrainer, StackedPITTrainer
        from repro.evaluation import DSEEngine
        from repro.optim import Adam, Optimizer

        probe = self

        def fit_probe(fn):
            @functools.wraps(fn)
            def fit(self, train_loader, val_loader):
                t0 = time.time()
                result = fn(self, train_loader, val_loader)
                probe.fits.append((self, (train_loader, val_loader), result,
                                   t0, time.time()))
                return result
            return fit

        PITTrainer.fit = fit_probe(PITTrainer.fit)
        StackedPITTrainer.fit = fit_probe(StackedPITTrainer.fit)

        engine_run = DSEEngine.run

        @functools.wraps(engine_run)
        def run(self, *args, **kwargs):
            t0 = time.time()
            result = engine_run(self, *args, **kwargs)
            probe.runs.append((self, result, t0, time.time()))
            return result
        DSEEngine.run = run

        zero_grad = Optimizer.zero_grad

        @functools.wraps(zero_grad)
        def zero_grad_probe(self):
            probe._step_start = _perf()
            return zero_grad(self)
        Optimizer.zero_grad = zero_grad_probe

        adam_step = Adam.step

        @functools.wraps(adam_step)
        def step_probe(self):
            adam_step(self)
            if probe._step_start is not None:
                probe.step_ms.append((_perf() - probe._step_start) * 1e3)
                probe._step_start = None
        Adam.step = step_probe

    def install_serving(self):
        from repro.serving import StreamServer

        probe = self
        start = StreamServer.start

        @functools.wraps(start)
        async def start_probe(self, *args, **kwargs):
            address = await start(self, *args, **kwargs)
            probe.listen_wall = time.time()
            probe.listen_cpu = time.process_time()
            return address
        StreamServer.start = start_probe


def _prod(shape):
    n = 1
    for d in shape:
        n *= int(d)
    return n


class _Frame:
    __slots__ = ("child",)

    def __init__(self):
        self.child = 0.0


class _TimedIterator:
    def __init__(self, nxt, counters):
        self._next = nxt
        self._counters = counters

    def __iter__(self):
        return self

    def __next__(self):
        item = self._next()
        self._counters["data.batches"] += 1
        return item


class Tracer:
    """Nested wall-clock spans with self-time accounting."""

    def __init__(self):
        self._stack = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.durations = defaultdict(list)   # per-call wall time, kept spans
        self._keep = set()

    # -- spans -----------------------------------------------------------
    def wrap(self, name, fn, observe=None, keep_durations=False):
        """``fn`` timed as span ``name``; ``observe(args, kwargs)`` runs
        after the call to update counters (outside the span's time)."""
        stack, self_s, calls = self._stack, self.self_s, self.calls
        if keep_durations:
            self._keep.add(name)
        durations = self.durations[name] if keep_durations else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                stack.pop()
                self_s[name] += dt - frame.child
                calls[name] += 1
                if stack:
                    stack[-1].child += dt
                if durations is not None:
                    durations.append(dt)
                if observe is not None:
                    observe(args, kwargs)
        return span

    def wrap_method(self, owner, attr, name, **kw):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def wrap_everywhere(self, fn, name, **kw):
        """Replace ``fn`` in every loaded ``repro`` module that imported it
        by name, so callers binding it at import time see the span too
        (modules imported later bind the replaced name)."""
        wrapped = self.wrap(name, fn, **kw)
        for mod_name, module in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) \
                    and getattr(module, fn.__name__, None) is fn:
                setattr(module, fn.__name__, wrapped)
        return wrapped

    def timed_iter(self, iterator):
        """Each ``next()`` of ``iterator`` timed as span ``data.wait``."""
        return _TimedIterator(self.wrap("data.wait", iterator.__next__),
                              self.counters)

    # -- installation -----------------------------------------------------
    def install(self):
        """Wrap every layer boundary the benchmark reports."""
        from repro.autograd import Tensor, apply_op
        from repro.autograd.backends import available_backends, get_backend
        from repro.core import (PITTrainer, StackedPITTrainer,
                                deployable_network, export_network)
        from repro.core.masks import TimeMask
        from repro.core.pit_conv import PITConv1d
        from repro.core.stacked import StackedPITConv1d, StackedTimeMask
        from repro.data import (DataLoader, EpochReplayLoader,
                                make_nottingham, make_ppg_dalia)
        from repro.evaluation import DSEEngine
        from repro.hw import GAP8PointEvaluator
        from repro.nn import mean_loss_over_loader
        from repro.optim import Adam
        from repro.serving import StreamingExecutor, StreamingPool

        counters = self.counters

        # repro.data
        self.wrap_everywhere(make_ppg_dalia, "data.gen")
        self.wrap_everywhere(make_nottingham, "data.gen")
        tracer = self
        loader_iter = DataLoader.__iter__
        DataLoader.__iter__ = lambda loader: tracer.timed_iter(
            loader_iter(loader))
        replay_epoch = EpochReplayLoader.epoch
        EpochReplayLoader.epoch = lambda view, epoch: tracer.timed_iter(
            replay_epoch(view, epoch))

        # repro.autograd.backends: every registered instance's kernels.
        # MACs from the kernel shapes: batch x (all kernel weights, of all
        # stacked models) x output length.  The batch axis is third from
        # the end of the input / output-gradient in both layouts.
        def macs(family, kind):
            def observe(args, kwargs):
                if kind == "step":    # (window (N, C_in, K), w)
                    n = args[0].shape[0] * args[1].size
                elif kind == "fwd":   # (xp, w, dilation, stride, t)
                    xp, w, stride, t = args[0], args[1], args[3], args[4]
                    n = xp.shape[-3] * w.size * -(-t // stride)
                else:                 # (grad, w | xp, .. | w_shape, ..)
                    grad = args[0]
                    w_shape = args[1].shape if kind == "bwd_in" else args[2]
                    n = grad.shape[-3] * _prod(w_shape) * grad.shape[-1]
                counters[f"{family}.macs"] += n
            return observe

        kernels = {
            "forward": ("conv", "fwd"), "grad_input": ("conv", "bwd_in"),
            "grad_weight": ("conv", "bwd_w"),
            "forward_stacked": ("conv_stacked", "fwd"),
            "grad_input_stacked": ("conv_stacked", "bwd_in"),
            "grad_weight_stacked": ("conv_stacked", "bwd_w"),
            "forward_step": ("conv_step", "step"),
        }
        for backend_name in available_backends():
            backend = get_backend(backend_name)
            for attr, (family, kind) in kernels.items():
                span = f"{family}.{'fwd' if kind == 'step' else kind}"
                self.wrap_method(backend, attr, span,
                                 observe=macs(family, kind))

        # Live taps of the searchable convs: the MAC-weighted share of the
        # computed kernel taps whose mask is nonzero.
        def live_taps(layer, x, masks):
            # MACs per tap: batch x C_in x C_out x output length.
            per_tap = (x.shape[-3] * layer.in_channels * layer.out_channels
                       * -(-x.shape[-1] // layer.stride))
            for mask in masks:
                counters["pit.computed_macs"] += per_tap * layer.rf_max
                counters["pit.live_macs"] += per_tap * int((mask != 0).sum())

        self.wrap_method(
            PITConv1d, "forward", "pit.conv",
            observe=lambda a, k: live_taps(a[0], a[1],
                                           [a[0].mask.current_mask()]))
        self.wrap_method(
            StackedPITConv1d, "forward", "pit.conv",
            observe=lambda a, k: live_taps(
                a[0], a[1], [a[0].mask.current_mask(i)
                             for i in range(a[0].m)]))

        # repro.autograd dispatch
        self.wrap_everywhere(apply_op, "autograd.dispatch")
        self.wrap_method(Tensor, "backward", "autograd.backward")

        # repro.core
        self.wrap_method(TimeMask, "forward", "mask")
        self.wrap_method(StackedTimeMask, "forward", "mask")
        self.wrap_everywhere(deployable_network, "export")
        self.wrap_everywhere(export_network, "export")
        self.wrap_method(PITTrainer, "fit", "trainer.fit")
        self.wrap_method(StackedPITTrainer, "fit", "trainer.fit")

        # repro.optim / repro.nn
        self.wrap_method(Adam, "step", "optim.step")
        self.wrap_everywhere(mean_loss_over_loader, "eval")
        # The stacked trainer validates through its own private loop; a
        # rename fails traced runs instead of silently shrinking eval.s.
        self.wrap_method(StackedPITTrainer, "_run_validation", "eval")

        # repro.evaluation / repro.hw
        self.wrap_method(DSEEngine, "run", "dse.run")
        self.wrap_method(GAP8PointEvaluator, "__call__", "hw.eval")

        # repro.serving
        def fill(args, kwargs):
            pool, samples = args[0], args[1]
            counters["serve.slots"] += len(samples)
            counters["serve.capacity"] += pool.capacity
        self.wrap_method(StreamingPool, "tick", "serve.tick", observe=fill,
                         keep_durations=True)
        self.wrap_method(StreamingExecutor, "push", "serve.push")

    def report(self):
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counters": dict(self.counters),
                "durations": {k: self.durations[k] for k in self._keep}}
