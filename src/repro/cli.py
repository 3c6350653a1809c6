"""Command-line interface for the PIT reproduction.

Subcommands::

    python -m repro.cli info   --benchmark ppg
    python -m repro.cli train  --benchmark ppg --dilations 2 2 1 4 4 8 8
    python -m repro.cli search --benchmark ppg --lam 0.02 --width 0.25
    python -m repro.cli sweep  --benchmark music --lambdas 0 1e-3 1e-2
    python -m repro.cli deploy --benchmark ppg --dilations 2 2 1 4 4 8 8
    python -m repro.cli serve  --benchmark ppg --dilations 2 2 1 4 4 8 8 --port 7707

* ``info``   — seed statistics: parameters, search-space size, layer budgets;
* ``train``  — plain (no-NAS) training of a fixed-dilation network, the
  Fig. 5 reference flow;
* ``search`` — one full PIT run (Algorithm 1); optionally saves a checkpoint;
* ``sweep``  — the λ design-space exploration (Fig. 4 workflow); ``--hw``
  additionally deploys every trained grid point (int8 fake-quantization +
  GAP8 estimate) and annotates it with latency/energy/quantized-loss
  metrics, printing the 3-D (params, latency, loss) Pareto front;
* ``deploy`` — the full deployment flow on a fixed-dilation network
  (optionally loaded from a checkpoint): int8 quantization, quantized
  accuracy, GAP8 latency/energy — rendered as a paper-style Table III row;
* ``serve``  — multi-tenant streaming inference server: converts the
  network to O(K)-per-tick ring-buffer execution and serves concurrent
  sample streams over TCP (see README "Streaming inference serving").

Every command accepts ``--benchmark {music, ppg}`` selecting the
ResTCN/Nottingham or TEMPONet/PPG-Dalia pairing and ``--width`` to scale
the experiment (1.0 = paper width).  Numeric flags are range-checked by
the parser: an out-of-range value (``--width 0``, ``--stack 0``,
``--bits 1``, …) is a one-line usage error with exit code 2.  So is a
``deploy``/``serve`` ``--load`` file that is missing, unreadable or does
not fit the network.

The training commands (``train``, ``search``, ``sweep``) trace each
training step once and replay it verbatim through the graph-capture
executor (see README "Compiled training step").

``sweep`` additionally exposes the DSE engine knobs: ``--workers N``
trains the grid in N worker processes (each caps its BLAS threads at its
share of the cores), ``--stack N`` trains up to N
same-warmup grid points as one weight-stacked model (one op graph for
the stack, whose convs loop over the models; ``REPRO_DSE_STACK`` is the
environment equivalent), and
``--cache DIR`` memoizes completed (λ, warmup) points — including
``--hw`` deployment metrics — to a directory, one array file per point,
so interrupted sweeps resume where they left off; an existing regular
file there (a cache from the single-JSON-file format) is a one-line
error with exit code 2.  Stack width never enters cache keys: stacked
and sequential sweeps share entries.

The training commands also accept ``--checkpoint-dir PATH`` and
``--checkpoint-every N``: mid-run trainer checkpoints snapshot the complete
training state at epoch boundaries, so a run killed by a crash, timeout
or preemption can continue from its last finished epoch with bit-exact
results (see README "Checkpointing & resume").  ``train`` and ``search``
opt into continuing from an existing checkpoint with ``--resume`` (a
fresh invocation otherwise starts over and rewrites the file).
``--resume`` or ``--checkpoint-every`` without ``--checkpoint-dir`` is a
usage error, exit code 2.  ``sweep`` always resumes in-flight grid points,
mirroring how ``--cache`` always skips finished ones.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def _loaders(benchmark: str, seed: int, batch: Optional[int] = None):
    from .data import (
        DataLoader,
        NottinghamConfig,
        PPGDaliaConfig,
        make_nottingham,
        make_ppg_dalia,
        train_val_test_split,
    )
    if benchmark == "music":
        dataset = make_nottingham(NottinghamConfig(num_tunes=24, seq_len=48),
                                  seed=seed)
        batch = batch or 4
    else:
        dataset = make_ppg_dalia(PPGDaliaConfig(num_subjects=3,
                                                seconds_per_subject=60),
                                 seed=seed)
        batch = batch or 16
    train, val, test = train_val_test_split(
        dataset, rng=np.random.default_rng(seed))
    return (DataLoader(train, batch, shuffle=True,
                       rng=np.random.default_rng(seed + 1)),
            DataLoader(val, batch), DataLoader(test, batch))


def _seed_model(benchmark: str, width: float, seed: int):
    from .models import restcn_seed, temponet_seed
    if benchmark == "music":
        return restcn_seed(width_mult=width, seed=seed)
    return temponet_seed(width_mult=width, seed=seed)


def _loss(benchmark: str):
    from .nn import mae_loss, polyphonic_nll
    return polyphonic_nll if benchmark == "music" else mae_loss


def _input_shape(benchmark: str):
    return (1, 88, 128) if benchmark == "music" else (1, 4, 256)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_info(args: argparse.Namespace) -> int:
    from .core import layer_choices, parameter_range, pit_layers, search_space_size
    model = _seed_model(args.benchmark, args.width, args.seed)
    layers = pit_layers(model)
    print(f"benchmark      : {args.benchmark}")
    print(f"seed parameters: {model.count_parameters()}")
    print(f"searchable convs: {len(layers)}")
    for i, layer in enumerate(layers):
        print(f"  conv{i}: rf_max={layer.rf_max:>3d} "
              f"choices={layer_choices(layer)}")
    print(f"search space   : {search_space_size(model)} configurations")
    ranges = parameter_range(model)
    print(f"parameter range: {ranges['min_params']} .. {ranges['max_params']}")
    return 0


def _fixed_model(benchmark: str, dilations, width: float, seed: int):
    from .models import restcn_fixed, temponet_fixed
    if benchmark == "music":
        return restcn_fixed(dilations, width_mult=width, seed=seed)
    return temponet_fixed(dilations, width_mult=width, seed=seed)


def _checkpoint_args(args: argparse.Namespace) -> dict:
    """The mid-run checkpoint flags of ``train``/``search`` as trainer
    kwargs."""
    return dict(checkpoint_dir=args.checkpoint_dir,
                checkpoint_every=args.checkpoint_every,
                checkpoint_resume=args.resume)


def cmd_train(args: argparse.Namespace) -> int:
    from .core import train_plain
    train_loader, val_loader, test_loader = _loaders(args.benchmark, args.seed)
    dilations = tuple(args.dilations) if args.dilations else None
    model = _fixed_model(args.benchmark, dilations, args.width, args.seed)
    result = train_plain(model, _loss(args.benchmark), train_loader, val_loader,
                         epochs=args.epochs, lr=args.lr,
                         patience=args.patience,
                         **_checkpoint_args(args))
    from .core import evaluate
    test_loss = evaluate(model, _loss(args.benchmark), test_loader)
    print(f"network   : {args.benchmark} dilations={dilations or 'all-1'}")
    print(f"params    : {model.count_parameters()}")
    print(f"epochs    : {result.epochs}")
    if result.resumed_epochs:
        print(f"resumed   : {result.resumed_epochs} epoch(s) from checkpoint")
    print(f"val loss  : {result.best_val:.4f}")
    print(f"test loss : {test_loss:.4f}")
    print(f"time      : {result.seconds:.1f} s")
    if args.save:
        from .nn.serialization import save_model
        save_model(model, args.save, metadata={
            "benchmark": args.benchmark,
            "dilations": list(dilations) if dilations else None,
            "val_loss": result.best_val})
        print(f"checkpoint: {args.save}")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    from .core import PITTrainer, export_network
    train_loader, val_loader, _ = _loaders(args.benchmark, args.seed)
    model = _seed_model(args.benchmark, args.width, args.seed)
    trainer = PITTrainer(
        model, _loss(args.benchmark), lam=args.lam, gamma_lr=args.gamma_lr,
        warmup_epochs=args.warmup, max_prune_epochs=args.epochs,
        prune_patience=args.patience, finetune_epochs=args.finetune,
        finetune_patience=args.patience, verbose=not args.quiet,
        checkpoint_tag="search",
        **_checkpoint_args(args))
    result = trainer.fit(train_loader, val_loader)
    print(f"dilations : {result.dilations}")
    if result.resumed_epochs:
        print(f"resumed   : {result.resumed_epochs} epoch(s) from checkpoint")
    print(f"val loss  : {result.best_val:.4f}")
    print(f"params    : {result.effective_params}")
    print(f"time      : {result.total_seconds:.1f} s")
    if args.save:
        from .nn.serialization import save_model
        save_model(model, args.save, metadata={
            "benchmark": args.benchmark, "lam": args.lam,
            "dilations": list(result.dilations),
            "val_loss": result.best_val})
        print(f"checkpoint: {args.save}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .evaluation import DSEEngine
    if args.cache is not None and os.path.isfile(args.cache):
        print(f"repro sweep: error: --cache {args.cache!r} is a file; the "
              "sweep cache is now a directory of per-point files, so pass "
              "a directory", file=sys.stderr)
        return 2
    train_loader, val_loader, test_loader = _loaders(args.benchmark, args.seed)

    # functools.partial of a module-level function (not a closure) so the
    # factory pickles to --workers processes.
    factory = functools.partial(_seed_model, args.benchmark, args.width,
                                args.seed)

    evaluators = []
    if args.hw:
        from .hw import GAP8PointEvaluator
        # Validation data calibrates the activation ranges; held-out test
        # data measures the int8 accuracy column.
        evaluators.append(GAP8PointEvaluator(
            _loss(args.benchmark), val_loader, test_loader,
            _input_shape(args.benchmark), bits=args.bits))

    engine = DSEEngine(
        factory, _loss(args.benchmark), train_loader, val_loader,
        trainer_kwargs=dict(gamma_lr=args.gamma_lr,
                            max_prune_epochs=args.epochs,
                            prune_patience=args.patience,
                            finetune_epochs=args.finetune,
                            finetune_patience=args.patience),
        verbose=not args.quiet, workers=args.workers, cache_path=args.cache,
        cache_tag=f"{args.benchmark}|width={args.width}|seed={args.seed}",
        stack=args.stack, point_evaluators=evaluators,
        retries=args.retries, point_timeout=args.point_timeout,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every)
    result = engine.run(args.lambdas, warmups=tuple(args.warmups))
    header = f"{'lambda':>10s} {'warmup':>6s} {'params':>8s} {'loss':>9s}"
    if args.hw:
        header += f" {'int8 loss':>9s} {'lat ms':>8s} {'mJ':>7s}"
    print(header + "  dilations")
    for p in sorted(result.ok_points, key=lambda q: q.params):
        line = (f"{p.lam:>10g} {p.warmup_epochs:>6d} {p.params:>8d} "
                f"{p.loss:>9.4f}")
        if args.hw:
            nan = float("nan")
            line += (f" {p.metrics.get('quantized_loss', nan):>9.4f} "
                     f"{p.metrics.get('latency_ms', nan):>8.1f} "
                     f"{p.metrics.get('energy_mj', nan):>7.2f}")
        print(line + f"  {p.dilations}")
    failed = result.failed_points
    if failed:
        from .evaluation import format_failures
        print(f"\n{len(failed)} grid point(s) FAILED:")
        print(format_failures(failed))
    print("pareto front: " + format_front(
        result.pareto(), lambda p: (p.params, round(p.loss, 4))))
    if args.hw:
        front3 = result.pareto(objectives=("params", "latency_ms", "loss"))
        print("hw pareto front (params, latency_ms, loss): " + format_front(
            front3, lambda p: (p.params, round(p.metrics["latency_ms"], 1),
                               round(p.loss, 4))))
    return 0


def format_front(front, coords) -> str:
    """The front as a list of ``coords(point)`` tuples, one per network.

    Grid points that reached the same network (same dilations and
    coordinates) print once, followed by the λ values that reached it:
    ``(22433, 11.2655; lambda=0.1, 1)``.
    """
    networks = {}
    for p in front:
        networks.setdefault((p.dilations, coords(p)), []).append(p.lam)
    entries = []
    for (_, values), lams in networks.items():
        entry = ", ".join(repr(v) for v in values)
        if len(lams) > 1:
            entry += "; lambda=" + ", ".join(
                f"{lam:g}" for lam in sorted(set(lams)))
        entries.append(f"({entry})")
    return "[" + ", ".join(entries) + "]"


def _load_checkpoint(network, args: argparse.Namespace) -> bool:
    """Load ``--load`` into ``network``.

    A missing or unreadable file (an old npz model file included), or one
    whose arrays do not fit the network, prints one ``error:`` line to
    stderr and returns False.
    """
    from .nn.serialization import CheckpointError, load_state

    def fail(message: str) -> bool:
        print(f"repro {args.command}: error: {message}", file=sys.stderr)
        return False

    try:
        state, metadata = load_state(args.load)
        metadata = metadata if isinstance(metadata, dict) else {}
        network.load_state_dict(state)
    except FileNotFoundError:
        return fail(f"checkpoint {args.load!r} not found")
    except CheckpointError as exc:
        try:
            with open(args.load, "rb") as handle:
                npz = handle.read(4) == b"PK\x03\x04"  # a zip's signature
        except OSError:
            npz = False
        return fail(f"{args.load!r} is an old npz model file; re-save it "
                    "with `train --save`" if npz else str(exc))
    except (KeyError, ValueError) as exc:
        reason = (str(exc) if isinstance(exc, ValueError)
                  else "its array names differ from this network's")
        built = " ".join(map(str, args.dilations or ())) or "all-1"
        message = (f"checkpoint {args.load!r} does not fit the "
                   f"{args.benchmark} network at --width {args.width:g}, "
                   f"dilations {built} ({reason})")
        found = " ".join(map(str, metadata.get("dilations") or ()))
        load = f"`{args.command} --dilations {found} --load FILE`"
        if found and "lam" in metadata:
            message += (f"; the file holds a search supernet with dilations "
                        f"{found}: run `train --dilations {found} --save "
                        f"FILE`, then {load}")
        elif found and found != built:
            message += f"; the file holds dilations {found}: run {load}"
        return fail(message)
    print(f"loaded    : {args.load} "
          f"(val loss {metadata.get('val_loss', 'n/a')})")
    return True


def cmd_deploy(args: argparse.Namespace) -> int:
    from .hw import deploy, format_table_iii
    dilations = tuple(args.dilations) if args.dilations else None
    network = _fixed_model(args.benchmark, dilations, args.width, args.seed)
    if args.load and not _load_checkpoint(network, args):
        return 2
    _, val_loader, test_loader = _loaders(args.benchmark, args.seed)
    report = deploy(network, _loss(args.benchmark), val_loader, test_loader,
                    _input_shape(args.benchmark),
                    name=f"{args.benchmark}-w{args.width:g}",
                    quantize=not args.no_quantize, bits=args.bits)
    print(f"network  : {args.benchmark} dilations={dilations or 'all-1'}")
    print(f"params   : {network.count_parameters()}")
    print(f"estimate : {report.gap8.summary()}")
    print(format_table_iii([report]))
    if args.layers:
        print(f"{'layer':<28s} {'kind':<10s} {'MACs':>10s} {'kcycles':>9s}")
        for layer in report.gap8.layers:
            print(f"{layer.name:<28s} {layer.kind:<10s} {layer.macs:>10d} "
                  f"{layer.cycles / 1e3:>9.1f}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    dilations = tuple(args.dilations) if args.dilations else None
    network = _fixed_model(args.benchmark, dilations, args.width, args.seed)
    if args.load and not _load_checkpoint(network, args):
        return 2
    if args.quantize:
        from .hw import quantize_network
        _, val_loader, _ = _loaders(args.benchmark, args.seed)
        network = quantize_network(network, val_loader, bits=args.bits)
        print(f"quantized : int{args.bits} "
              "(activation ranges calibrated on validation data)")
    from .serving import serve
    try:
        asyncio.run(serve(network, host=args.host, port=args.port,
                          capacity=args.capacity,
                          queue_size=args.queue_size,
                          max_sessions=args.max_sessions,
                          client_timeout=args.client_timeout))
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def _ranged(kind, low, high=None, strict=False):
    """An argparse ``type`` accepting a finite ``kind`` value ``>= low``
    (``> low`` when ``strict``) and ``<= high``; anything else is a usage
    error naming the flag, exit code 2."""
    bound = f"{'>' if strict else '>='} {low}"
    if high is not None:
        bound += f" and <= {high}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {'an integer' if kind is int else 'a number'}, "
                f"got {text!r}") from None
        if (not math.isfinite(value) or value < low
                or (strict and value == low)
                or (high is not None and value > high)):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value
    return parse


_POSITIVE = _ranged(float, 0, strict=True)
_NON_NEGATIVE = _ranged(float, 0)
_COUNT = _ranged(int, 0)
_AT_LEAST_ONE = _ranged(int, 1)
# quantize_array's supported bit widths.
_BITS = _ranged(int, 2, 16)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PIT (DAC 2021) reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--benchmark", choices=("music", "ppg"), default="ppg")
        p.add_argument("--width", type=_POSITIVE, default=0.25,
                       help="width multiplier (1.0 = paper scale)")
        p.add_argument("--seed", type=_COUNT, default=0)
        p.add_argument("--quiet", action="store_true")

    p_info = sub.add_parser("info", help="seed and search-space statistics")
    common(p_info)
    p_info.set_defaults(func=cmd_info)

    def training(p):
        p.add_argument("--gamma-lr", type=_POSITIVE, default=0.03)
        p.add_argument("--warmup", type=_COUNT, default=2)
        p.add_argument("--epochs", type=_COUNT, default=6,
                       help="max pruning epochs")
        p.add_argument("--finetune", type=_COUNT, default=4)
        p.add_argument("--patience", type=_AT_LEAST_ONE, default=4)

    def checkpoint_flags(p, resumable=False):
        p.add_argument("--checkpoint-dir", type=str, default=None,
                       dest="checkpoint_dir", metavar="PATH",
                       help="write mid-run trainer checkpoints (complete "
                            "training state at every epoch boundary) into "
                            "this directory, so a killed run can continue "
                            "bit-exactly (default: no checkpointing)")
        p.add_argument("--checkpoint-every", type=_AT_LEAST_ONE,
                       default=None, dest="checkpoint_every", metavar="N",
                       help="snapshot every Nth epoch boundary; needs "
                            "--checkpoint-dir (default: 1)")
        if resumable:
            p.add_argument("--resume", action="store_true",
                           help="continue from the checkpoint in "
                                "--checkpoint-dir instead of starting "
                                "over; results are bit-identical to the "
                                "uninterrupted run")

    p_train = sub.add_parser(
        "train", help="plain (no-NAS) training of a fixed-dilation network")
    common(p_train)
    p_train.add_argument("--dilations", type=_AT_LEAST_ONE, nargs="+",
                         default=None,
                         help="per-layer dilations (default: all 1)")
    p_train.add_argument("--epochs", type=_COUNT, default=6)
    p_train.add_argument("--lr", type=_POSITIVE, default=1e-3)
    p_train.add_argument("--patience", type=_AT_LEAST_ONE, default=4)
    p_train.add_argument("--save", type=str, default=None,
                         help="write the trained model's array file here")
    checkpoint_flags(p_train, resumable=True)
    p_train.set_defaults(func=cmd_train)

    p_search = sub.add_parser("search", help="run one PIT search")
    common(p_search)
    training(p_search)
    p_search.add_argument("--lam", type=_NON_NEGATIVE, default=0.02)
    p_search.add_argument("--save", type=str, default=None,
                          help="write the searched supernet's array file "
                               "here")
    checkpoint_flags(p_search, resumable=True)
    p_search.set_defaults(func=cmd_search)

    p_sweep = sub.add_parser("sweep", help="λ design-space exploration")
    common(p_sweep)
    training(p_sweep)
    p_sweep.add_argument("--lambdas", type=_NON_NEGATIVE, nargs="+",
                         default=[0.0, 0.02, 0.2])
    p_sweep.add_argument("--warmups", type=_COUNT, nargs="+", default=[2])
    p_sweep.add_argument("--workers", type=_COUNT, default=None,
                         help="DSE worker processes, each with BLAS "
                              "capped at cpu_count/N threads (0/1 = serial; "
                              "default: REPRO_DSE_WORKERS or 0)")
    p_sweep.add_argument("--cache", type=str, default=None,
                         metavar="DIR",
                         help="results cache directory, one file per "
                              "completed (lambda, warmup) point; those "
                              "points are skipped on re-runs")
    p_sweep.add_argument("--stack", type=_AT_LEAST_ONE, default=None,
                         help="stacked-model execution: train up to N "
                              "same-warmup grid points as one weight-stacked "
                              "model (1 = sequential; default: "
                              "REPRO_DSE_STACK or 1).  A speed knob: "
                              "results are bit-identical to --stack 1 "
                              "and cache entries are shared")
    p_sweep.add_argument("--hw", action="store_true",
                         help="hardware-in-the-loop: after each grid point "
                              "trains, export + int8-quantize it and "
                              "annotate the point with GAP8 latency/energy/"
                              "quantized-loss metrics")
    p_sweep.add_argument("--bits", type=_BITS, default=8,
                         help="quantization bit width for --hw")
    p_sweep.add_argument("--retries", type=_COUNT, default=0,
                         help="retry a failing grid point up to N times with "
                              "exponential backoff before marking it failed "
                              "(diverged points are never retried)")
    p_sweep.add_argument("--point-timeout", type=_POSITIVE, default=None,
                         help="per-point training budget in seconds, at "
                              "every --workers count: a point that trains "
                              "past it is marked failed, never retried "
                              "(default: no timeout)")
    # Sweeps always resume in-flight points from their checkpoints (like
    # --cache always skips finished ones), so no --resume flag here.
    checkpoint_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_deploy = sub.add_parser(
        "deploy", help="full deployment flow of a fixed network: int8 "
                       "quantization + GAP8 cost (a Table III row)")
    common(p_deploy)
    p_deploy.add_argument("--dilations", type=_AT_LEAST_ONE, nargs="+",
                          default=None)
    p_deploy.add_argument("--load", type=str, default=None,
                          help="model file from `train --save` to load "
                               "into the network; --dilations/--width must "
                               "match it.  (`search --save` checkpoints "
                               "hold the searchable supernet and do not "
                               "fit — retrain the found dilations with "
                               "`train --dilations ... --save` first)")
    p_deploy.add_argument("--bits", type=_BITS, default=8,
                          help="quantization bit width")
    p_deploy.add_argument("--no-quantize", action="store_true",
                          help="skip int8 fake-quantization (float estimate)")
    p_deploy.add_argument("--layers", action="store_true",
                          help="print the per-layer breakdown")
    p_deploy.set_defaults(func=cmd_deploy)

    p_serve = sub.add_parser(
        "serve", help="multi-tenant streaming inference server (ring-buffer "
                      "O(K)-per-tick execution over TCP)")
    common(p_serve)
    p_serve.add_argument("--dilations", type=_AT_LEAST_ONE, nargs="+",
                         default=None)
    p_serve.add_argument("--load", type=str, default=None,
                         help="model file from `train --save` to load "
                              "into the network before serving")
    p_serve.add_argument("--quantize", action="store_true",
                         help="serve the int8 fake-quantized network "
                              "(activation ranges calibrated on the "
                              "benchmark's validation split)")
    p_serve.add_argument("--bits", type=_BITS, default=8,
                         help="quantization bit width for --quantize")
    p_serve.add_argument("--host", type=str, default="127.0.0.1")
    p_serve.add_argument("--port", type=_ranged(int, 0, 65535), default=0,
                         help="TCP port (0 = pick a free one, printed on "
                              "startup)")
    p_serve.add_argument("--capacity", type=_AT_LEAST_ONE, default=8,
                         help="batch rows = maximum concurrent clients")
    p_serve.add_argument("--queue-size", type=_AT_LEAST_ONE, default=64,
                         help="per-client sample buffer (backpressure bound)")
    p_serve.add_argument("--max-sessions", type=_AT_LEAST_ONE, default=None,
                         help="stop after this many sessions have detached "
                              "(default: serve forever)")
    p_serve.add_argument("--client-timeout", type=_POSITIVE, default=None,
                         help="disconnect a client whose socket stays idle "
                              "for this many seconds, freeing its pool slot "
                              "(an idle active client stalls the barrier "
                              "for every co-tenant; default: wait forever)")
    p_serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Without a directory there is nothing to resume from or write to:
    # running on would train from scratch, or without a checkpoint, and
    # let the user believe otherwise.
    for flag, given in (
            ("--resume", getattr(args, "resume", False)),
            ("--checkpoint-every",
             getattr(args, "checkpoint_every", None) is not None)):
        if given and args.checkpoint_dir is None:
            print(f"repro {args.command}: error: {flag} needs "
                  "--checkpoint-dir", file=sys.stderr)
            return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
