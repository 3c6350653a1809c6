"""One measured unit of one workload, in a fresh process.

    python3 perfbench/unit.py --workload search_ppg --seed 3 --trace 0 \
        --spawned <time.time() just before this process was started>

A unit is what a CLI user pays for in one invocation: one ``search``, one
``sweep`` grid, or one serving session (a server process plus the load
generator in this process).  The program is driven through its own CLI
entry point (``repro.cli.main``) with the workload seed as ``--seed``;
the benchmark only observes, through the wrappers of ``tracer.py``.

Prints one JSON line: the unit's end-to-end measurements, its operations
and oracle failures, the resolved configuration and, with ``--trace 1``,
the raw span report.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

with open(os.path.join(HERE, "design.json")) as _fh:
    CONSTANTS = json.load(_fh)["constants"]

from tracer import Probe, Tracer  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def resolved_config() -> dict:
    """What actually ran: the knobs a stray environment could change."""
    import numpy as np
    from repro.autograd import current_backend, get_default_dtype
    from repro.autograd.graph import CompileConfig
    from repro.evaluation.dse import stack_width_default

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cfg = CompileConfig.resolve(None)
    threads = (os.environ.get("OPENBLAS_NUM_THREADS")
               or os.environ.get("OMP_NUM_THREADS") or "default")
    return {
        "conv_backend": current_backend(),
        "dtype": np.dtype(get_default_dtype()).name,
        "compile": ("loop" if cfg.want_loop() else
                    f"step/{cfg.resolved_exec()}" if cfg.want_compile()
                    else "eager"),
        "dse_stack_default": stack_width_default(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


def run_cli(argv) -> None:
    """``python -m repro.cli <argv>`` in this process, output discarded."""
    from repro.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code:
        raise RuntimeError(f"repro {' '.join(argv)} exited with {code}")


def fit_phases(probe) -> dict:
    """Phase seconds and epochs per trainer fit (a stack: its longest
    slice; its results share the stack's wall clock)."""
    phases = {f"{p}_{k}": 0.0 for p in ("warmup", "prune", "finetune")
              for k in ("s", "epochs")}
    for _, _, result, _, _ in probe.fits:
        results = result if isinstance(result, list) else [result]
        for p in ("warmup", "prune", "finetune"):
            phases[f"{p}_s"] += getattr(results[0], f"{p}_seconds")
            phases[f"{p}_epochs"] += max(getattr(r, f"{p}_epochs")
                                         for r in results)
    return phases


def epochs(result) -> int:
    return result.warmup_epochs + result.prune_epochs + result.finetune_epochs


# ----------------------------------------------------------------------
# search_ppg
# ----------------------------------------------------------------------

def search_oracles(trainer, val_loader, result) -> list:
    import numpy as np
    from repro.autograd import Tensor, get_default_dtype, no_grad
    from repro.core import export_network, layer_choices, pit_layers

    errors = []
    model = trainer.model
    for i, (layer, d) in enumerate(zip(pit_layers(model), result.dilations)):
        if d not in layer_choices(layer):
            errors.append(f"layer {i}: dilation {d} not in "
                          f"{layer_choices(layer)}")
    exported = export_network(model)
    if exported.count_parameters() != result.effective_params:
        errors.append(f"effective_params {result.effective_params} != "
                      f"exported {exported.count_parameters()}")
    x, _ = next(iter(val_loader))
    model.eval()
    exported.eval()
    with no_grad():
        want = model(Tensor(x)).data
        got = exported(Tensor(x)).data
    tol = (dict(rtol=1e-9, atol=1e-9)
           if np.dtype(get_default_dtype()) == np.float64
           else dict(rtol=1e-4, atol=1e-4))
    if not np.allclose(got, want, **tol):
        errors.append("exported network output differs from the frozen PIT "
                      f"network by {float(np.max(np.abs(got - want))):.3g}")
    losses = [result.best_val] + [v for vals in result.history.values()
                                  for v in vals]
    if not all(math.isfinite(v) for v in losses):
        errors.append("non-finite loss in the search history")
    return errors


def unit_search(seed: int, probe: Probe, spawned: float, done) -> dict:
    c = CONSTANTS["search_ppg"]
    run_cli(["search", "--benchmark", "ppg", "--width", str(c["width"]),
             "--seed", str(seed), "--quiet"])
    done()
    (trainer, (train, val), result, t0, t1), = probe.fits
    errors = search_oracles(trainer, val, result)
    run_s = t1 - t0
    return {
        "setup_s": t0 - spawned, "run_s": run_s,
        "samples_per_s": epochs(result) * len(train.dataset) / run_s,
        "latency_ms": probe.step_ms,
        "ops": 1, "failed": int(bool(errors)), "errors": errors,
        "quality": {"best_val_loss": result.best_val,
                    "params": result.effective_params,
                    "dilations": list(result.dilations)},
        "phases": fit_phases(probe),
    }


# ----------------------------------------------------------------------
# sweep_music
# ----------------------------------------------------------------------

def hypervolume_2d(points, ref) -> float:
    """Area dominated by (params, loss) points inside the reference box,
    as a share of the box."""
    area, best_loss = 0.0, ref[1]
    for params, loss in sorted(points):
        if params < ref[0] and loss < best_loss:
            area += (ref[0] - params) * (best_loss - loss)
            best_loss = loss
    return area / (ref[0] * ref[1])


def sweep_oracles(points) -> list:
    """Per-point failures: (index, reason)."""
    bad = []
    for i, p in enumerate(points):
        if not p.ok:
            bad.append((i, f"lam={p.lam:g} warmup={p.warmup_epochs}: "
                           f"status {p.status}: {p.error}"))
            continue
        for key in ("latency_ms", "energy_mj", "quantized_loss"):
            value = p.metrics.get(key)
            if value is None or not math.isfinite(value):
                bad.append((i, f"lam={p.lam:g} warmup={p.warmup_epochs}: "
                               f"hw metric {key}={value!r}"))
    for warmup in sorted({p.warmup_epochs for p in points}):
        row = sorted((p.lam, i, p) for i, p in enumerate(points)
                     if p.warmup_epochs == warmup and p.ok)
        for (_, _, prev), (lam, i, p) in zip(row, row[1:]):
            if p.params > prev.params:
                bad.append((i, f"warmup={warmup}: params grew from "
                               f"{prev.params} to {p.params} at lam={lam:g}"))
    return bad


def unit_sweep(seed: int, probe: Probe, spawned: float, done) -> dict:
    c = CONSTANTS["sweep_music"]
    run_cli(["sweep", "--benchmark", "music", "--width", str(c["width"]),
             "--seed", str(seed),
             "--lambdas", *[str(v) for v in c["lambdas"]],
             "--warmups", *[str(v) for v in c["warmups"]],
             "--stack", str(c["stack"]), "--hw", "--workers", "0",
             "--quiet"])
    done()
    (engine, result, t0, t1), = probe.runs
    points = result.points
    bad = sweep_oracles(points)
    n_train = len(engine.train_loader.dataset)
    samples = sum(epochs(p.result) for p in points if p.ok) * n_train
    fit_s = sum(t1 - t0 for _, _, _, t0, t1 in probe.fits)
    fills = [(len(r) if isinstance(r, list) else 1) / engine.stack
             for _, _, r, _, _ in probe.fits]
    stats = engine.last_run_stats
    front = [(p.params, p.loss) for p in points if p.ok]
    return {
        "setup_s": t0 - spawned, "run_s": t1 - t0,
        "samples_per_s": samples / fit_s if fit_s else 0.0,
        "latency_ms": probe.step_ms,
        "ops": len(points), "failed": len({i for i, _ in bad}),
        "errors": [reason for _, reason in bad],
        "quality": {"front_hypervolume": hypervolume_2d(
                        front, c["hv_reference"]),
                    "params": sorted(p.params for p in points if p.ok)},
        "phases": fit_phases(probe),
        "dse": {"points": len(points), "chunks": len(probe.fits),
                "stack_fill": sum(fills) / len(fills) if fills else 0.0,
                "retries": stats.get("retried", 0),
                "failed": stats.get("failed", 0)},
    }


# ----------------------------------------------------------------------
# serve_ppg: server process + load generator
# ----------------------------------------------------------------------

def stream_inputs(seed: int, count: int, samples: int):
    """``count`` PPG-Dalia streams of ``samples`` (channels-last) samples."""
    import numpy as np
    from repro.data import PPGDaliaConfig, generate_subject
    rng = np.random.default_rng(seed)
    cfg = PPGDaliaConfig(seconds_per_subject=-(-samples // 32) + 1)
    return [generate_subject(cfg, rng)[0][:, :samples].T.copy()
            for _ in range(count)]


async def _connect(port):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    hello = json.loads(await reader.readline())
    if hello.get("type") != "hello":
        raise RuntimeError(f"server refused the session: {hello}")
    return reader, writer, hello


async def _collect(reader, session, on_frame=None):
    loop = asyncio.get_running_loop()
    while True:
        line = await reader.readline()
        if not line:
            return
        msg = json.loads(line)
        if msg.get("type") == "frame":
            session["frames"].append(msg)
            session["last_frame"] = loop.time()
            if on_frame is not None:
                on_frame(msg)
        elif msg.get("type") == "error":
            session["error"] = msg.get("error")


async def stream_phase(port, streams, chunk, rate=None):
    """Send every stream's samples in ``chunk``-sample lines from one task.

    With ``rate`` (samples/s per stream) this is an open loop: stream
    ``i``'s chunk ``k`` is due at ``t0 + (k + i) * chunk / rate`` whatever
    the server does, writes never wait for the server, and each warm
    frame's latency runs from the due time of the chunk that completed it.
    Streams start one chunk apart, as the pool attaches a stream only at a
    phase-aligned tick: stream ``i`` joins ``i`` periods after stream 0, so
    on schedule the barrier never holds a chunk for the next one.  Without
    ``rate`` it is a burst bounded by backpressure: every stream's chunk
    ``k`` is written, then the writes wait for the server's bounded queues
    and TCP flow control to drain.

    Write order matters: ``StreamServer._collect`` takes the lower slot's
    sample before it finds a higher slot's queue empty, and drops it when
    the barrier then fails.  Higher slots are written first, except a
    burst's first chunk (so a slot that starts alone is the lower one),
    which keeps a higher slot's queue at least as full as a lower slot's
    whenever the barrier is checked.
    """
    loop = asyncio.get_running_loop()
    conns = sorted([await _connect(port) for _ in streams],
                   key=lambda conn: conn[2]["slot"])
    sessions = [{"frames": [], "error": None, "hello": hello,
                 "latency_ms": []} for _, _, hello in conns]
    lag_ms = []
    lines = [[(json.dumps(data[start:start + chunk].tolist()) + "\n").encode()
              for start in range(0, len(data), chunk)] for data in streams]
    lead = 0.05 if rate else 0.0
    t0 = loop.time() + lead
    period = chunk / rate if rate else 0.0
    stagger = 1 if rate else 0

    async def produce():
        for step in range(len(lines[0]) + stagger * (len(lines) - 1)):
            if rate:
                due = t0 + step * period
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                lag_ms.append((loop.time() - due) * 1e3)
            order = range(len(conns))
            if rate or step:
                order = reversed(order)
            for i in order:
                k = step - stagger * i
                if 0 <= k < len(lines[i]):
                    conns[i][1].write(lines[i][k])
            if not rate:
                for _, writer, _ in conns:
                    await writer.drain()
        for _, writer, _ in conns:
            writer.write(b'{"type": "detach"}\n')
            await writer.drain()

    def latency(i, session):
        warmup = session["hello"]["warmup_ticks"]
        step = session["hello"]["period"]
        warm = 0

        def on_frame(msg):
            # Warm frame j completes the stream's sample warmup + j*period,
            # which arrived in chunk k.
            nonlocal warm
            if rate and msg["warm"]:
                k = (warmup + warm * step) // chunk - 1
                due = t0 + (k + stagger * i) * period
                session["latency_ms"].append((loop.time() - due) * 1e3)
                warm += 1
        return on_frame

    await asyncio.gather(produce(), *[
        _collect(reader, s, latency(i, s))
        for i, ((reader, _, _), s) in enumerate(zip(conns, sessions))])
    for _, writer, _ in conns:
        writer.close()
    end = max(s.get("last_frame", t0) for s in sessions)
    return sessions, end - t0 + lead, lag_ms


def serve_oracles(sessions, streams, seed, c) -> list:
    """Per-session failures: frame count, warm flags, and parity of the
    first warm frame with full-window inference on the same prefix."""
    import numpy as np
    from repro.autograd import Tensor, get_default_dtype, no_grad
    from repro.models import temponet_fixed

    model = temponet_fixed(c["dilations"], width_mult=c["width"],
                           seed=seed).eval()
    tol = (dict(rtol=1e-12, atol=1e-12)
           if np.dtype(get_default_dtype()) == np.float64
           else dict(rtol=1e-4, atol=1e-4))
    failures = []
    for i, (session, data) in enumerate(zip(sessions, streams)):
        hello = session["hello"]
        warmup, period = hello["warmup_ticks"], hello["period"]
        # A stream that joins a running pool also gets the frames emitted
        # before it is warm (flagged warm=false): at most samples/period.
        expected = (len(data) - warmup) // period + 1
        warm = [f for f in session["frames"] if f["warm"]]
        if session["error"]:
            failures.append(f"session {i}: {session['error']}")
        elif (len(warm) != expected
              or len(session["frames"]) > len(data) // period):
            failures.append(f"session {i}: {len(session['frames'])} frames "
                            f"({len(warm)} warm), expected {expected}")
        else:
            with no_grad():
                want = model(Tensor(data[:warmup].T[None])).data[0]
            got = np.asarray(warm[0]["data"])
            if not np.allclose(got, want.reshape(got.shape), **tol):
                failures.append(
                    f"session {i}: first frame differs from full-window "
                    f"inference by {float(np.max(np.abs(got - want))):.3g}")
    return failures


def unit_serve(seed: int, trace: bool) -> dict:
    c = CONSTANTS["serve_ppg"]
    chunk, capacity = c["chunk"], c["capacity"]
    paced = stream_inputs(seed, capacity, c["paced_samples"])
    burst = stream_inputs(seed + 1, capacity, c["burst_samples"])
    argv = ["serve", "--benchmark", "ppg", "--width", str(c["width"]),
            "--seed", str(seed),
            "--dilations", *[str(d) for d in c["dilations"]],
            "--capacity", str(capacity), "--max-sessions", str(2 * capacity),
            "--port", "0"]
    spawned = time.time()
    server = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "server.py"), str(int(trace)),
         *argv], stdout=subprocess.PIPE, text=True)
    try:
        line = server.stdout.readline()
        if not line.startswith("serving on "):
            raise RuntimeError(f"server did not start: {line!r}")
        port = int(line.split()[2].rsplit(":", 1)[1].rstrip(","))
        paced_sessions, paced_s, lags = asyncio.run(
            stream_phase(port, paced, chunk, c["paced_rate_hz"]))
        burst_sessions, burst_s, _ = asyncio.run(
            stream_phase(port, burst, chunk))
        report = None
        for line in server.stdout:
            if line.startswith("PERFBENCH "):
                report = json.loads(line[len("PERFBENCH "):])
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    if report is None:
        raise RuntimeError("server exited without its report")
    failures = serve_oracles(paced_sessions + burst_sessions, paced + burst,
                             seed, c)
    return {
        "setup_s": report["listen_wall"] - spawned,
        "run_s": paced_s + burst_s,
        "samples_per_s": capacity * c["burst_samples"] / burst_s,
        "peak_rss_mb": report["peak_rss_mb"],
        "latency_ms": [v for s in paced_sessions for v in s["latency_ms"]],
        "lag_ms": lags,
        "ops": len(paced_sessions) + len(burst_sessions),
        "failed": len({f.split(":")[0] for f in failures}),
        "errors": failures,
        "config": report["config"],
        "trace": report["trace"], "wall_s": report["end_wall"] - spawned,
        "serve_cpu_s": report["cpu_after_listen"],
    }


# ----------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("search_ppg", "sweep_music", "serve_ppg"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args()

    if args.workload == "serve_ppg":
        out = unit_serve(args.seed, bool(args.trace))
    else:
        probe = Probe()
        probe.install_training()
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        marks = {}

        def done():
            """The program finished: close the trace before the oracles
            run."""
            marks["wall_s"] = time.time() - args.spawned
            if tracer is not None:
                marks["trace"] = tracer.report()

        run = unit_search if args.workload == "search_ppg" else unit_sweep
        out = run(args.seed, probe, args.spawned, done)
        out["peak_rss_mb"] = peak_rss_mb()
        out["config"] = resolved_config()
        if tracer is not None:
            out.update(marks)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
