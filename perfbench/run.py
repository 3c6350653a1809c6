"""The PIT reproduction's end-to-end benchmark.

    python3 perfbench/run.py --workload search_ppg --seed 1 --seconds 40 --trace 0

Run from the root of a checkout (it needs ``src/repro``).  Runs measured
units of one workload back to back, each in a fresh process (``unit.py``),
for about ``--seconds`` seconds, and prints a human-readable summary
followed, as the last line, by one JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, medians over the run's units.  With ``--trace 1`` the
run alternates untraced and traced units, and the metrics are the
per-layer ones: medians over the traced units of each layer's self time,
counts and share of the traced wall time, plus the tracing overhead
against the untraced units.  ``design.json`` holds the workload constants
and, for every per-layer metric, the end-to-end metric and workload it is
predicted to move.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("search_ppg", "sweep_music", "serve_ppg")
# Latency tails are printed, not bounded: on a shared 2-core machine the
# p90 of paced frame latency spread up to 0.56 (IQR over median) across
# ten runs while the host was contended, beyond the largest bound a metric
# may have (0.25).  The tails printed are the highest percentile with at
# least ten samples beyond it in a run: p99 of about 1100 paced frames, p95
# of 180-300 training steps.
TAILS = {"search_ppg": (("step_p95_ms", 0.95),),
         "sweep_music": (("step_p95_ms", 0.95),),
         "serve_ppg": (("frame_p90_ms", 0.9), ("frame_p99_ms", 0.99))}
# The workload-specific names of the generic end-to-end metrics, and the
# quality figure each workload reports (printed, not bounded: they vary
# severalfold across seeds on these small synthetic datasets).
NAMED = {
    "search_ppg": {"train_samples_per_s": "samples_per_s",
                   "step_p50_ms": "latency_p50_ms"},
    "sweep_music": {"train_samples_per_s": "samples_per_s",
                    "step_p50_ms": "latency_p50_ms"},
    "serve_ppg": {"burst_samples_per_s": "samples_per_s",
                  "frame_p50_ms": "latency_p50_ms"},
}
QUALITY = {"search_ppg": "best_val_loss", "sweep_music": "front_hypervolume"}
UNIT_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0

# Per-layer self-time spans grouped into the layers whose share of the
# traced wall time is reported.
SHARE_GROUPS = {
    "data": ("data.gen", "data.wait"),
    "conv": ("conv.fwd", "conv.bwd_in", "conv.bwd_w", "conv_stacked.fwd",
             "conv_stacked.bwd_in", "conv_stacked.bwd_w", "conv_step.fwd"),
    "autograd": ("autograd.dispatch", "autograd.backward"),
    "core": ("mask", "pit.conv", "export", "trainer.fit"),
    "optim": ("optim.step",),
    "eval": ("eval",),
    "dse": ("dse.run",),
    "hw": ("hw.eval",),
    "serve": ("serve.tick", "serve.push"),
}


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def median(values):
    return statistics.median(values) if values else 0.0


def run_unit(workload, seed, trace, env, timeout):
    """One unit in a fresh process group; (result dict | None, wall s,
    error text)."""
    spawned = time.time()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "unit.py"), "--workload",
         workload, "--seed", str(seed), "--trace", str(int(trace)),
         "--spawned", repr(spawned)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, time.perf_counter() - start, f"timed out after {timeout:.0f} s"
    finally:
        # The serving unit's server is a grandchild in the same group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    wall = time.perf_counter() - start
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(err.strip().splitlines()[-5:])
        return None, wall, f"exit {proc.returncode}: {tail}"
    return json.loads(lines[-1]), wall, None


def end_to_end(units):
    latencies = [v for u in units for v in u["latency_ms"]]
    metrics = {name: median([u[name] for u in units])
               for name in ("setup_s", "run_s", "samples_per_s",
                            "peak_rss_mb")}
    metrics["latency_p50_ms"] = percentile(latencies, 0.5)
    return metrics


def layer_metrics(unit):
    """Per-layer metrics of one traced unit."""
    trace, wall = unit["trace"], unit["wall_s"]
    self_s, calls = trace["self_s"], trace["calls"]
    counters = trace["counters"]

    def s(name):
        return self_s.get(name, 0.0)

    def n(name):
        return float(calls.get(name, 0))

    m = {"data.gen_s": s("data.gen"), "data.wait_s": s("data.wait"),
         "data.batches": counters.get("data.batches", 0.0)}
    for family, kinds in (("conv", ("fwd", "bwd_in", "bwd_w")),
                          ("conv_stacked", ("fwd", "bwd_in", "bwd_w")),
                          ("conv_step", ("fwd",))):
        busy = sum(s(f"{family}.{k}") for k in kinds)
        gmac = counters.get(f"{family}.macs", 0.0) / 1e9
        for k in kinds:
            m[f"{family}.{k}_s"] = s(f"{family}.{k}")
        m[f"{family}.calls"] = sum(n(f"{family}.{k}") for k in kinds)
        m[f"{family}.gmac"] = gmac
        m[f"{family}.gmac_per_s"] = gmac / busy if busy else 0.0
    computed = counters.get("pit.computed_macs", 0.0)
    m["conv.live_tap_frac"] = (counters.get("pit.live_macs", 0.0) / computed
                               if computed else 0.0)
    m.update({
        "autograd.ops": n("autograd.dispatch"),
        "autograd.dispatch_self_s": s("autograd.dispatch"),
        "autograd.backward_s": s("autograd.backward"),
        "mask.s": s("mask"), "mask.calls": n("mask"),
        "pit.conv_self_s": s("pit.conv"),
        "export.s": s("export"),
        "trainer.self_s": s("trainer.fit"),
        "optim.step_s": s("optim.step"), "optim.steps": n("optim.step"),
        "eval.s": s("eval"), "eval.calls": n("eval"),
        "hw.eval_s": s("hw.eval"), "hw.points": n("hw.eval"),
    })
    for phase in ("warmup", "prune", "finetune"):
        phases = unit.get("phases", {})
        m[f"phase.{phase}_s"] = phases.get(f"{phase}_s", 0.0)
        m[f"phase.{phase}_epochs"] = phases.get(f"{phase}_epochs", 0.0)
    dse = unit.get("dse", {})
    m.update({"dse.points": float(dse.get("points", 0)),
              "dse.chunks": float(dse.get("chunks", 0)),
              "dse.stack_fill": float(dse.get("stack_fill", 0.0)),
              "dse.overhead_s": s("dse.run"),
              "dse.retries": float(dse.get("retries", 0)),
              "dse.failed": float(dse.get("failed", 0))})
    ticks_us = [d * 1e6 for d in trace["durations"].get("serve.tick", [])]
    loop_self = max(0.0, unit.get("serve_cpu_s", 0.0) - sum(ticks_us) / 1e6)
    capacity = counters.get("serve.capacity", 0.0)
    m.update({
        "serve.ticks": n("serve.tick"),
        "serve.tick_us_p50": percentile(ticks_us, 0.5),
        "serve.tick_us_p99": percentile(ticks_us, 0.99),
        "serve.push_s": s("serve.push"),
        "serve.pool_self_s": s("serve.tick"),
        "serve.loop_self_s": loop_self,
        "serve.batch_fill": (counters.get("serve.slots", 0.0) / capacity
                             if capacity else 0.0),
    })
    # Closing the trace: the layers' self times, the serving loop's CPU
    # time outside ticks and the unattributed rest add up to the wall time.
    attributed = sum(self_s.values()) + loop_self
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - attributed
    for group, spans in SHARE_GROUPS.items():
        busy = sum(s(name) for name in spans)
        if group == "serve":
            busy += loop_self
        m[f"share.{group}"] = busy / wall
    m["share.unattributed"] = m["trace.unattributed_s"] / wall
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("perfbench: run from the root of a checkout of the program "
              "(src/repro/cli.py not found)", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "design.json")) as fh:
        design = json.load(fh)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    # The program reads REPRO_* variables (conv backend, dtype, compile
    # tier, DSE stack/workers, fault injection, checkpoints); none of them
    # may change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}

    # Fill the bytecode cache first, as any earlier CLI invocation would.
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, "
                    "'src'); import repro.cli, repro.serving"],
                   env=env, timeout=120)

    start = time.perf_counter()
    untraced, traced, errors = [], [], []
    attempted = failed = 0
    walls = {False: [], True: []}
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        trace = bool(args.trace) and index % 2 == 1
        minimum = 2 if args.trace else 1
        if index >= minimum:
            expected = max(walls[trace] or walls[not trace])
            if elapsed + expected > args.seconds:
                break
        remaining = RUN_LIMIT_S - elapsed
        if remaining < 5:
            break
        unit, wall, error = run_unit(args.workload, args.seed, trace, env,
                                     min(UNIT_TIMEOUT_S, remaining))
        walls[trace].append(wall)
        index += 1
        if unit is None:
            attempted += 1
            failed += 1
            errors.append(error)
            continue
        attempted += unit["ops"]
        failed += unit["failed"]
        errors.extend(unit["errors"])
        (traced if trace else untraced).append(unit)

    lag_p99 = percentile([v for u in untraced + traced
                          for v in u.get("lag_ms", [])], 0.99)
    valid = True
    if args.workload == "serve_ppg":
        # The open loop is honest only while the generator kept its
        # schedule; a generator a whole chunk late measured itself.
        chunk_ms = 1e3 * (design["constants"]["serve_ppg"]["chunk"]
                          / design["constants"]["serve_ppg"]["paced_rate_hz"])
        if lag_p99 > chunk_ms:
            valid = False
            errors.append(f"load generator fell behind: lag p99 "
                          f"{lag_p99:.1f} ms > chunk period {chunk_ms:.1f} ms")

    config = (untraced or traced or [{}])[0].get("config", {})
    print(f"workload {args.workload}  seed {args.seed}  "
          f"units {len(untraced)} untraced + {len(traced)} traced  "
          f"ops {attempted} attempted, {failed} failed")
    print("config " + json.dumps(config, sort_keys=True))
    for quality in sorted({json.dumps(u["quality"], sort_keys=True)
                           for u in untraced + traced if "quality" in u}):
        print("quality " + quality)
    for error in errors:
        print(f"FAILED: {error}")

    metrics = {}
    if args.trace:
        if untraced and traced:
            per_unit = [layer_metrics(u) for u in traced]
            for name in per_unit[0]:
                metrics[name] = median([m[name] for m in per_unit])
            base = median([u["samples_per_s"] for u in untraced])
            slow = median([u["samples_per_s"] for u in traced])
            metrics["trace.overhead_frac"] = base / slow - 1.0 if slow else 0.0
        metrics["loadgen.lag_ms_p99"] = lag_p99
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        out = {name: {"value": metrics.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
        for name in sorted(out):
            print(f"  {name:28s} {out[name]['value']:14.6g} {out[name]['unit']}")
    else:
        if untraced:
            metrics = end_to_end(untraced)
            latencies = [v for u in untraced for v in u["latency_ms"]]
            print(f"latency samples {len(latencies)}")
        out = {m["name"]: {"value": metrics.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in bench["end_to_end"]}
        for name, value in out.items():
            print(f"  {name:28s} {value['value']:14.6g} {value['unit']}")
        for alias, name in NAMED[args.workload].items():
            print(f"  {alias:28s} {out[name]['value']:14.6g} "
                  f"{out[name]['unit']}  (= {name})")
        for name, q in (TAILS[args.workload] if untraced else ()):
            print(f"  {name:28s} {percentile(latencies, q):14.6g} ms  "
                  "(unbounded)")
        figure = QUALITY.get(args.workload)
        if figure and untraced:
            print(f"  {figure:28s} {median([u['quality'][figure] for u in untraced]):14.6g}")
        print(f"  {'ops_attempted':28s} {attempted:14d}\n"
              f"  {'ops_failed':28s} {failed:14d}")
    correct = bool(untraced) and failed == 0 and valid and (
        traced or not args.trace)
    print(json.dumps({"correct": bool(correct), "attempted": max(attempted, 1),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
