"""Tests for the command-line interface."""

import re

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.benchmark == "ppg"
        assert args.width == 0.25
        assert args.lam == 0.02

    def test_invalid_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "--benchmark", "imagenet"])

    def test_lambda_list(self):
        args = build_parser().parse_args(["sweep", "--lambdas", "0", "0.1"])
        assert args.lambdas == [0.0, 0.1]

    @pytest.mark.parametrize("argv", [
        ["search", "--width", "-1"],
        ["search", "--width", "0"],
        ["search", "--width", "nan"],
        ["search", "--lam", "-0.5"],
        ["search", "--epochs", "two"],
        ["search", "--checkpoint-every", "0"],
        ["sweep", "--stack", "0"],
        ["sweep", "--workers", "-2"],
        ["sweep", "--lambdas", "0", "-1"],
        ["serve", "--capacity", "0"],
        ["deploy", "--bits", "0"],
        ["train", "--dilations", "2", "0"],
    ], ids=" ".join)
    def test_rejects_bad_numeric_flags(self, argv, capsys):
        """A bad numeric flag is a one-line usage error (exit 2) naming
        the flag, raised by the parser before any work starts."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        flag = next(a for a in argv[::-1] if a.startswith("--"))
        assert err.splitlines()[-1].startswith(
            f"repro {argv[0]}: error: argument {flag}: ")


class TestInfo:
    def test_ppg_info(self, capsys):
        assert main(["info", "--benchmark", "ppg", "--width", "0.125"]) == 0
        out = capsys.readouterr().out
        assert "search space   : 10800" in out
        assert "searchable convs: 7" in out

    def test_music_info(self, capsys):
        assert main(["info", "--benchmark", "music", "--width", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "search space   : 129600" in out
        assert "rf_max= 33" in out


class TestDeploy:
    def test_deploy_default_dilations(self, capsys):
        assert main(["deploy", "--benchmark", "ppg", "--width", "0.125"]) == 0
        out = capsys.readouterr().out
        assert "all-1" in out
        assert "ms" in out

    def test_deploy_custom_dilations(self, capsys):
        assert main(["deploy", "--benchmark", "ppg", "--width", "0.125",
                     "--dilations", "2", "2", "1", "4", "4", "8", "8"]) == 0
        out = capsys.readouterr().out
        assert "(2, 2, 1, 4, 4, 8, 8)" in out

    def test_deploy_layer_breakdown(self, capsys):
        assert main(["deploy", "--benchmark", "ppg", "--width", "0.125",
                     "--layers"]) == 0
        out = capsys.readouterr().out
        assert "conv1d" in out
        assert "linear" in out

    def test_deploy_wrong_dilation_count(self):
        with pytest.raises(ValueError):
            main(["deploy", "--benchmark", "ppg", "--dilations", "2", "2"])

    def test_deploy_renders_table_iii(self, capsys):
        """deploy now runs the full pipeline: int8 quantization + GAP8
        estimate, rendered as a paper-style Table III row."""
        assert main(["deploy", "--benchmark", "ppg", "--width", "0.125"]) == 0
        out = capsys.readouterr().out
        assert "int8 loss" in out
        assert "latency [ms]" in out
        assert "energy [mJ]" in out

    def test_deploy_no_quantize(self, capsys):
        assert main(["deploy", "--benchmark", "ppg", "--width", "0.125",
                     "--no-quantize"]) == 0
        assert "latency [ms]" in capsys.readouterr().out

    def test_deploy_loads_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "ckpt.npz"
        main(["train", "--benchmark", "ppg", "--width", "0.125",
              "--epochs", "1", "--patience", "1", "--save", str(path)])
        capsys.readouterr()
        assert main(["deploy", "--benchmark", "ppg", "--width", "0.125",
                     "--load", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"loaded    : {path}" in out


class TestSearch:
    def test_search_runs_and_reports(self, capsys):
        code = main(["search", "--benchmark", "ppg", "--width", "0.1",
                     "--lam", "0.5", "--gamma-lr", "0.1", "--warmup", "0",
                     "--epochs", "2", "--finetune", "1", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dilations :" in out
        assert "val loss  :" in out

    def test_search_saves_checkpoint(self, tmp_path, capsys):
        path = tmp_path / "ckpt.npz"
        main(["search", "--benchmark", "ppg", "--width", "0.1",
              "--lam", "0.0", "--warmup", "0", "--epochs", "1",
              "--finetune", "0", "--quiet", "--save", str(path)])
        assert path.exists()
        from repro.nn.serialization import load_state
        _, metadata = load_state(path)
        assert metadata["benchmark"] == "ppg"
        assert "dilations" in metadata


    def test_search_log_lines(self, tmp_path, capsys, monkeypatch):
        """Without --quiet, search narrates the phases; a resumed run says
        where it resumed and ends on the same pruning/fine-tuning lines.
        Pruning is logged as converged only when patience stops it before
        the epoch cap."""
        from repro.testing import faults
        argv = ["search", "--benchmark", "ppg", "--width", "0.1",
                "--lam", "0.5", "--gamma-lr", "0.1", "--warmup", "1",
                "--epochs", "2", "--finetune", "1", "--patience", "2"]
        pruned = (r"\[PIT\] pruning reached the 2-epoch cap, "
                  r"dilations=\(.*\)")
        tuned = r"\[PIT\] fine-tuning done, best val=\d+\.\d{4}"

        def log_lines():
            out = capsys.readouterr().out
            return [line for line in out.splitlines()
                    if line.startswith("[PIT]")]

        assert main(argv) == 0
        fresh = log_lines()
        assert len(fresh) == 3
        for line, pattern in zip(fresh, [
                r"\[PIT\] warmup done, val=\d+\.\d{4}", pruned, tuned]):
            assert re.fullmatch(pattern, line), line

        ckpt = ["--checkpoint-dir", str(tmp_path)]
        faults.reset()
        monkeypatch.setenv(faults.ENV_FAULTS, "crash@epoch=2")
        with pytest.raises(faults.InjectedWorkerCrash):
            main(argv + ckpt)
        monkeypatch.delenv(faults.ENV_FAULTS)
        faults.reset()
        capsys.readouterr()
        assert main(argv + ckpt + ["--resume"]) == 0
        resumed = log_lines()
        assert len(resumed) == 3
        assert re.fullmatch(r"\[PIT\] resumed from .*search\.ckpt\.npz at "
                            r"phase 'prune', global epoch 2", resumed[0])
        assert resumed[1:] == fresh[1:]

        # Patience 1 stops pruning after 2 of 8 epochs.
        patient = argv[:argv.index("--epochs")] + [
            "--epochs", "8", "--finetune", "1", "--patience", "1"]
        assert main(patient) == 0
        assert re.fullmatch(r"\[PIT\] pruning converged after 2 epochs, "
                            r"dilations=\(.*\)", log_lines()[1])


class TestSweep:
    def test_sweep_prints_front(self, capsys):
        code = main(["sweep", "--benchmark", "ppg", "--width", "0.1",
                     "--lambdas", "0", "1.0", "--gamma-lr", "0.1",
                     "--warmup", "0", "--epochs", "2", "--finetune", "0",
                     "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pareto front" in out
        assert "lambda" in out

    def test_sweep_exposes_backend_and_compile(self, capsys):
        """No kernel or compile flag: the sweep runs on the defaults."""
        code = main(["sweep", "--benchmark", "ppg", "--width", "0.1",
                     "--lambdas", "0.5", "--gamma-lr", "0.1",
                     "--warmup", "0", "--epochs", "1", "--finetune", "0",
                     "--quiet"])
        assert code == 0
        assert "pareto front" in capsys.readouterr().out

    def test_sweep_hw_annotates_and_prints_3d_front(self, capsys, tmp_path):
        cache = tmp_path / "dse.json"
        argv = ["sweep", "--benchmark", "ppg", "--width", "0.1",
                "--lambdas", "0", "--gamma-lr", "0.1", "--warmup", "0",
                "--epochs", "1", "--finetune", "0", "--quiet", "--hw",
                "--cache", str(cache)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "int8 loss" in out
        assert "lat ms" in out
        assert "hw pareto front (params, latency_ms, loss)" in out

        # The cache recorded the deployment metrics...
        import json
        from repro.evaluation import DSECache
        payload = json.loads(cache.read_text())
        assert payload["version"] == DSECache.VERSION
        entry = next(iter(payload["points"].values()))
        assert entry["metrics"]["latency_ms"] > 0
        # ...and a re-run resumes from it (same printed result, no retrain).
        assert main(argv) == 0
        assert "hw pareto front" in capsys.readouterr().out


class TestTrain:
    def test_train_runs_and_reports(self, capsys):
        code = main(["train", "--benchmark", "ppg", "--width", "0.1",
                     "--epochs", "1", "--patience", "1", "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "val loss" in out
        assert "test loss" in out
        assert "all-1" in out

    def test_train_custom_dilations(self, capsys):
        code = main(["train", "--benchmark", "ppg", "--width", "0.1",
                     "--epochs", "1", "--patience", "1", "--quiet",
                     "--dilations", "2", "2", "1", "4", "4", "8", "8"])
        assert code == 0
        assert "(2, 2, 1, 4, 4, 8, 8)" in capsys.readouterr().out

    def test_train_exposes_backend_knob(self, capsys, count_kernel_calls):
        """``train`` has no kernel flag: its convs run on the one kernel
        object, where a profiler wrapping the methods sees them."""
        with count_kernel_calls() as calls:
            code = main(["train", "--benchmark", "ppg", "--width", "0.1",
                         "--epochs", "1", "--patience", "1", "--quiet"])
        assert code == 0
        assert "val loss" in capsys.readouterr().out
        assert {"forward", "grad_input", "grad_weight"} <= set(calls)

    def test_train_compile_flag(self, capsys):
        """Training replays its compiled step with no flag."""
        code = main(["train", "--benchmark", "ppg", "--width", "0.1",
                     "--epochs", "1", "--patience", "1", "--quiet"])
        assert code == 0
        assert "val loss" in capsys.readouterr().out

    def test_train_saves_checkpoint(self, tmp_path):
        path = tmp_path / "plain.npz"
        main(["train", "--benchmark", "ppg", "--width", "0.1",
              "--epochs", "1", "--patience", "1", "--quiet",
              "--save", str(path)])
        assert path.exists()

    def test_compile_defaults_parse(self):
        """There is no execution knob: the compiled step always runs."""
        for command in ("train", "search", "sweep"):
            args = build_parser().parse_args([command])
            assert not hasattr(args, "compile")
            assert args.verbose is False
            for flag in ("--graph-opt", "--graph-exec", "--loop-capture",
                         "--dump-graph-source"):
                with pytest.raises(SystemExit):
                    build_parser().parse_args([command, flag, "x"])

    def test_train_compile_verbose(self, capsys):
        code = main(["train", "--benchmark", "ppg", "--width", "0.1",
                     "--epochs", "1", "--patience", "1", "--quiet",
                     "--verbose"])
        assert code == 0
        out = capsys.readouterr().out
        # --verbose surfaces the compile diagnostics: the replayed shapes.
        assert re.search(r"^\[compile\] replaying x=\(\d+, 4, \d+\) "
                         r"y=\(\d+, 1\)$", out, re.MULTILINE), out

    def test_train_verbose_without_compile_explains(self, capsys):
        # Without any flag, --verbose reports what the compiled step did:
        # it replayed a program, it did not fall back to eager.
        code = main(["train", "--benchmark", "ppg", "--width", "0.1",
                     "--epochs", "1", "--patience", "1", "--quiet",
                     "--verbose"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[compile] replaying" in out
        assert "eager" not in out

    def test_search_compile_verbose(self, capsys):
        code = main(["search", "--benchmark", "ppg", "--width", "0.1",
                     "--lam", "0.0", "--warmup", "1", "--epochs", "1",
                     "--finetune", "1", "--quiet", "--verbose"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dilations :" in out
        for phase in ("warmup", "prune", "finetune"):
            assert f"[compile:{phase}]" in out

    def test_sweep_compile_flag(self, capsys):
        """A stacked sweep replays the stacked trainer's compiled step
        with no flag."""
        code = main(["sweep", "--benchmark", "ppg", "--width", "0.1",
                     "--lambdas", "0", "0.5", "--gamma-lr", "0.1",
                     "--warmup", "0", "--epochs", "1", "--finetune", "0",
                     "--stack", "2", "--quiet"])
        assert code == 0
        assert "pareto front" in capsys.readouterr().out


class TestServe:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.capacity == 8
        assert args.port == 0
        assert args.queue_size == 64
        assert args.max_sessions is None
        assert not args.quantize

    def test_serve_round_trip_over_tcp(self, capsys):
        import asyncio
        import socket
        import threading
        import time

        from repro.models import restcn_fixed
        from repro.serving import StreamingExecutor
        from repro.serving.client import stream_samples

        with socket.socket() as probe:  # reserve a free port
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        argv = ["serve", "--benchmark", "music", "--width", "0.05",
                "--seed", "0", "--port", str(port), "--capacity", "2",
                "--max-sessions", "1"]
        worker = threading.Thread(target=main, args=(argv,), daemon=True)
        worker.start()

        samples = np.random.default_rng(4).standard_normal((5, 88))

        async def client():
            deadline = time.monotonic() + 15
            while True:
                try:
                    return await stream_samples("127.0.0.1", port, samples)
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    await asyncio.sleep(0.05)

        result = asyncio.run(client())
        worker.join(timeout=15)
        assert not worker.is_alive()

        assert result["error"] is None
        assert len(result["frames"]) == 5
        # The served frames are what a dedicated fresh stream produces for
        # the same fixed model (same benchmark/width/seed).
        model = restcn_fixed(None, width_mult=0.05, seed=0)
        out = StreamingExecutor(model).push(samples.T[None])
        for i, msg in enumerate(result["frames"]):
            assert np.allclose(msg["data"], out[0, :, i], atol=1e-6)


class TestReliabilityFlags:
    def test_sweep_reliability_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.retries == 0
        assert args.point_timeout is None

    def test_sweep_reliability_flags_parse(self):
        args = build_parser().parse_args(
            ["sweep", "--retries", "2", "--point-timeout", "30.5"])
        assert args.retries == 2
        assert args.point_timeout == 30.5

    def test_serve_client_timeout_flag(self):
        args = build_parser().parse_args(["serve"])
        assert args.client_timeout is None
        args = build_parser().parse_args(["serve", "--client-timeout", "5"])
        assert args.client_timeout == 5.0
