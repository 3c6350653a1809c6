"""Tests for the command-line interface."""

import re

import numpy as np
import pytest

from repro.cli import build_parser, format_front, main
from repro.evaluation import DSEPoint


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

    @pytest.mark.parametrize("command", ["train", "search"])
    def test_resume_needs_checkpoint_dir(self, command, capsys):
        """--resume without a directory has nothing to resume from: one
        usage-error line and exit 2 before any training, instead of a
        fresh run the user would take for a resumed one."""
        assert main([command, "--resume", "--width", "0.125", "--epochs",
                     "1", "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro {command}: error: --resume needs --checkpoint-dir\n")

    @pytest.mark.parametrize("command", ["train", "search", "sweep"])
    def test_checkpoint_every_needs_checkpoint_dir(self, command, capsys):
        """Without a directory --checkpoint-every writes nothing: the same
        usage error as --resume, not a run the user believes is saved."""
        assert main([command, "--checkpoint-every", "2", "--width", "0.125",
                     "--epochs", "1", "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro {command}: error: --checkpoint-every needs "
            "--checkpoint-dir\n")


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

    @pytest.mark.parametrize("case", ["search", "other-dilations",
                                      "garbage", "missing"])
    def test_deploy_bad_checkpoint_is_a_one_line_error(self, case, tmp_path,
                                                       capsys):
        """A file that is missing, unreadable or does not fit the network
        exits 2 with one stderr line and no traceback.  A `search --save`
        file holds the supernet: the line names the dilations it found
        and how to train them."""
        path = tmp_path / "ckpt.npz"
        if case == "search":
            main(["search", "--benchmark", "ppg", "--width", "0.125",
                  "--warmup", "0", "--epochs", "1", "--finetune", "0",
                  "--quiet", "--save", str(path)])
        elif case == "other-dilations":
            main(["train", "--benchmark", "ppg", "--width", "0.125",
                  "--dilations", "2", "2", "1", "4", "4", "8", "8",
                  "--epochs", "1", "--patience", "1", "--save", str(path)])
        elif case == "garbage":
            path.write_bytes(b"not a checkpoint")
        capsys.readouterr()
        assert main(["deploy", "--benchmark", "ppg", "--width", "0.125",
                     "--load", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro deploy: error: ")
        assert err.count("\n") == 1
        if case == "search":
            assert "the file holds a search supernet with dilations" in err
            assert "`train --dilations" in err
        elif case == "other-dilations":
            assert "shape mismatch" in err
            assert ("the file holds dilations 2 2 1 4 4 8 8: run "
                    "`deploy --dilations 2 2 1 4 4 8 8 --load FILE`") in err

    @pytest.mark.parametrize("command", ["deploy", "serve"])
    def test_old_npz_model_file_is_a_one_line_error(self, command, tmp_path,
                                                    capsys):
        """A model file saved before the array-file format is an npz zip:
        `--load` names it as such and says how to re-save it."""
        path = tmp_path / "old.npz"
        np.savez(path, w=np.zeros(3))
        assert main([command, "--benchmark", "ppg", "--width", "0.125",
                     "--load", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"repro {command}: error: {str(path)!r} is an old npz model "
            "file; re-save it with `train --save`\n")


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
        assert re.fullmatch(r"\[PIT\] resumed from .*search\.ckpt at "
                            r"phase 'prune', global epoch 2", resumed[0])
        assert resumed[1:] == fresh[1:]

        # Patience 1 stops pruning after 2 of 8 epochs.
        patient = argv[:argv.index("--epochs")] + [
            "--epochs", "8", "--finetune", "1", "--patience", "1"]
        assert main(patient) == 0
        assert re.fullmatch(r"\[PIT\] pruning converged after 2 epochs, "
                            r"dilations=\(.*\)", log_lines()[1])


    def test_resume_from_another_width_starts_fresh(self, tmp_path, capsys):
        """A checkpoint written for another network (here: another width)
        warns and starts fresh, printing what an uncheckpointed run does."""
        argv = ["search", "--benchmark", "ppg", "--lam", "0.5",
                "--warmup", "1", "--epochs", "1", "--finetune", "1",
                "--quiet"]
        ckpt = ["--checkpoint-dir", str(tmp_path)]

        def result_lines():
            return [line for line in capsys.readouterr().out.splitlines()
                    if not line.startswith("time")]

        assert main(argv + ["--width", "0.125"] + ckpt) == 0
        capsys.readouterr()
        with pytest.warns(UserWarning, match="another network"):
            assert main(argv + ["--width", "0.25"] + ckpt + ["--resume"]) == 0
        resumed = result_lines()
        assert main(argv + ["--width", "0.25"]) == 0
        assert resumed == result_lines()


class TestSweep:
    def test_old_cache_file_is_a_one_line_error(self, tmp_path, capsys,
                                                monkeypatch):
        """A cache file of the single-JSON-file format is not read: one
        error line naming the file and saying the cache is a directory
        now, exit 2 before any training, and the file stays as it was."""
        from repro.evaluation import DSEEngine

        def no_engine(*args, **kwargs):
            raise AssertionError("the sweep built an engine")

        monkeypatch.setattr(DSEEngine, "__init__", no_engine)
        path = tmp_path / "dse.json"
        path.write_text('{"version": 3, "points": {}}')
        assert main(["sweep", "--benchmark", "ppg", "--width", "0.1",
                     "--lambdas", "0", "--epochs", "1", "--quiet",
                     "--cache", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("repro sweep: error: ")
        assert repr(str(path)) in captured.err
        assert "directory" in captured.err
        assert path.read_text() == '{"version": 3, "points": {}}'

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

    def test_sweep_hw_annotates_and_prints_3d_front(self, capsys, tmp_path,
                                                    cache_entries):
        cache = tmp_path / "dse"
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
        entry, = cache_entries(cache).values()
        assert entry["metrics"]["latency_ms"] > 0
        # ...and a re-run resumes from it (same printed result, no retrain).
        assert main(argv) == 0
        assert "hw pareto front" in capsys.readouterr().out


class TestFrontFormat:
    def test_tied_networks_print_once_with_their_lambdas(self):
        def point(lam, dilations, params, loss, warmup=1):
            return DSEPoint(lam=lam, warmup_epochs=warmup,
                            dilations=dilations, params=params, loss=loss)
        front = [point(0.0, (1, 1), 49729, 3.90341),
                 point(0.1, (4, 8), 22433, 11.26551),
                 point(1.0, (4, 8), 22433, 11.26551),
                 point(1.0, (4, 8), 22433, 11.26551, warmup=2)]
        coords = lambda p: (p.params, round(p.loss, 4))
        assert format_front(front, coords) == (
            "[(49729, 3.9034), (22433, 11.2655; lambda=0.1, 1)]")
        # Without ties the line is the plain list of coordinate tuples.
        assert format_front(front[:2], coords) == str(
            [coords(p) for p in front[:2]])

    def test_same_coordinates_other_dilations_stay_apart(self):
        a = DSEPoint(lam=0.1, warmup_epochs=0, dilations=(2, 4),
                     params=100, loss=1.0)
        b = DSEPoint(lam=1.0, warmup_epochs=0, dilations=(4, 2),
                     params=100, loss=1.0)
        assert format_front([a, b], lambda p: (p.params, p.loss)) == (
            "[(100, 1.0), (100, 1.0)]")


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
        """There is no execution knob and nothing to diagnose: the
        compiled step always runs, and ``--verbose`` is a usage error."""
        for command in ("train", "search", "sweep"):
            assert not hasattr(build_parser().parse_args([command]),
                               "compile")
            for flag in ("--graph-opt", "--graph-exec", "--loop-capture",
                         "--dump-graph-source", "--verbose"):
                with pytest.raises(SystemExit) as exc:
                    build_parser().parse_args([command, flag])
                assert exc.value.code == 2

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
    def test_unfit_checkpoint_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "ckpt.npz"
        main(["train", "--benchmark", "ppg", "--width", "0.125",
              "--dilations", "2", "2", "1", "4", "4", "8", "8",
              "--epochs", "1", "--patience", "1", "--save", str(path)])
        capsys.readouterr()
        assert main(["serve", "--benchmark", "ppg", "--width", "0.125",
                     "--load", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve: error: ")
        assert err.count("\n") == 1
        assert "shape mismatch" in err
        assert "`serve --dilations 2 2 1 4 4 8 8 --load FILE`" in err

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
