"""CLI tests (in-process via repro.cli.main)."""

import argparse
import os

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datasets import load_image, save_image
from repro.serve.cpu import cores


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, type(parser._actions[-1]))
                   and hasattr(a, "choices") and a.choices)
        assert {"train", "eval", "upscale", "collapse", "compile",
                "estimate", "nas", "serve", "profile"} <= set(sub.choices)

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    @staticmethod
    def options(command):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        return {opt for a in sub.choices[command]._actions
                for opt in a.option_strings if opt not in ("-h", "--help")}

    # Every flag is a reviewed decision: adding or removing one must
    # change these sets.
    def test_serve_option_set_is_pinned(self):
        assert self.options("serve") == {
            "--model", "--scale", "--seed", "--ckpt", "--host", "--port",
            "--workers", "--tile", "--precision", "--cache-size",
            "--queue-size", "--timeout", "--batch-window-ms", "--max-batch",
            "--max-body-bytes", "--breaker-threshold", "--breaker-cooldown",
            "--no-degraded", "--verbose",
        }

    def test_upscale_option_set_is_pinned(self):
        assert self.options("upscale") == {
            "--model", "--scale", "--seed", "--ckpt", "--input", "--output",
            "--tile", "--ensemble",
        }


class TestResolutionParsing:
    def test_valid_resolution(self):
        args = build_parser().parse_args(
            ["estimate", "--resolution", "640x360"])
        assert args.resolution == (360, 640)

    @pytest.mark.parametrize("bad", ["1920", "ax b", "1920x", "x1080",
                                     "axb", "0x100", "-2x100", "1x2x3"])
    def test_malformed_resolution_is_an_argparse_error(self, bad, capsys):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["estimate", "--resolution", bad])
        assert err.value.code == 2  # argparse usage error, not a traceback
        assert "resolution" in capsys.readouterr().err


class TestServeErrors:
    def test_unknown_model_is_a_clean_error(self, capsys):
        assert main(["serve", "--model", "NOPE", "--port", "0"]) == 2
        err = capsys.readouterr().err
        assert "unknown model 'NOPE'" in err
        assert "SESR-M5" in err  # the error lists what *is* deployable

    def test_int8_on_a_non_sesr_model_is_a_clean_error(self, capsys):
        assert main(["serve", "--model", "FSRCNN", "--precision", "int8",
                     "--port", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve: error:")
        assert "requires a SESR model" in err


# Every command with --model, with the arguments it needs to get as far
# as loading the model; which of the bad inputs below each one accepts.
_COMMANDS = {
    "train": (["--epochs", "1", "--images", "1", "--patch", "8"], ()),
    "eval": ([], ("ckpt",)),
    "upscale": (["--input", "{tmp}/in.pgm", "--output", "{tmp}/out.pgm"],
                ("ckpt",)),
    "collapse": (["--out", "{tmp}/c.npz"], ("ckpt",)),
    "compile": (["--size", "8"], ("ckpt", "precision")),
    "profile": (["--size", "8", "--mode", "deployed"], ("precision",)),
    "serve": (["--port", "0"], ("ckpt", "precision")),
}
_BAD_INPUTS = {
    # name: (arguments, option it needs, expected message fragment)
    "unknown-model": (["--model", "bogus"], None, "unknown model 'bogus'"),
    "missing-ckpt": (["--ckpt", "{tmp}/missing.npz"], "ckpt",
                     "No such file"),
    "mismatched-ckpt": (["--model", "M5", "--ckpt", "{tmp}/m3.npz"], "ckpt",
                        "does not match model"),
    "unreadable-ckpt": (["--ckpt", "{tmp}/torn.npz"], "ckpt", "unreadable"),
    "int8-fsrcnn": (["--model", "FSRCNN", "--precision", "int8"],
                    "precision", "requires a SESR model"),
}


def _error_cases():
    for cmd, (_, takes) in _COMMANDS.items():
        for bad, (_, needs, _) in _BAD_INPUTS.items():
            if needs is None or needs in takes:
                yield pytest.param(cmd, bad, id=f"{cmd}-{bad}")


class TestLoadErrors:
    """One error contract: a bad model, checkpoint or precision is a clean
    ``repro <cmd>: error:`` with exit 2 on every command, as on serve."""

    @pytest.mark.parametrize("cmd,bad", _error_cases())
    def test_bad_input_is_a_clean_exit_2(self, cmd, bad, tmp_path, capsys):
        from repro.core import SESR
        from repro.nn import save_state

        tmp = str(tmp_path)
        save_state(SESR.from_name("M3", scale=2), f"{tmp}/m3.npz")
        with open(f"{tmp}/m3.npz", "rb") as fh:
            torn = fh.read()[:100]  # a zip cut short: unreadable
        with open(f"{tmp}/torn.npz", "wb") as fh:
            fh.write(torn)
        save_image(f"{tmp}/in.pgm", np.zeros((8, 8), dtype=np.float32))
        extra, _ = _COMMANDS[cmd]
        bad_args, _, message = _BAD_INPUTS[bad]
        argv = [cmd, *extra, *bad_args]
        assert main([a.format(tmp=tmp) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {cmd}: error:"), err
        assert message in err

    @pytest.mark.parametrize("name", ["FSRCNN (our setup)", "SESR-M5", "m5"])
    def test_compile_accepts_the_names_serve_accepts(self, name, capsys):
        assert main(["compile", "--model", name, "--size", "8"]) == 0
        assert "plan @ 8x8" in capsys.readouterr().out

    def test_profile_deploys_fsrcnn_as_is(self, capsys):
        assert main(["profile", "--model", "FSRCNN", "--size", "8",
                     "--mode", "deployed"]) == 0
        out = capsys.readouterr().out
        assert "deployed (fp32)" in out and "conv2d" in out

    def test_collapse_passes_fsrcnn_through(self, tmp_path, capsys):
        out = str(tmp_path / "f.npz")
        assert main(["collapse", "--model", "FSRCNN", "--out", out]) == 0
        assert os.path.exists(out)
        assert "12,809 training params -> 12,809" in capsys.readouterr().out


class TestServeFlags:
    def test_batching_flags_have_safe_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.batch_window_ms == 0.0  # coalescing opt-in
        assert args.max_batch == 8

    def test_serve_builds_and_prints_an_engine_config(self, capsys,
                                                      monkeypatch):
        # Short-circuit serve_forever so cmd_serve starts, prints its
        # config banner, and drains immediately.
        from repro.serve import SRServer

        monkeypatch.setattr(
            SRServer, "serve_forever",
            lambda self, *a, **k: (_ for _ in ()).throw(KeyboardInterrupt),
        )
        assert main(["serve", "--model", "M3", "--port", "0",
                     "--workers", "1", "--batch-window-ms", "4",
                     "--tile", "32"]) == 0
        out = capsys.readouterr().out
        assert "workers 1" in out and "tile 32x32" in out
        assert "cross-request window 4 ms" in out
        assert f"cpu: {cores()} cores, BLAS threads" in out
        assert "POST /v1/upscale" in out


class TestEstimate:
    def test_estimate_runs(self, capsys):
        assert main(["estimate", "--resolution", "640x360"]) == 0
        out = capsys.readouterr().out
        assert "SESR-M5" in out and "FSRCNN" in out
        assert "MACs" in out

    def test_estimate_with_tile(self, capsys):
        assert main(["estimate", "--resolution", "640x360",
                     "--tile", "90"]) == 0
        assert "tiled" in capsys.readouterr().out


class TestTrainEvalCollapse:
    def test_train_save_collapse_upscale(self, tmp_path, capsys):
        ckpt = os.path.join(tmp_path, "m.npz")
        rc = main([
            "train", "--model", "M3", "--epochs", "1", "--images", "2",
            "--patch", "12", "--out", ckpt,
        ])
        assert rc == 0 and os.path.exists(ckpt)

        collapsed = os.path.join(tmp_path, "c.npz")
        assert main(["collapse", "--model", "M3", "--ckpt", ckpt,
                     "--out", collapsed]) == 0
        assert os.path.exists(collapsed)

        # Upscale a grey and a colour image, full-frame and tiled.
        rng = np.random.default_rng(0)
        grey = os.path.join(tmp_path, "g.pgm")
        save_image(grey, rng.random((24, 20)).astype(np.float32))
        out = os.path.join(tmp_path, "g2.pgm")
        assert main(["upscale", "--model", "M3", "--ckpt", ckpt,
                     "--input", grey, "--output", out]) == 0
        assert load_image(out).shape == (48, 40)

        colour = os.path.join(tmp_path, "c.ppm")
        save_image(colour, rng.random((16, 16, 3)).astype(np.float32))
        out2 = os.path.join(tmp_path, "c2.ppm")
        assert main(["upscale", "--model", "M3", "--ckpt", ckpt,
                     "--input", colour, "--output", out2,
                     "--tile", "8"]) == 0
        assert load_image(out2).shape == (32, 32, 3)


class TestNas:
    def test_nas_command_runs(self, capsys):
        assert main(["nas", "--slots", "2", "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "found:" in out and "latency" in out


class TestEvalOnFolder:
    def test_eval_on_real_images(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        for i in range(2):
            save_image(os.path.join(tmp_path, f"i{i}.pgm"),
                       rng.random((32, 32)).astype(np.float32))
        assert main(["eval", "--model", "M3", "--data", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PSNR" in out and str(tmp_path) in out


class TestUpscaleEnsemble:
    def test_upscale_with_ensemble(self, tmp_path):
        rng = np.random.default_rng(1)
        src = os.path.join(tmp_path, "in.pgm")
        save_image(src, rng.random((16, 16)).astype(np.float32))
        dst = os.path.join(tmp_path, "out.pgm")
        assert main(["upscale", "--model", "M3", "--input", src,
                     "--output", dst, "--ensemble"]) == 0
        assert load_image(dst).shape == (32, 32)


class TestProfile:
    def test_profile_both_matches_fig3_analytic(self, tmp_path, capsys):
        """Measured expanded/collapsed MAC ratio tracks §3.3 within 5%."""
        jsonl = os.path.join(tmp_path, "ops.jsonl")
        assert main(["profile", "--model", "M5", "--scale", "2",
                     "--size", "8", "--jsonl", jsonl]) == 0
        out = capsys.readouterr().out
        assert "expanded" in out and "collapsed" in out
        assert "conv2d" in out

        import json
        import re

        rows = [json.loads(line)
                for line in open(jsonl, encoding="utf-8")]
        macs = {"expanded": 0, "collapsed": 0}
        for row in rows:
            macs[row["mode"]] += row["macs"]

        f, m, p, px, s = 16, 5, 256, 8 * 8, 2
        expanded = px * ((25 * 1 * p + p * f)
                         + m * (9 * f * p + p * f)
                         + (25 * f * p + p * s * s))
        collapse_cost = (25 * 1 * p * f + m * 9 * f * p * f
                         + 25 * f * p * s * s)
        collapsed = px * (25 * 1 * f + m * 9 * f * f
                          + 25 * f * s * s) + collapse_cost
        assert macs["expanded"] == expanded
        assert macs["collapsed"] == pytest.approx(collapsed, rel=0.05)
        ratio = macs["expanded"] / macs["collapsed"]
        assert ratio == pytest.approx(expanded / collapsed, rel=0.05)

        printed = re.search(r"MAC ratio: ([\d.]+)x", out)
        assert printed
        assert float(printed.group(1)) == pytest.approx(ratio, abs=0.01)

    def test_profile_deployed_int8(self, capsys):
        assert main(["profile", "--model", "M3", "--scale", "2",
                     "--size", "8", "--mode", "deployed",
                     "--precision", "int8"]) == 0
        out = capsys.readouterr().out
        assert "deployed (int8)" in out
        assert "conv2d" in out and "TOTAL" in out
