"""Command-line interface: train / eval / upscale / collapse / compile /
estimate / nas / serve / profile.

Examples
--------
Train a SESR-M5 on the synthetic corpus and save a checkpoint::

    python -m repro.cli train --model M5 --scale 2 --epochs 20 \
        --out sesr_m5_x2.npz

Evaluate it on the benchmark suites::

    python -m repro.cli eval --model M5 --scale 2 --ckpt sesr_m5_x2.npz

Upscale a real image (PGM/PPM; colour images are processed on the Y
channel, as in the paper)::

    python -m repro.cli upscale --model M5 --scale 2 --ckpt sesr_m5_x2.npz \
        --input photo.ppm --output photo_x2.ppm --tile 128

Simulate NPU performance for 1080p -> 4K (Table 3)::

    python -m repro.cli estimate --resolution 1920x1080

Serve the collapsed network over HTTP (see docs/serving.md)::

    python -m repro.cli serve --model M5 --scale 2 --workers 4 --port 8000
    curl --data-binary @photo.ppm http://127.0.0.1:8000/v1/upscale -o photo_x2.ppm

Profile where the MACs and milliseconds go, expanded vs collapsed (Fig 3)::

    python -m repro.cli profile --model M5 --scale 2 --size 64 \
        --jsonl profile.jsonl

Inspect what the graph compiler does to the collapsed net (see
docs/compiler.md)::

    python -m repro.cli compile --model M5 --scale 2 --size 96 --dump-ir
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

import numpy as np


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
class _CommandError(Exception):
    """A bad ``--model``/``--ckpt``/``--precision`` (or engine setting),
    reported by :func:`main` as ``repro <cmd>: error: ...`` with exit 2."""


@contextlib.contextmanager
def _reported():
    """Report the deploy path's caller errors cleanly.

    Wraps only the load/deploy (or engine construction) call: an unknown
    model name, a missing, mismatched or unreadable checkpoint, int8 on a
    model that is not SESR.  Any other exception keeps its traceback.
    """
    from .deploy.pipeline import LOAD_ERRORS

    try:
        yield
    except LOAD_ERRORS as exc:
        # KeyError's str() quotes its message; every other one is plain.
        raise _CommandError(
            exc.args[0] if isinstance(exc, KeyError) else exc
        ) from exc


def _resolution(text: str):
    """Parse ``WxH`` (e.g. ``1920x1080``) to ``(h, w)``; argparse-friendly."""
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected WxH (e.g. 1920x1080), got {text!r}"
        )
    try:
        w, h = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"resolution components must be integers, got {text!r}"
        ) from None
    if w <= 0 or h <= 0:
        raise argparse.ArgumentTypeError(
            f"resolution components must be positive, got {text!r}"
        )
    return h, w


# ---------------------------------------------------------------------- #
# commands
# ---------------------------------------------------------------------- #
def cmd_train(args: argparse.Namespace) -> int:
    from .datasets import benchmark_suites
    from .deploy import load
    from .nn import save_state
    from .train import ExperimentConfig, run_experiment

    with _reported():
        model = load(args.model, args.scale, seed=args.seed)
    config = ExperimentConfig(
        scale=args.scale, epochs=args.epochs, train_images=args.images,
        patch_size=args.patch, lr=args.lr, seed=args.seed,
    )
    suites = benchmark_suites(args.scale, names=("set5", "div2k-val"))
    print(f"training {args.model} (x{args.scale}) for {args.epochs} epochs ...")
    result = run_experiment(
        model, config, suites,
        log_fn=(lambda step, loss: print(f"  step {step}: loss {loss:.4f}"))
        if args.verbose else None,
    )
    print(f"final loss: {result.train.final_loss:.4f}")
    for suite, metrics in result.metrics.items():
        print(f"  {suite}: {metrics['psnr']:.2f} dB / {metrics['ssim']:.4f}")
    if args.out:
        save_state(model, args.out)
        print(f"saved checkpoint: {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from .datasets import ImageFolderDataset, benchmark_suites
    from .deploy import load
    from .train import evaluate_model
    from .utils import format_table

    with _reported():
        model = load(args.model, args.scale, args.ckpt, args.seed)
    if args.data:
        # Real images: a directory of PGM/PPM HR files.
        suites = {args.data: ImageFolderDataset(args.data, scale=args.scale)}
    else:
        suites = benchmark_suites(args.scale)
    rows = []
    for name, ds in suites.items():
        m = evaluate_model(model, ds)
        rows.append([name, f"{m['psnr']:.2f}", f"{m['ssim']:.4f}"])
    print(format_table(["suite", "PSNR (dB)", "SSIM"], rows,
                       title=f"{args.model} x{args.scale}"))
    return 0


def cmd_upscale(args: argparse.Namespace) -> int:
    from .compile import compile_model
    from .datasets import load_image, save_image
    from .deploy import (
        load,
        self_ensemble,
        tiled_upscale,
        to_deployable,
        upscale_colour,
    )
    from .train import predict_image

    with _reported():
        deployed = to_deployable(
            load(args.model, args.scale, args.ckpt, args.seed)
        )
    # The compiled planned-buffer executor, bit-identical to the eager
    # collapsed forward.
    model = compile_model(deployed)
    img = load_image(args.input)

    def run_y(y: np.ndarray) -> np.ndarray:
        if args.ensemble:
            return self_ensemble(model, y, args.scale)
        if args.tile:
            return tiled_upscale(model, y, args.scale,
                                 tile=(args.tile, args.tile))
        return predict_image(model, y)

    # Paper protocol: super-resolve Y, bicubic-upscale chroma.
    out = upscale_colour(img, args.scale, run_y)
    save_image(args.output, out)
    print(f"{args.input} {img.shape[:2]} -> {args.output} {out.shape[:2]}")
    return 0


def cmd_collapse(args: argparse.Namespace) -> int:
    from .deploy import load, to_deployable
    from .nn import save_state

    with _reported():
        model = load(args.model, args.scale, args.ckpt, args.seed)
        deployed = to_deployable(model)
    save_state(deployed, args.out)
    # Conv weights without biases for collapsed SESR (the paper's
    # convention); a model that does not collapse counts all parameters.
    weights = getattr(deployed, "collapsed_num_parameters",
                      deployed.num_parameters)()
    print(
        f"collapsed {args.model}: {model.num_parameters():,} training params "
        f"-> {weights:,} inference weights ({args.out})"
    )
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    from .compile import compile_model
    from .deploy import load, to_deployable
    from .utils import format_table

    with _reported():
        model = to_deployable(
            load(args.model, args.scale, args.ckpt, args.seed),
            args.precision,
        )
    compiled = compile_model(model, optimize=not args.no_optimize)
    graph = compiled.graph

    rows = [
        [e.name, str(e.changes), f"{e.nodes_before} -> {e.nodes_after}"]
        for e in (compiled.pass_log or [])
    ]
    if rows:
        print(format_table(["pass", "changes", "nodes"], rows,
                           title=f"{compiled.source or args.model}: passes"))
    else:
        print(f"{compiled.source or args.model}: optimisation disabled "
              f"({len(graph.nodes)} nodes)")

    mem = compiled.memory_stats(args.size, args.size)
    print(format_table(
        ["metric", "value"],
        [
            ["nodes", f"{len(graph.nodes)}"],
            ["arena slots", f"{mem['slots']}"],
            ["planned peak", f"{mem['arena_bytes']:,} B"],
            ["naive peak", f"{mem['naive_bytes']:,} B"],
            ["liveness lower bound", f"{mem['lower_bound_bytes']:,} B"],
            ["scratch (cols/tmp/pads)", f"{mem['scratch_bytes']:,} B"],
            ["MACs", f"{graph.macs(args.size, args.size):,}"],
            ["receptive radius", f"{compiled.receptive_radius} px"],
        ],
        title=f"plan @ {args.size}x{args.size} LR ({args.precision})",
    ))
    if args.dump_ir:
        print(graph.pretty())
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    from .hw import ETHOS_N78_4TOPS, compare_models, fsrcnn_graph, sesr_hw_graph

    h, w = args.resolution
    graphs = {
        "FSRCNN": fsrcnn_graph(args.scale, h, w),
        "SESR-M3": sesr_hw_graph(16, 3, args.scale, h, w),
        "SESR-M5": sesr_hw_graph(16, 5, args.scale, h, w),
        "SESR-M7": sesr_hw_graph(16, 7, args.scale, h, w),
        "SESR-M11": sesr_hw_graph(16, 11, args.scale, h, w),
        "SESR-XL": sesr_hw_graph(32, 11, args.scale, h, w),
    }
    tile = (args.tile, args.tile) if args.tile else None
    print(f"Simulated Ethos-N78 (4 TOP/s), {w}x{h} x{args.scale}")
    print(compare_models(graphs, ETHOS_N78_4TOPS, tile=tile))
    return 0


def cmd_nas(args: argparse.Namespace) -> int:
    from .datasets import PatchSampler, SyntheticDataset
    from .hw import ETHOS_N78_4TOPS
    from .nas import (
        DNASConfig,
        SESRSupernet,
        genotype_latency_ms,
        search,
        sesr_m_genotype,
    )

    ds = SyntheticDataset("div2k", n_images=8, size=(96, 96),
                          scale=args.scale, seed=args.seed)
    sampler = PatchSampler(ds, scale=args.scale, patch_size=12,
                           crops_per_image=8, batch_size=6, seed=args.seed)
    supernet = SESRSupernet(scale=args.scale, f=16, slots=args.slots,
                            expansion=32, seed=args.seed)
    config = DNASConfig(steps=args.steps, latency_weight=args.latency_weight)
    print(f"searching ({args.steps} steps, λ={args.latency_weight}) ...")
    result = search(supernet, sampler, config, npu=ETHOS_N78_4TOPS)
    lat = genotype_latency_ms(result.genotype, ETHOS_N78_4TOPS, 200, 200)
    base = sesr_m_genotype(args.slots, 16, args.scale)
    lat_base = genotype_latency_ms(base, ETHOS_N78_4TOPS, 200, 200)
    print(f"found: {result.genotype.describe()}")
    print(f"simulated latency @200x200: {lat:.3f} ms "
          f"(manual SESR-M{args.slots}: {lat_base:.3f} ms)")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from .deploy import load, to_deployable
    from .nn import no_grad
    from .nn import Tensor as _Tensor
    from .obs import Profiler, profile
    from .utils import format_table

    def run(mode: str) -> Profiler:
        rng = np.random.default_rng(args.seed)
        x = rng.random((args.batch, args.size, args.size, 1))
        prof = Profiler()
        if mode == "deployed":
            with _reported():
                model = to_deployable(
                    load(args.model, args.scale, seed=args.seed),
                    args.precision,
                )
            with profile(prof), no_grad():
                for _ in range(args.repeats):
                    model(_Tensor(x))
        else:
            # Training-shaped forward (autograd on), the cost Fig. 3 plots.
            with _reported():
                model = load(args.model, args.scale, seed=args.seed,
                             mode=mode)
            model.train()
            with profile(prof):
                for _ in range(args.repeats):
                    model(_Tensor(x))
        return prof

    modes = (
        ("expanded", "collapsed") if args.mode == "both" else (args.mode,)
    )
    totals = {}
    for mode in modes:
        prof = run(mode)
        totals[mode] = prof.total_macs()
        rows = [
            [op, f"{st['calls']}", f"{st['macs']:,}",
             f"{st['total_ms']:.2f}", f"{st['mean_ms']:.3f}"]
            for op, st in prof.summary().items()
        ]
        rows.append(["TOTAL", "", f"{prof.total_macs():,}",
                     f"{prof.total_ms():.2f}", ""])
        precision = args.precision if mode == "deployed" else "fp32"
        print(format_table(
            ["op", "calls", "MACs", "total ms", "mean ms"], rows,
            title=(f"{args.model} x{args.scale} {mode} ({precision}), "
                   f"batch {args.batch}, {args.size}x{args.size}, "
                   f"{args.repeats} forward(s)"),
        ))
        if args.jsonl:
            prof.write_jsonl(
                args.jsonl, model=args.model, scale=args.scale, mode=mode,
                precision=precision, batch=args.batch, size=args.size,
                repeats=args.repeats,
            )
    if args.mode == "both" and totals.get("collapsed"):
        ratio = totals["expanded"] / totals["collapsed"]
        print(f"expanded/collapsed MAC ratio: {ratio:.2f}x "
              f"({totals['expanded']:,} vs {totals['collapsed']:,})")
    if args.jsonl:
        print(f"wrote per-op records: {args.jsonl}")
    return 0


def _install_shutdown_handlers() -> None:
    """Route SIGINT/SIGTERM through KeyboardInterrupt for a clean drain.

    ``cmd_serve`` catches the KeyboardInterrupt, closes the server (which
    drains in-flight requests via ``engine.shutdown(wait=True)``), and
    exits 0 — instead of a traceback on Ctrl-C or an instant kill on a
    supervisor's SIGTERM.
    """
    import signal

    def _handler(signum, frame):
        raise KeyboardInterrupt

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, _handler)
        except (ValueError, OSError):  # not the main thread / unsupported
            pass


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve import (
        EngineConfig,
        InferenceEngine,
        ModelKey,
        ModelRegistry,
        make_server,
    )

    registry = ModelRegistry(seed=args.seed)
    key = ModelKey(
        name=args.model, scale=args.scale, ckpt=args.ckpt,
        precision=args.precision,
    )
    with _reported():
        config = EngineConfig(
            workers=args.workers,
            tile=args.tile,
            max_batch=args.max_batch,
            batch_window_ms=args.batch_window_ms,
            cache_size=args.cache_size,
            max_pending=args.queue_size,
            default_timeout=args.timeout,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            degraded_mode=not args.no_degraded,
        )
        engine = InferenceEngine(registry, key, config=config)
    server = make_server(
        engine, args.host, args.port, verbose=args.verbose,
        max_body_bytes=args.max_body_bytes,
    )
    host, port = server.server_address[:2]
    # Installed before the banner, so a signal sent as soon as the
    # "endpoints:" line appears still drains instead of killing.
    _install_shutdown_handlers()
    try:
        print(f"serving {args.model} x{args.scale} ({args.precision}) "
              f"on http://{host}:{port}")
        print(config.describe())
        live = engine.stats()["config"]
        blas = live["blas_threads"]
        print(f"  cpu: {live['cores']} cores, BLAS threads "
              f"{'n/a (no OpenBLAS loaded)' if blas is None else blas}")
        print("endpoints: POST /v1/upscale  GET /v1/healthz  "
              "GET /v1/stats  GET /v1/metrics  (Ctrl-C stops)")
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down (draining in-flight requests) ...")
    finally:
        server.close()
    return 0


# ---------------------------------------------------------------------- #
# parser
# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SESR reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", default="M5",
                       help="a deployable zoo name or its short form: "
                            "M3|M5|M7|M11|XL|FSRCNN (default M5)")
        p.add_argument("--scale", type=int, default=2, choices=(2, 4))
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train on the synthetic corpus")
    common(p)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--images", type=int, default=12)
    p.add_argument("--patch", type=int, default=16)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--out", default="", help="checkpoint path (.npz)")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate on the benchmark suites")
    common(p)
    p.add_argument("--ckpt", default="")
    p.add_argument("--data", default="",
                   help="directory of PGM/PPM HR images to evaluate on "
                        "(default: built-in synthetic suites)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("upscale", help="super-resolve a PGM/PPM image")
    common(p)
    p.add_argument("--ckpt", default="")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--tile", type=int, default=0,
                   help="tile size for tiled inference (0 = full frame)")
    p.add_argument("--ensemble", action="store_true",
                   help="geometric x8 self-ensemble (slower, ~+0.1 dB)")
    p.set_defaults(fn=cmd_upscale)

    p = sub.add_parser("collapse", help="export the collapsed inference net")
    common(p)
    p.add_argument("--ckpt", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_collapse)

    p = sub.add_parser("estimate", help="simulate NPU performance (Table 3)")
    p.add_argument("--resolution", type=_resolution, default="1920x1080",
                   help="WxH input")
    p.add_argument("--scale", type=int, default=2, choices=(2, 4))
    p.add_argument("--tile", type=int, default=0)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("serve", help="run the HTTP super-resolution server")
    common(p)
    p.add_argument("--ckpt", default="")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8000,
                   help="TCP port (0 = ephemeral)")
    p.add_argument("--workers", type=int, default=4,
                   help="inference worker threads")
    p.add_argument("--tile", type=int, default=96,
                   help="LR tile size fanned across workers")
    p.add_argument("--precision", choices=("fp32", "int8"), default="fp32",
                   help="deployed arithmetic (int8 = weights-only PTQ)")
    p.add_argument("--cache-size", type=int, default=128,
                   help="LRU output-cache entries (0 disables)")
    p.add_argument("--queue-size", type=int, default=32,
                   help="max in-flight requests before 503s")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="per-request deadline in seconds")
    p.add_argument("--batch-window-ms", type=float, default=0.0,
                   help="coalesce same-shape tiles from concurrent "
                        "requests that arrive within this window into "
                        "one bit-exact forward pass (0 disables)")
    p.add_argument("--max-batch", type=int, default=8,
                   help="largest coalesced batch fed to one forward pass")
    p.add_argument("--max-body-bytes", type=int, default=64 * 1024 * 1024,
                   help="reject larger request bodies with HTTP 413 "
                        "before reading them (default 64 MiB)")
    p.add_argument("--breaker-threshold", type=int, default=5,
                   help="consecutive request failures that open the "
                        "circuit breaker")
    p.add_argument("--breaker-cooldown", type=float, default=30.0,
                   help="seconds the breaker stays open before probing "
                        "the model again")
    p.add_argument("--no-degraded", action="store_true",
                   help="fail requests instead of falling back to "
                        "bicubic when the model path is unavailable")
    p.add_argument("--verbose", action="store_true",
                   help="log each HTTP request")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "compile",
        help="compile the collapsed net: dump IR, pass log, and plan stats",
    )
    common(p)
    p.add_argument("--ckpt", default="")
    p.add_argument("--precision", choices=("fp32", "int8"), default="fp32",
                   help="deployed arithmetic (int8 = weights-only PTQ)")
    p.add_argument("--size", type=int, default=96,
                   help="LR input height/width for plan/MAC stats")
    p.add_argument("--dump-ir", action="store_true",
                   help="print the optimised graph node by node")
    p.add_argument("--no-optimize", action="store_true",
                   help="skip the pass pipeline (capture + plan only)")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser(
        "profile",
        help="per-op wall-clock/MAC profile of a model forward (Fig. 3)",
    )
    common(p)
    p.add_argument("--mode",
                   choices=("expanded", "collapsed", "deployed", "both"),
                   default="both",
                   help="training forward (expanded/collapsed, §3.3), the "
                        "deployed inference net, or both training modes "
                        "side by side (default)")
    p.add_argument("--precision", choices=("fp32", "int8"), default="fp32",
                   help="deployed-mode arithmetic (ignored otherwise)")
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--size", type=int, default=32,
                   help="LR input height/width (default 32)")
    p.add_argument("--repeats", type=int, default=1,
                   help="forward passes to accumulate (default 1)")
    p.add_argument("--jsonl", default="",
                   help="append one JSON line per op to this file")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("nas", help="run a small hardware-aware DNAS")
    p.add_argument("--scale", type=int, default=2, choices=(2, 4))
    p.add_argument("--slots", type=int, default=5)
    p.add_argument("--steps", type=int, default=80)
    p.add_argument("--latency-weight", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_nas)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _CommandError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
