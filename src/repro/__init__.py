"""repro — reproduction of *Collapsible Linear Blocks for Super-Efficient
Super Resolution* (SESR, Bhardwaj et al., MLSYS 2022).

Package layout
--------------
``repro.nn``        from-scratch NumPy deep-learning substrate (autograd,
                    NHWC convolutions, ADAM, ...)
``repro.core``      the paper's contribution: collapsible linear blocks,
                    Algorithms 1-2, SESR models, overparameterization
                    baselines, FSRCNN
``repro.datasets``  synthetic SISR corpus + bicubic degradation pipeline
``repro.metrics``   PSNR / SSIM / parameter & MAC accounting
``repro.train``     training loop and experiment harness (§5.1 protocol)
``repro.hw``        analytical Ethos-N78-class NPU performance estimator
``repro.theory``    §4 gradient-update analysis testbed
``repro.nas``       hardware-aware DNAS over SESR backbones (§3.4)
``repro.zoo``       registry of every network in Tables 1-2 with the
                    paper's reported numbers
``repro.obs``       observability: tracing spans, per-op profiler,
                    Prometheus ``/metrics`` exposition
``repro.serve``     batched, cached, multi-worker inference engine with an
                    HTTP front-end (``python -m repro.cli serve``)
``repro.resilience`` fault tolerance: circuit breaker, numeric guard,
                    deterministic fault injection
``repro.api``       the stable facade: load / collapse / compile_model /
                    upscale / EngineConfig / make_server (start here)

Quickstart
----------
>>> from repro import api
>>> model = api.collapse(api.load("M5", scale=2))
>>> sr = api.upscale(api.compile_model(model), lr_image)

or, for training-side work:

>>> from repro.core import SESR
>>> from repro.train import ExperimentConfig, run_experiment
>>> model = SESR.from_name("M5", scale=2)
>>> # train on synthetic data, then export the collapsed inference net:
>>> inference_net = model.collapse()
"""

from . import (
    core,
    datasets,
    deploy,
    hw,
    metrics,
    nas,
    nn,
    obs,
    resilience,
    serve,
    theory,
    train,
    utils,
    zoo,
)
from . import api  # after the subsystems: the facade imports from them
from .core import SESR, CollapsibleLinearBlock, FSRCNN

__version__ = "1.0.0"

__all__ = [
    "api",
    "core",
    "datasets",
    "deploy",
    "hw",
    "metrics",
    "nas",
    "nn",
    "obs",
    "resilience",
    "serve",
    "theory",
    "train",
    "utils",
    "zoo",
    "SESR",
    "CollapsibleLinearBlock",
    "FSRCNN",
    "__version__",
]
