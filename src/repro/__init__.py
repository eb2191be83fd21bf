"""repro — reproduction of *TurboTransformers: An Efficient GPU Serving
System For Transformer Models* (Fang et al., PPoPP 2021).

Subpackages
-----------
``repro.gpusim``
    Simulated-GPU substrate: device specs, warp/instruction model,
    roofline kernel costs (stands in for the paper's V100/RTX 2060/M40).
``repro.kernels``
    NumPy numeric kernels (reference and fused variants).
``repro.graph``
    Computation graph, kernel-fusion pass, tensor lifetime analysis.
``repro.memory``
    The sequence-length-aware allocator (Alg. 1+2) and its baselines.
``repro.models``
    BERT / ALBERT / Seq2Seq-decoder graphs and numeric forwards.
``repro.runtime``
    The Turbo runtime and the five baseline runtimes of Table 1.
``repro.serving``
    Message queue, response cache, DP batch scheduler (Alg. 3),
    trigger policies and the discrete-event serving simulator.
``repro.observability``
    Metrics registry (counters/gauges/histograms) and the request/kernel
    tracer with Chrome ``trace_event`` export (``python -m repro trace``).
``repro.text``
    WordPiece tokenizer + classification head (the §6.2 application).
``repro.experiments``
    One module per paper table/figure (see DESIGN.md §4).
"""

__version__ = "1.0.0"

from ._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {}, modules=(
    "gpusim",
    "kernels",
    "graph",
    "memory",
    "models",
    "observability",
    "runtime",
    "serving",
    "text",
))
__all__.append("__version__")
