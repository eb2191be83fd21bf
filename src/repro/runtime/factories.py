"""The six runtime factories of Table 1, keyed by short name."""

from .fastertransformer_like import fastertransformer_runtime
from .onnxruntime_like import onnxruntime_runtime
from .pytorch_like import pytorch_runtime
from .tensorrt_like import tensorrt_runtime
from .turbo import turbo_runtime
from .xla_like import xla_runtime

#: All runtime factories keyed by short name (used by experiment sweeps).
RUNTIME_FACTORIES = {
    "turbo": turbo_runtime,
    "pytorch": pytorch_runtime,
    "onnxruntime": onnxruntime_runtime,
    "xla": xla_runtime,
    "fastertransformer": fastertransformer_runtime,
    "tensorrt": tensorrt_runtime,
}
