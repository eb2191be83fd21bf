"""NumPy numeric kernels: reference (un-fused) and fused variants.

These carry the *numerics* of the reproduction; timing of the corresponding
CUDA kernels lives in :mod:`repro.gpusim`.  Fused variants use in-place
passes and combined sweeps exactly where the paper's fused CUDA kernels do.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "add_bias": "activation",
    "add_bias_gelu": "activation",
    "add_bias_relu": "activation",
    "gelu": "activation",
    "relu": "activation",
    "AttentionWeights": "attention",
    "multi_head_attention": "attention",
    "padding_mask_from_lengths": "attention",
    "scaled_dot_product_attention": "attention",
    "bert_embeddings": "embedding",
    "embedding_lookup": "embedding",
    "gemm": "gemm",
    "linear": "gemm",
    "add_bias_layernorm": "layernorm",
    "layernorm_one_pass": "layernorm",
    "layernorm_reference": "layernorm",
    "INT8_MAX": "quantize",
    "QuantizedLinear": "quantize",
    "dequantize": "quantize",
    "quantization_error": "quantize",
    "quantize_symmetric": "quantize",
    "softmax_fused": "softmax",
    "softmax_reference": "softmax",
    "add_bias_transpose_for_heads": "transpose",
    "merge_heads": "transpose",
    "split_heads": "transpose",
})
