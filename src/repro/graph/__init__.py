"""Computation-graph representation, fusion pass and lifetime analysis."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "count_kernels": "fusion",
    "eliminated_tensor_names": "fusion",
    "fuse_graph": "fusion",
    "ComputationGraph": "graph",
    "GraphError": "graph",
    "UsageRecordTemplates": "lifetime",
    "tensor_usage_records": "lifetime",
    "OpNode": "node",
    "OpType": "node",
    "graph_from_dict": "serialize",
    "graph_to_dict": "serialize",
    "load_graph": "serialize",
    "save_graph": "serialize",
    "Dim": "tensor",
    "DimBindings": "tensor",
    "TensorKind": "tensor",
    "TensorSpec": "tensor",
    "resolve_dim": "tensor",
    "cast_graph_precision": "transform",
    "graph_weight_bytes": "transform",
})
