"""Experiment harnesses: one module per paper table/figure (DESIGN.md §4).

The report generator, :mod:`repro.experiments.report`, is not imported
here: it runs as ``python -m repro.experiments.report``, and importing it
with the package would load it twice.
"""

from . import (
    fig5_batch_reduction,
    profile_breakdown,
    fig6_allocation_example,
    fig7_allocator_comparison,
    fig8_batching_gain,
    fig9_scheduler_example,
    fig10_variable_length,
    fig11_fixed_length,
    fig12_serving_throughput,
    gen_serving_throughput,
    prefix_cache_sweep,
    table1_runtime_matrix,
    table2_reduction_share,
)
from .tables import format_table

__all__ = [
    "format_table",
    "table1_runtime_matrix",
    "table2_reduction_share",
    "fig5_batch_reduction",
    "fig6_allocation_example",
    "fig7_allocator_comparison",
    "fig8_batching_gain",
    "fig9_scheduler_example",
    "fig10_variable_length",
    "fig11_fixed_length",
    "fig12_serving_throughput",
    "gen_serving_throughput",
    "prefix_cache_sweep",
    "profile_breakdown",
]
