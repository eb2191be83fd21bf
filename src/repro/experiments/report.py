"""One-shot evaluation report: regenerate every table and figure.

Run ``python -m repro.experiments.report [output.md]`` to produce a single
markdown report with all reproduced tables/series — the paper's whole
evaluation section from one command.  The heavy serving experiments are
included unless ``--quick`` is passed.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import List, Optional

from ..gpusim import RTX_2060, TESLA_V100
from .fig5_batch_reduction import format_fig5
from .fig6_allocation_example import format_fig6
from .fig7_allocator_comparison import format_fig7
from .fig8_batching_gain import format_fig8
from .fig9_scheduler_example import format_fig9, simulated_cost_table
from .fig10_variable_length import format_fig10
from .fig11_fixed_length import format_fig11
from .table1_runtime_matrix import format_table1
from .table2_reduction_share import format_table2

DEFAULT_OUTPUT = "REPORT.md"


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n"


def generate_report(include_serving: bool = True) -> str:
    """Build the full evaluation report as a markdown string."""
    sections: List[str] = [
        "# TurboTransformers reproduction — evaluation report",
        "",
        "Auto-generated by `python -m repro.experiments.report`. "
        "Qualitative targets and paper-vs-measured discussion: EXPERIMENTS.md.",
        "",
        _section("Table 1 — runtime feature matrix", format_table1()),
        _section("Table 2 — batch-reduction share of attention (V100)",
                 format_table2()),
        _section("Fig. 5 — batch-reduction kernel speedups (V100)",
                 format_fig5()),
        _section("Fig. 6 — allocation example (length 200 -> 240)",
                 format_fig6()),
        _section("Fig. 7 — allocator comparison (50 requests)", format_fig7()),
        _section("Fig. 8 — batching gain (RTX 2060)", format_fig8()),
        _section("Fig. 9 — DP scheduler example",
                 format_fig9() + "\n\n"
                 + format_fig9(cost_fn=simulated_cost_table().cost,
                               title="simulated RTX 2060 cost table")),
        _section("Fig. 10 — variable-length latency (RTX 2060)",
                 format_fig10()),
        _section("Fig. 11 — fixed-length comparison (RTX 2060)",
                 format_fig11(RTX_2060)),
        _section("Fig. 11 — fixed-length comparison (Tesla V100)",
                 format_fig11(TESLA_V100)),
    ]
    if include_serving:
        from .fig12_serving_throughput import (
            ServingBench,
            format_fig12,
            format_table4,
        )

        bench = ServingBench()
        sections.append(
            _section("Fig. 12 — serving response throughput (RTX 2060)",
                     format_fig12(bench))
        )
        sections.append(
            _section("Table 4 — serving latency at measured saturation rates",
                     format_table4(bench))
        )
        sections.append(_gen_serving_section())
    return "\n".join(sections)


def _gen_serving_section() -> str:
    """Generation serving from the ``bench --profile gen`` counters — the
    same point summaries ``BENCH_gen.json`` commits."""
    from ..bench import PROFILES, run_bench
    from .gen_serving_throughput import format_gen_bench

    profile = PROFILES["gen"]
    return _section(
        f"Generation serving — request-level vs continuous, chunked and "
        f"prefix-cached ({profile['gen_model']} GPT, RTX 2060, "
        f"{profile['gen_duration_s']:g} s per point, "
        f"bench --profile gen --seed 0)",
        format_gen_bench(run_bench("gen", seed=0)["counters"]["gen"]))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.report",
        description="Regenerate every reproduced table and figure as one "
                    "markdown report.")
    parser.add_argument("output", nargs="?", default=DEFAULT_OUTPUT,
                        help=f"report path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--quick", action="store_true",
                        help="skip the slow serving experiments")
    args = parser.parse_args(argv)
    output = Path(args.output)
    started = time.time()  # repro: allow(DET402) -- progress print only
    report = generate_report(include_serving=not args.quick)
    output.write_text(report)
    print(f"wrote {output} ({len(report.splitlines())} lines, "
          f"{time.time() - started:.1f}s)")  # repro: allow(DET402)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI test
    raise SystemExit(main())
