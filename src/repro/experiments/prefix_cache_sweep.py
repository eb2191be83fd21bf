"""Prefix caching: TTFT/goodput vs. prompt sharing ratio.

TurboTransformers' serving layer batches independent one-shot requests;
real multi-tenant generative traffic is far more redundant — requests
from the same tenant open with an identical system prompt and few-shot
template and differ only in a short user suffix.  The radix prefix index
over the copy-on-write KV arena (``memory.prefix_index``) exploits that:
at admission the continuous server looks up the longest page-aligned
cached prefix, attaches those pages by refcount, and prefills only the
uncached suffix.

This experiment sweeps the **sharing ratio** of a synthetic multi-tenant
population (``serving.workload.generate_prefix_population_requests``)
against arrival rate and reports, per point:

* TTFT (avg and p99) with the cache off vs. on — the headline win;
* response throughput (completed requests/s);
* prefix hits, KV tokens reused, and prefill FLOPs saved (priced at the
  simulated device's peak FP32 rate).

Token streams are byte-identical cache-on vs. cache-off at every point
(asserted by ``python -m repro bench --verify-gen``); the cache moves
*work*, never *tokens*.  Everything is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..serving import (
    GenRequest,
    GenServingMetrics,
    generate_prefix_population_requests,
    geometric_output_lengths,
)
from .gen_serving_throughput import GenServingBench
from .tables import format_table

#: Offered rates (req/s).  Prefix-population prompts are ~3x longer than
#: the uniform gen mix, so saturation arrives earlier than in
#: ``gen_serving_throughput``.
PREFIX_RATES: Tuple[float, ...] = (200.0, 600.0, 1200.0)

#: Fraction of requests that open with a tenant-shared prefix.
SHARING_RATIOS: Tuple[float, ...] = (0.0, 0.5, 0.9)

DEFAULT_DURATION_S = 1.0


@dataclass(frozen=True)
class PrefixPoint:
    """One (sharing ratio, rate) cell: cache-off vs. cache-on."""

    sharing_ratio: float
    rate: float
    off: GenServingMetrics
    on: GenServingMetrics

    @property
    def ttft_p99_reduction(self) -> float:
        """Fractional TTFT p99 reduction from the cache (0 = no win)."""
        if self.off.ttft.p99_ms <= 0.0:
            return 0.0
        return 1.0 - self.on.ttft.p99_ms / self.off.ttft.p99_ms


def prefix_workload(
    rate: float,
    duration_s: float,
    seed: int,
    sharing_ratio: float,
    mean_new_tokens: float = 16.0,
    max_new_tokens: int = 96,
) -> List[GenRequest]:
    """The multi-tenant population at one sharing ratio.  Arrival times,
    prompt lengths and output budgets are identical across ratios — only
    the token *content* (and thus cache hits) changes."""

    def outputs(rng: np.random.Generator, n: int) -> np.ndarray:
        return geometric_output_lengths(rng, n, mean=mean_new_tokens,
                                        hi=max_new_tokens)

    return generate_prefix_population_requests(
        rate, duration_s, seed=seed, sharing_ratio=sharing_ratio,
        output_sampler=outputs,
    )


def run_prefix_point(
    bench: GenServingBench,
    sharing_ratio: float,
    rate: float,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = 0,
) -> PrefixPoint:
    """Run one cell twice — cache off, then cache on — on fresh arenas."""
    off = prefix_workload(rate, duration_s, seed, sharing_ratio)
    m_off = bench.run_continuous(off, duration_s)
    on = prefix_workload(rate, duration_s, seed, sharing_ratio)
    m_on = bench.run_continuous(on, duration_s, prefix_cache=True)
    return PrefixPoint(sharing_ratio=sharing_ratio, rate=rate,
                       off=m_off, on=m_on)


def run_prefix_sweep(
    bench: Optional[GenServingBench] = None,
    rates: Sequence[float] = PREFIX_RATES,
    sharing_ratios: Sequence[float] = SHARING_RATIOS,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = 0,
) -> Dict[float, List[PrefixPoint]]:
    """``sweep[sharing_ratio][rate_index]``, fresh workload per cell."""
    bench = bench or GenServingBench()
    return {
        sharing: [
            run_prefix_point(bench, sharing, rate, duration_s, seed)
            for rate in rates
        ]
        for sharing in sharing_ratios
    }


def format_prefix_sweep(
    bench: Optional[GenServingBench] = None,
    rates: Sequence[float] = PREFIX_RATES,
    sharing_ratios: Sequence[float] = SHARING_RATIOS,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = 0,
) -> str:
    """TTFT off/on, goodput and reuse counters per (sharing, rate)."""
    bench = bench or GenServingBench()
    sweep = run_prefix_sweep(bench, rates, sharing_ratios, duration_s, seed)
    blocks: List[str] = []
    for sharing in sharing_ratios:
        rows = []
        for point in sweep[sharing]:
            rows.append([
                f"{point.rate:.0f}",
                f"{point.off.ttft.p99_ms:.3f}",
                f"{point.on.ttft.p99_ms:.3f}",
                f"{100.0 * point.ttft_p99_reduction:.0f}%",
                f"{point.on.response_throughput:.0f}",
                f"{point.on.prefix_hits}",
                f"{point.on.prefix_tokens_reused}",
                f"{point.on.prefill_flops_saved / 1e9:.2f}",
            ])
        header = ["req/s", "ttft p99 off ms", "ttft p99 on ms",
                  "p99 cut", "resp/s", "hits", "tok reused", "GFLOPs saved"]
        blocks.append(
            f"sharing ratio {sharing:g}:\n" + format_table(header, rows)
        )
    return "\n\n".join(blocks)


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    print(format_prefix_sweep())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
