"""Generative serving: request-level vs. iteration-level batching.

The paper's serving evaluation (Fig. 12) batches one-shot BERT requests;
this experiment asks the follow-on question for GPT-style generation:
what does the DP batching scheduler give up by working at *request*
granularity once requests hold their batch slot for a variable number of
decode steps?

Three systems serve identical Poisson workloads (prompt lengths x
geometric output budgets) on the simulated RTX 2060:

* ``Turbo-DP-Request``   — request-level control: the queue is
  partitioned by the (pruned) DP scheduler, each batch runs prefill +
  decode at full width until its **longest** member finishes.
* ``Ebird-Gen``          — elastic concurrent batches (processor
  sharing); generation is priced as one opaque
  ``generate_latency(L, E[new], b)`` unit of work, so it relieves
  head-of-line blocking but cannot exit finished slots early.
* ``Turbo-Continuous``   — iteration-level: the decode batch re-forms at
  every step, finished requests exit immediately, admission is gated by
  the simulated KV-cache arena.
* ``Turbo-Chunked``      — the continuous loop with chunked prefill and
  dual-stream overlap: prefill chunks run on a second simulated stream
  concurrently with decode steps, so a round costs its critical-path
  makespan instead of the serial sum.  Token streams are bit-identical
  to ``Turbo-Continuous``; only the timing (and thus the TTFT tail at
  high rates) changes.

The sweep crosses arrival rates with output-length mixes; the claim under
test is that continuous batching beats request-level DP on *both*
response throughput and mean TTFT at high arrival rates, and that the gap
widens with output-length variance (stragglers pin request-level
batches).  Everything is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..gpusim import DeviceSpec
from ..gpusim.device import RTX_2060
from ..memory import KVCacheArena, kv_bytes_per_token
from ..models.gpt import (
    build_decode_step_graph,
    build_prefill_graph,
    gpt_small,
    tiny_gpt,
)
from ..runtime import TURBO_CHARACTERISTICS, GenerationRuntime
from ..serving import (
    ContinuousBatchingConfig,
    ContinuousBatchingServer,
    GenRequest,
    GenServingMetrics,
    RequestLevelGenerationServer,
    ServingMetrics,
    generate_generation_requests,
    geometric_output_lengths,
    simulate_ebird_serving,
    uniform_lengths,
)
from .tables import format_table

#: Offered request rates for the sweep (req/s).  The top rates push
#: request-level batching past saturation while continuous batching still
#: keeps up — the regime the experiment exists to show.
GEN_RATES: Tuple[float, ...] = (200.0, 800.0, 1500.0, 3000.0)

DEFAULT_DURATION_S = 1.0

SYSTEMS = ("request-level", "ebird", "continuous",
           "continuous-chunked")


@dataclass(frozen=True)
class OutputMix:
    """An output-length distribution (geometric, clipped)."""

    name: str
    mean_new_tokens: float
    max_new_tokens: int


#: Short, chatty replies vs. a heavy-tailed mix with long stragglers —
#: the shape that punishes run-to-the-longest request-level batches.
OUTPUT_MIXES: Tuple[OutputMix, ...] = (
    OutputMix("short", mean_new_tokens=6.0, max_new_tokens=24),
    OutputMix("long-tail", mean_new_tokens=16.0, max_new_tokens=96),
)


class GenServingBench:
    """Builds the generation runtime once, runs many (system, rate) points."""

    def __init__(
        self,
        model: str = "tiny",
        device: DeviceSpec = RTX_2060,
        prompt_lo: int = 4,
        prompt_hi: int = 32,
        capacity_tokens: int = 4096,
        page_tokens: int = 16,
        max_batch: int = 8,
        warmup_fraction: float = 0.1,
        chunk_tokens: int = 512,
    ) -> None:
        if model not in ("tiny", "small"):
            raise ValueError(f"model must be 'tiny' or 'small', got {model!r}")
        config = tiny_gpt() if model == "tiny" else gpt_small()
        self.config = config
        self.runtime = GenerationRuntime(
            build_prefill_graph(config),
            build_decode_step_graph(config),
            TURBO_CHARACTERISTICS,
            device,
            stride=1,  # serving decodes one step at a time
        )
        self.bytes_per_token = kv_bytes_per_token(
            config.num_layers, config.num_heads, config.head_size
        )
        self.capacity_tokens = capacity_tokens
        self.page_tokens = page_tokens
        self.prompt_lo = prompt_lo
        self.prompt_hi = prompt_hi
        self.max_batch = max_batch
        self.warmup_fraction = warmup_fraction
        #: Chunk bound used by the ``continuous-chunked`` system.
        self.chunk_tokens = chunk_tokens

    # -- workload -------------------------------------------------------------

    def workload(self, rate: float, duration_s: float, seed: int,
                 mix: OutputMix) -> List[GenRequest]:
        def prompts(rng: np.random.Generator, n: int) -> np.ndarray:
            return uniform_lengths(rng, n, lo=self.prompt_lo,
                                   hi=self.prompt_hi)

        def outputs(rng: np.random.Generator, n: int) -> np.ndarray:
            return geometric_output_lengths(rng, n, mean=mix.mean_new_tokens,
                                            hi=mix.max_new_tokens)

        return generate_generation_requests(
            rate, duration_s, seed=seed,
            prompt_sampler=prompts, output_sampler=outputs,
        )

    def make_arena(self, metrics=None) -> KVCacheArena:
        return KVCacheArena(
            capacity_bytes=self.capacity_tokens * self.bytes_per_token,
            bytes_per_token=self.bytes_per_token,
            page_tokens=self.page_tokens,
            metrics=metrics,
        )

    # -- systems --------------------------------------------------------------

    def make_continuous_server(self, tracer=None, metrics=None,
                               chunk_tokens: "Optional[int]" = None,
                               prefix_cache: bool = False,
                               ) -> ContinuousBatchingServer:
        return ContinuousBatchingServer(
            self.runtime, self.make_arena(metrics=metrics),
            ContinuousBatchingConfig(warmup_fraction=self.warmup_fraction,
                                     chunk_tokens=chunk_tokens,
                                     prefix_cache=prefix_cache),
            tracer=tracer, metrics=metrics,
        )

    def run_continuous(self, requests: Sequence[GenRequest],
                       duration_s: float, tracer=None, metrics=None,
                       chunk_tokens: "Optional[int]" = None,
                       prefix_cache: bool = False,
                       ) -> GenServingMetrics:
        server = self.make_continuous_server(
            tracer=tracer, metrics=metrics, chunk_tokens=chunk_tokens,
            prefix_cache=prefix_cache,
        )
        return server.serve(requests, duration_s=duration_s)

    def run_request_level(self, requests: Sequence[GenRequest],
                          duration_s: float, mix: OutputMix, tracer=None,
                          metrics=None) -> GenServingMetrics:
        server = RequestLevelGenerationServer(
            self.runtime, self.make_arena(metrics=metrics),
            max_batch=self.max_batch,
            est_new_tokens=max(1, round(mix.mean_new_tokens)),
            warmup_fraction=self.warmup_fraction,
            tracer=tracer, metrics=metrics,
        )
        return server.serve(requests, duration_s=duration_s)

    def run_ebird(self, requests: Sequence[GenRequest], duration_s: float,
                  mix: OutputMix) -> ServingMetrics:
        # Ebird's concurrency model has no per-step view, so a generation
        # is priced as one opaque unit of mean-output-length work; it
        # reports response metrics but no TTFT.
        est = max(1, round(mix.mean_new_tokens))

        def cost_fn(seq_len: int, batch: int) -> float:
            return self.runtime.generate_latency(seq_len, est, batch)

        return simulate_ebird_serving(
            requests, cost_fn, max_batch=self.max_batch,
            duration_s=duration_s, system_name="Ebird-Gen",
        )

    def run_point(self, system: str, rate: float,
                  duration_s: float = DEFAULT_DURATION_S, seed: int = 0,
                  mix: OutputMix = OUTPUT_MIXES[0]):
        requests = self.workload(rate, duration_s, seed, mix)
        if system == "continuous":
            return self.run_continuous(requests, duration_s)
        if system == "continuous-chunked":
            return self.run_continuous(requests, duration_s,
                                       chunk_tokens=self.chunk_tokens)
        if system == "request-level":
            return self.run_request_level(requests, duration_s, mix)
        if system == "ebird":
            return self.run_ebird(requests, duration_s, mix)
        raise ValueError(f"system must be one of {SYSTEMS}, got {system!r}")

    def run_sweep(
        self,
        rates: Sequence[float] = GEN_RATES,
        mixes: Sequence[OutputMix] = OUTPUT_MIXES,
        duration_s: float = DEFAULT_DURATION_S,
        seed: int = 0,
    ) -> Dict[str, Dict[str, List[Union[ServingMetrics, GenServingMetrics]]]]:
        """``sweep[mix.name][system][rate_index]``, fresh workload per cell."""
        return {
            mix.name: {
                system: [
                    self.run_point(system, rate, duration_s, seed, mix)
                    for rate in rates
                ]
                for system in SYSTEMS
            }
            for mix in mixes
        }


def run_gen_serving(
    bench: Optional[GenServingBench] = None,
    rates: Sequence[float] = GEN_RATES,
    mixes: Sequence[OutputMix] = OUTPUT_MIXES,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = 0,
) -> Dict[str, Dict[str, List[Union[ServingMetrics, GenServingMetrics]]]]:
    bench = bench or GenServingBench()
    return bench.run_sweep(rates, mixes, duration_s, seed)


def _ttft_cell(m) -> str:
    if not isinstance(m, GenServingMetrics) or m.ttft.count == 0:
        return "—"
    return f"{m.ttft.avg_ms:.2f}"


def format_gen_serving(
    bench: Optional[GenServingBench] = None,
    rates: Sequence[float] = GEN_RATES,
    mixes: Sequence[OutputMix] = OUTPUT_MIXES,
    duration_s: float = DEFAULT_DURATION_S,
    seed: int = 0,
) -> str:
    """Response throughput and mean TTFT per (mix, rate, system)."""
    bench = bench or GenServingBench()
    sweep = bench.run_sweep(rates, mixes, duration_s, seed)
    blocks: List[str] = []
    for mix in mixes:
        rows = []
        for i, rate in enumerate(rates):
            cells: List[object] = [f"{rate:.0f}"]
            for system in SYSTEMS:
                m = sweep[mix.name][system][i]
                cells.append(f"{m.response_throughput:.0f}")
                cells.append(_ttft_cell(m))
            rows.append(cells)
        header = ["req/s"]
        for system in SYSTEMS:
            header += [f"{system} resp/s", f"{system} ttft ms"]
        blocks.append(
            f"output mix {mix.name!r} "
            f"(mean {mix.mean_new_tokens:g}, max {mix.max_new_tokens}):\n"
            + format_table(header, rows)
        )
    return "\n\n".join(blocks)


#: ``bench --profile gen`` sweeps in report order: counter key, label.
BENCH_GEN_SYSTEMS: Tuple[Tuple[str, str], ...] = (
    ("request_level", "request-level DP"),
    ("continuous", "continuous"),
    ("continuous_chunked", "continuous + chunked"),
)


def format_gen_bench(counters: Dict[str, object]) -> str:
    """The generation-serving comparison from ``bench --profile gen``
    counters (``BENCH_gen.json`` ``counters.gen``): request-level DP vs
    continuous vs chunked serving per rate, then the prefix cache at the
    top rate per sharing ratio.  Rendered only from those point
    summaries, so the report and the committed bench reconcile."""
    header = ["req/s", "system", "done", "resp/s", "ttft avg ms",
              "ttft p99 ms", "tpot avg ms", "tokens", "decode steps"]
    rows = []
    for rate in counters["rates"]:
        for key, label in BENCH_GEN_SYSTEMS:
            p = counters[key][str(rate)]
            rows.append([
                f"{rate:.0f}", label, f"{p['completed']}/{p['offered']}",
                f"{p['response_throughput']:.1f}", f"{p['ttft_avg_ms']:.3f}",
                f"{p['ttft_p99_ms']:.3f}", f"{p['tpot_ms_avg']:.3f}",
                p["tokens"], p["decode_steps"],
            ])
    top = max(counters["rates"])
    prefix_rows = []
    for sharing, p in counters["continuous_prefix"].items():
        prefix_rows.append([
            sharing, f"{p['ttft_p99_ms_cache_off']:.3f}",
            f"{p['ttft_p99_ms']:.3f}", f"{p['ttft_avg_ms']:.3f}",
            f"{p['tpot_ms_avg']:.3f}", p["prefix_hits"],
            p["prefix_tokens_reused"], p["decode_steps"],
        ])
    return "\n".join([
        format_table(header, rows),
        "",
        f"continuous / request-level throughput at {top:.0f} req/s: "
        f"{counters['throughput_gain_at_top_rate']:.3f}x; "
        f"TTFT p99 continuous / chunked: "
        f"{counters['ttft_p99_gain_at_top_rate']:.4f}x",
        "",
        f"prefix cache at {top:.0f} req/s (continuous, multi-tenant "
        f"prompts; off vs on, same token streams):",
        format_table(["sharing", "ttft p99 off ms", "ttft p99 on ms",
                      "ttft avg on ms", "tpot avg on ms", "hits",
                      "tokens reused", "decode steps"], prefix_rows),
    ])
