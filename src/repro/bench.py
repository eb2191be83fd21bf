"""``python -m repro bench``: wall-clock benchmarks of the host fast path.

The paper's thesis is that host-side work (cost lookup, allocation
planning, batch scheduling) must stay negligible next to kernel time.
This harness times the *simulator's own* host path — the compiled cost
models, the lifetime-indexed placement pass, and the row-memoising DP
scheduler — against the interpretive/reference baselines they replaced,
and writes the result to ``BENCH_host.json`` so the repo carries a perf
trajectory.

Each section runs the identical deterministic workload through a *fast*
and a *baseline* configuration and records

* ``counters`` — workload sizes, hit/miss totals, digests of the
  produced tables/schedules.  Every counter is a pure function of the
  (profile, seed) inputs: two runs of the same bench produce identical
  counter trees, which CI asserts with ``repro bench --diff``.  The
  counters also embed the equivalence checks — the fast path must
  reproduce the baseline's outputs bit for bit before its time is
  accepted.
* ``wallclock`` — elapsed seconds and derived throughputs/speedups.
  These naturally vary run to run and are excluded from the diff.

Baselines are the *seed implementations*: the interpretive per-node cost
walk (``use_compiled=False``), the original object-walking Algorithm 2
gap search (``TurboAllocator(gap_search="reference")``), and the
unmemoized O(n·B) DP scheduler.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

#: Grid/workload sizes per profile.  ``smoke`` finishes in a few seconds
#: (CI); ``full`` is the acceptance configuration behind the committed
#: ``BENCH_host.json``.
PROFILES: Dict[str, Dict[str, object]] = {
    "smoke": {
        "grid_max_batch": 8,
        "grid_length_step": 64,
        "grid_max_length": 512,
        "plan_shapes": 12,
        "plan_passes": 3,
        "sched_rounds": 60,
        "sched_queue": 40,
        "sched_max_batch": 12,
        "fig12_rates": (100.0, 300.0),
        "fig12_duration_s": 2.0,
        "fig12_max_len": 128,
        "fig12_max_batch": 8,
        "fig12_model": "tiny",
    },
    "full": {
        "grid_max_batch": 20,
        "grid_length_step": 16,
        "grid_max_length": 512,
        "plan_shapes": 48,
        "plan_passes": 3,
        "sched_rounds": 200,
        "sched_queue": 120,
        "sched_max_batch": 20,
        "fig12_rates": (20.0, 60.0, 150.0, 400.0),
        "fig12_duration_s": 5.0,
        "fig12_max_len": 256,
        "fig12_max_batch": 16,
        "fig12_model": "base",
    },
    # Generative serving: request-level DP vs iteration-level continuous
    # batching over the same workload (writes BENCH_gen.json).
    "gen": {
        "gen_rates": (300.0, 1200.0),
        "gen_duration_s": 1.0,
        "gen_model": "tiny",
        "gen_mix_mean": 16.0,
        "gen_mix_max": 96,
        "gen_capacity_tokens": 4096,
        "gen_max_batch": 8,
        "gen_chunk_tokens": 512,
    },
}

BENCH_SCHEMA = "repro.bench.host/v1"
BENCH_GEN_SCHEMA = "repro.bench.gen/v1"

#: Fields of the payload compared by ``--diff`` (everything except the
#: run-to-run wall-clock measurements and what derives from them).
DETERMINISTIC_KEYS = ("schema", "profile", "seed", "config", "counters")


def _now() -> float:
    return time.perf_counter()  # repro: allow(DET402) bench measures wall time


def _digest(obj: object) -> str:
    """Stable digest of a JSON-serializable object (repr of floats is
    exact, so bit-identical inputs give identical digests)."""
    payload = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# -- runtime configurations ---------------------------------------------------


def _baseline_mode(runtime) -> None:
    """Put a runtime into the seed (pre-fast-path) configuration."""
    runtime.use_compiled = False
    allocator = getattr(runtime, "allocator", None)
    if allocator is not None and hasattr(allocator, "gap_search"):
        allocator.gap_search = "reference"


def _table_cells(table) -> Dict[str, float]:
    return {
        f"{length}x{batch}": table.cost(length, batch)
        for length in table.lengths
        for batch in range(1, table.max_batch + 1)
    }


# -- sections -----------------------------------------------------------------


def _bench_grid(profile: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """CostTable full-grid profile: the warm-up sweep of Algorithm 3."""
    from .runtime import turbo_runtime, warmup_profile

    kwargs = dict(
        max_batch=profile["grid_max_batch"],
        max_length=profile["grid_max_length"],
        length_step=profile["grid_length_step"],
    )

    baseline_rt = turbo_runtime()
    _baseline_mode(baseline_rt)
    t0 = _now()
    baseline_table = warmup_profile(baseline_rt, **kwargs)
    baseline_s = _now() - t0

    fast_rt = turbo_runtime()
    t0 = _now()
    fast_table = warmup_profile(fast_rt, **kwargs)
    fast_s = _now() - t0

    baseline_cells = _table_cells(baseline_table)
    fast_cells = _table_cells(fast_table)
    cells = len(fast_cells)
    return {
        "counters": {
            "cells": cells,
            "identical_tables": baseline_cells == fast_cells,
            "table_digest": _digest(fast_cells),
            "host_path": fast_rt.host_path_stats(),
        },
        "wallclock": {
            "baseline_s": baseline_s,
            "fast_s": fast_s,
            "baseline_latency_calls_per_s": cells / baseline_s,
            "fast_latency_calls_per_s": cells / fast_s,
            "speedup": baseline_s / fast_s,
        },
    }


def _plan_workload(profile: Dict[str, object], seed: int):
    """Deterministic per-shape usage-record lists for the allocator bench."""
    import random

    from .graph.lifetime import tensor_usage_records
    from .models import bert_base, build_encoder_graph

    graph = build_encoder_graph(bert_base())
    rng = random.Random(seed)
    shapes = [
        (rng.randrange(1, 13), rng.randrange(1, 33) * 16)
        for _ in range(profile["plan_shapes"])
    ]
    return [
        tensor_usage_records(graph, {"batch": b, "seq": s}) for b, s in shapes
    ]


def _run_plans(allocator, workload, passes: int,
               layouts: Optional[list] = None) -> Dict[str, object]:
    """Serve ``workload`` ``passes`` times; counters of the outcomes.

    With ``layouts``, also append each plan's per-tensor ``(chunk_id,
    offset)`` map and the allocator's ``(chunk_id, size)`` chunk list.
    """
    outcomes = []
    for _ in range(passes):
        for records in workload:
            allocation = allocator.process_request(records)
            outcomes.append(
                (allocation.new_bytes, allocation.footprint_bytes,
                 allocation.peak_bytes, allocation.stall_s)
            )
            if layouts is not None:
                layouts.append((
                    {name: (p.chunk_id, p.offset)
                     for name, p in allocation.plan.placements.items()},
                    [(c.chunk_id, c.size) for c in allocator.chunks],
                ))
    return {
        "outcome_digest": _digest([list(o) for o in outcomes]),
        "plan_hits": allocator.plan_hits,
        "plan_misses": allocator.plan_misses,
        "chunks_released": allocator.chunks_released,
    }


def _bench_plans(profile: Dict[str, object], seed: int) -> Dict[str, Dict[str, object]]:
    """Allocation planning throughput: the lifetime-indexed placement
    pass vs. the object-walking reference planner, identical outcomes."""
    from .gpusim.memory import DeviceMemory
    from .memory import TurboAllocator

    workload = _plan_workload(profile, seed)
    passes = profile["plan_passes"]
    plans = len(workload) * passes

    baseline_alloc = TurboAllocator(DeviceMemory(), gap_search="reference")
    t0 = _now()
    baseline = _run_plans(baseline_alloc, workload, passes)
    baseline_s = _now() - t0

    fast_alloc = TurboAllocator(DeviceMemory())
    t0 = _now()
    fast = _run_plans(fast_alloc, workload, passes)
    fast_s = _now() - t0

    return {
        "counters": {
            "plans": plans,
            "records_per_plan": len(workload[0]),
            "identical_outcomes": baseline == fast,
            "baseline": baseline,
            "fast": fast,
        },
        "wallclock": {
            "baseline_s": baseline_s,
            "fast_s": fast_s,
            "baseline_plans_per_s": plans / baseline_s,
            "fast_plans_per_s": plans / fast_s,
            "speedup": baseline_s / fast_s,
        },
    }


def _sched_workload(profile: Dict[str, object], seed: int):
    """A synthetic round stream: each round's queue keeps most of the
    previous one and grows, so consecutive rounds share requests.  A
    hungry server drains its whole queue every round, so this is not
    the stream it sees; it times the DP over longer queues."""
    import random

    from .serving.request import Request

    rng = random.Random(seed)
    rounds = []
    queue: List[Request] = []
    req_id = 0
    for _ in range(profile["sched_rounds"]):
        # The queue grows, then periodically loses its older half.
        if queue and rng.random() < 0.3:
            queue = queue[len(queue) // 2:]
        for _ in range(rng.randrange(1, profile["sched_queue"] // 4 + 2)):
            queue.append(Request(req_id=req_id,
                                 seq_len=rng.randrange(1, 33) * 16,
                                 arrival_s=0.0))
            req_id += 1
        rounds.append(list(queue[: profile["sched_queue"]]))
    return rounds


def _run_scheduler(scheduler, rounds, cost_fn, max_batch: int) -> Dict[str, object]:
    partitions = []
    for queue in rounds:
        batches = scheduler.schedule(queue, cost_fn, max_batch)
        partitions.append(
            [tuple(r.req_id for r in b.requests) for b in batches]
        )
    return {
        "partition_digest": _digest([[list(p) for p in ps] for ps in partitions]),
        "batches": sum(len(p) for p in partitions),
    }


def _bench_scheduler(profile: Dict[str, object], seed: int) -> Dict[str, Dict[str, object]]:
    """Scheduling rounds/sec: DP with memoised cost rows vs. Alg. 3."""
    from .serving.scheduler import DPBatchScheduler, PrunedDPBatchScheduler

    rounds = _sched_workload(profile, seed)
    max_batch = profile["sched_max_batch"]

    def cost_fn(length: int, batch: int) -> float:
        # Closed-form monotone stand-in for a profiled table.
        return (1.0 + 0.002 * length) * (0.3 + 0.1 * batch) * 1e-3

    baseline_sched = DPBatchScheduler()
    t0 = _now()
    baseline = _run_scheduler(baseline_sched, rounds, cost_fn, max_batch)
    baseline_s = _now() - t0

    fast_sched = PrunedDPBatchScheduler()
    t0 = _now()
    fast = _run_scheduler(fast_sched, rounds, cost_fn, max_batch)
    fast_s = _now() - t0

    return {
        "counters": {
            "rounds": len(rounds),
            "requests": sum(len(q) for q in rounds),
            "identical_partitions": baseline == fast,
            "partition_digest": fast["partition_digest"],
            "batches": fast["batches"],
            "fast_path": fast_sched.stats(),
        },
        "wallclock": {
            "baseline_s": baseline_s,
            "fast_s": fast_s,
            "baseline_rounds_per_s": len(rounds) / baseline_s,
            "fast_rounds_per_s": len(rounds) / fast_s,
            "speedup": baseline_s / fast_s,
        },
    }


def _fig12_sweep(profile: Dict[str, object], seed: int, fast: bool) -> Tuple[Dict[str, object], float]:
    """One end-to-end fig12-style run: warm the turbo cost table, then
    serve a Poisson workload at each offered rate with DP batching."""
    from .models import bert_base, build_encoder_graph, tiny_bert
    from .runtime import turbo_runtime, warmup_profile
    from .serving import (
        MIN_LEN,
        ServingConfig,
        generate_requests,
        normal_lengths,
        simulate_serving,
    )
    from .serving.scheduler import DPBatchScheduler, PrunedDPBatchScheduler

    config = tiny_bert() if profile["fig12_model"] == "tiny" else bert_base()
    max_len = profile["fig12_max_len"]
    max_batch = profile["fig12_max_batch"]

    t0 = _now()
    runtime = turbo_runtime(graph=build_encoder_graph(config))
    if not fast:
        _baseline_mode(runtime)
    table = warmup_profile(runtime, max_batch=max_batch, max_length=max_len,
                           length_step=16)
    scheduler = (PrunedDPBatchScheduler() if fast else DPBatchScheduler())

    def lengths(rng, n):
        return normal_lengths(rng, n, lo=MIN_LEN, hi=max_len)

    points = {}
    for rate in profile["fig12_rates"]:
        requests = generate_requests(rate, profile["fig12_duration_s"],
                                     seed=seed, length_sampler=lengths)
        metrics = simulate_serving(
            requests, scheduler, table.cost,
            config=ServingConfig(max_batch=max_batch),
            duration_s=profile["fig12_duration_s"],
            system_name="Turbo-DP-Batch",
        )
        points[str(rate)] = {
            "offered": metrics.offered,
            "completed": metrics.completed,
            "batches": metrics.batches_executed,
            "saturated": metrics.saturated,
        }
    elapsed = _now() - t0
    return {"points": points, "table_digest": _digest(_table_cells(table))}, elapsed


def _bench_fig12(profile: Dict[str, object], seed: int) -> Dict[str, Dict[str, object]]:
    baseline, baseline_s = _fig12_sweep(profile, seed, fast=False)
    fast, fast_s = _fig12_sweep(profile, seed, fast=True)
    return {
        "counters": {
            "rates": list(map(float, profile["fig12_rates"])),
            "identical_serving": baseline == fast,
            "points": fast["points"],
            "table_digest": fast["table_digest"],
        },
        "wallclock": {
            "baseline_s": baseline_s,
            "fast_s": fast_s,
            "speedup": baseline_s / fast_s,
        },
    }


def _gen_point_summary(m) -> Dict[str, object]:
    """Deterministic scalar view of one generative serving run's
    :class:`~repro.serving.GenServingMetrics`."""
    return {
        "offered": m.offered,
        "completed": m.completed,
        "response_throughput": m.response_throughput,
        "ttft_avg_ms": m.ttft.avg_ms,
        "ttft_p99_ms": m.ttft.p99_ms,
        "tpot_ms_avg": m.tpot_ms_avg,
        "tokens": m.tokens_generated,
        "decode_steps": m.decode_steps,
        "kv_denials": m.kv_denials,
        "prefill_chunks": m.prefill_chunks,
        "overlap_saved_s": m.overlap_saved_s,
        "stall_s": m.stall_s,
        "prefix_hits": m.prefix_hits,
        "prefix_tokens_reused": m.prefix_tokens_reused,
        "prefill_flops_saved": m.prefill_flops_saved,
        "saturated": m.saturated,
    }


def _gen_token_stream(requests) -> List[tuple]:
    """Per-request outcome triples — the byte-identity unit of the
    generation equivalence gate (timing may differ, tokens may not)."""
    return [(r.req_id, r.state.name, r.generated)
            for r in sorted(requests, key=lambda r: r.req_id)]


#: Sharing ratios for the prefix-cache sweep and its equivalence pairs.
PREFIX_SHARING_RATIOS: Tuple[float, ...] = (0.0, 0.5, 0.9)


def _prefix_workload(rate: float, duration_s: float, seed: int, mix,
                     sharing_ratio: float):
    """Multi-tenant prefix-population workload with the profile's output
    mix; lengths are identical across sharing ratios by construction."""
    from .serving import (
        generate_prefix_population_requests,
        geometric_output_lengths,
    )

    return generate_prefix_population_requests(
        rate, duration_s, seed=seed, sharing_ratio=sharing_ratio,
        output_sampler=lambda rng, n: geometric_output_lengths(
            rng, n, mean=mix.mean_new_tokens, hi=mix.max_new_tokens),
    )


def gen_run_divergences(tag: str, a, b, same_order: bool = False,
                        ttft_gate: bool = True) -> List[str]:
    """Config A vs config B over the same workload: what differs.

    ``a`` and ``b`` are ``(requests, metrics, admission_order)`` triples
    of two generation runs.  Per-request token streams and completion
    sets must be identical (a config may move timing, never tokens);
    with ``same_order`` the admission orders must match too; with
    ``ttft_gate`` B's TTFT p99 may not regress past A's.
    """
    (reqs_a, m_a, order_a), (reqs_b, m_b, order_b) = a, b
    problems: List[str] = []
    if _gen_token_stream(reqs_a) != _gen_token_stream(reqs_b):
        problems.append(f"{tag}: per-request token streams differ")
    done_a = sorted(r.req_id for r in reqs_a if r.is_completed)
    done_b = sorted(r.req_id for r in reqs_b if r.is_completed)
    if done_a != done_b:
        problems.append(f"{tag}: completion sets differ")
    if same_order and order_a != order_b:
        problems.append(f"{tag}: admission orders differ")
    # Tiny relative slack: chunk costs telescope to the unchunked pass
    # only up to float association.
    if ttft_gate and m_b.ttft.p99_ms > m_a.ttft.p99_ms * (1.0 + 1e-9):
        problems.append(
            f"{tag}: TTFT p99 regressed ({m_a.ttft.p99_ms:.4f} ms -> "
            f"{m_b.ttft.p99_ms:.4f} ms)"
        )
    return problems


def _gen_setup(profile: Dict[str, object]):
    """The profile's :class:`GenServingBench` and output-length mix."""
    from .experiments.gen_serving_throughput import GenServingBench, OutputMix

    bench = GenServingBench(
        model=profile["gen_model"],
        capacity_tokens=profile["gen_capacity_tokens"],
        max_batch=profile["gen_max_batch"],
        chunk_tokens=profile["gen_chunk_tokens"],
    )
    mix = OutputMix("bench", mean_new_tokens=profile["gen_mix_mean"],
                    max_new_tokens=profile["gen_mix_max"])
    return bench, mix


def verify_gen_equivalence(profile_name: str = "gen", seed: int = 0,
                           progress: Optional[Callable[[str], None]] = None,
                           ) -> List[str]:
    """``bench --verify-gen``: the generation config-equivalence gate.

    Runs the continuous server over the profile's workloads once per
    config and compares each config B against its plain config A with
    :func:`gen_run_divergences`:

    * per rate, the gen workload: chunked prefill + dual-stream overlap
      (``gen_chunk_tokens``) vs unchunked;
    * per (rate, sharing ratio), a multi-tenant prefix-population
      workload: the radix prefix cache on, and on + chunked, vs off —
      admission orders must match too.

    TTFT p99 may not regress for the chunked and the cache-on configs.
    Last, the runtime's compiled prefill and decode models are checked
    against the interpretive pricing (timings and the float ``total``
    path, bit for bit) on every shape these runs priced.
    Returns a list of problems (empty = gate passed).
    """
    profile = PROFILES[profile_name]
    if "gen_rates" not in profile:
        raise ValueError(
            f"profile {profile_name!r} has no generative serving section"
        )
    say = progress or (lambda _msg: None)
    bench, mix = _gen_setup(profile)
    shapes = _record_lookups(bench.runtime)
    duration_s = profile["gen_duration_s"]
    chunked = {"chunk_tokens": bench.chunk_tokens}

    def run(workload, config):
        requests = workload()
        server = bench.make_continuous_server(**config)
        metrics = server.serve(requests, duration_s=duration_s)
        return requests, metrics, list(server.admission_order)

    def compare(tag, workload, variants, same_order):
        base = run(workload, {})
        found: List[str] = []
        for label, config, ttft_gate in variants:
            variant = run(workload, config)
            found.extend(gen_run_divergences(f"{tag} {label}", base, variant,
                                             same_order, ttft_gate))
            say(f"  {tag} {label}: ttft p99 {base[1].ttft.p99_ms:.3f} -> "
                f"{variant[1].ttft.p99_ms:.3f} ms, chunks "
                f"{variant[1].prefill_chunks}, prefix hits "
                f"{variant[1].prefix_hits}")
        return found

    problems: List[str] = []
    for rate in profile["gen_rates"]:
        problems.extend(compare(
            f"rate {rate:g}",
            lambda: bench.workload(rate, duration_s, seed, mix),
            [("chunked", chunked, True)], same_order=False))
        for sharing in PREFIX_SHARING_RATIOS:
            problems.extend(compare(
                f"rate {rate:g} sharing {sharing:g}",
                lambda: _prefix_workload(rate, duration_s, seed, mix,
                                         sharing),
                [("prefix", {"prefix_cache": True}, True),
                 ("prefix+chunked", {"prefix_cache": True, **chunked},
                  False)],
                same_order=True))
    problems += _verify_generation_runtime("gen", bench.runtime, *shapes,
                                           say)
    return problems


def _gen_sweep(bench, mix, rates, duration_s: float, seed: int,
               system: str) -> Dict[str, object]:
    points = {
        str(rate): _gen_point_summary(
            bench.run_point(system, rate, duration_s, seed, mix)
        )
        for rate in rates
    }
    return {"points": points, "digest": _digest(points)}


def _bench_gen(profile: Dict[str, object], seed: int,
               setup=None) -> Dict[str, Dict[str, object]]:
    """Generative serving: iteration-level continuous batching (fast) vs
    the request-level DP baseline, plus a determinism double-run.

    ``setup`` (default: a fresh :func:`_gen_setup`) is the bench and mix
    to run, so a caller may record the shapes its runtime is asked for
    (:func:`_record_lookups`)."""
    bench, mix = setup or _gen_setup(profile)
    rates = profile["gen_rates"]
    duration_s = profile["gen_duration_s"]

    t0 = _now()
    baseline = _gen_sweep(bench, mix, rates, duration_s, seed,
                          "request-level")
    baseline_s = _now() - t0

    t0 = _now()
    fast = _gen_sweep(bench, mix, rates, duration_s, seed, "continuous")
    fast_s = _now() - t0
    # Simulated time is a pure function of the inputs: an immediate rerun
    # must reproduce the sweep bit for bit (fresh arena per run).
    rerun = _gen_sweep(bench, mix, rates, duration_s, seed, "continuous")

    # Chunked prefill + dual-stream overlap over the same workloads: token
    # streams must be identical to the unchunked sweep (checked per rate
    # below); timing — the TTFT tail in particular — is where it wins.
    t0 = _now()
    chunked = _gen_sweep(bench, mix, rates, duration_s, seed,
                         "continuous-chunked")
    chunked_s = _now() - t0

    identical_streams = True
    for rate in rates:
        off = bench.workload(rate, duration_s, seed, mix)
        bench.run_continuous(off, duration_s)
        on = bench.workload(rate, duration_s, seed, mix)
        bench.run_continuous(on, duration_s, chunk_tokens=bench.chunk_tokens)
        identical_streams = identical_streams and \
            _gen_token_stream(off) == _gen_token_stream(on)

    # Prefix-cache sweep: multi-tenant prefix-population workloads at the
    # top rate, cache off vs on per sharing ratio.  Token streams must be
    # byte-identical — the cache skips prefill work, never changes tokens.
    t0 = _now()
    top_rate = max(rates)
    prefix_points: Dict[str, object] = {}
    identical_prefix_streams = True
    for sharing in PREFIX_SHARING_RATIOS:
        off = _prefix_workload(top_rate, duration_s, seed, mix, sharing)
        m_off = bench.run_continuous(off, duration_s)
        on = _prefix_workload(top_rate, duration_s, seed, mix, sharing)
        m_on = bench.run_continuous(on, duration_s, prefix_cache=True)
        identical_prefix_streams = identical_prefix_streams and \
            _gen_token_stream(off) == _gen_token_stream(on)
        point = _gen_point_summary(m_on)
        point["ttft_p99_ms_cache_off"] = m_off.ttft.p99_ms
        prefix_points[str(sharing)] = point
    prefix_s = _now() - t0

    top = str(max(rates))
    gain = (fast["points"][top]["response_throughput"]
            / max(baseline["points"][top]["response_throughput"], 1e-9))
    p99_gain = (fast["points"][top]["ttft_p99_ms"]
                / max(chunked["points"][top]["ttft_p99_ms"], 1e-9))
    return {
        "counters": {
            "rates": list(map(float, rates)),
            "identical_reruns": fast == rerun,
            "identical_token_streams": identical_streams,
            "identical_prefix_streams": identical_prefix_streams,
            "request_level": baseline["points"],
            "continuous": fast["points"],
            "continuous_chunked": chunked["points"],
            "continuous_prefix": prefix_points,
            "continuous_digest": fast["digest"],
            "request_level_digest": baseline["digest"],
            "continuous_chunked_digest": chunked["digest"],
            "continuous_prefix_digest": _digest(prefix_points),
            "throughput_gain_at_top_rate": gain,
            "ttft_p99_gain_at_top_rate": p99_gain,
        },
        "wallclock": {
            "baseline_s": baseline_s,
            "fast_s": fast_s,
            "chunked_s": chunked_s,
            "prefix_s": prefix_s,
            "speedup": baseline_s / fast_s,
        },
    }


# -- top level ----------------------------------------------------------------


def run_bench(profile_name: str = "smoke", seed: int = 0,
              progress: Optional[Callable[[str], None]] = None) -> Dict[str, object]:
    """Run every section; returns the ``BENCH_host.json`` payload."""
    if profile_name not in PROFILES:
        raise ValueError(
            f"profile must be one of {sorted(PROFILES)}, got {profile_name!r}"
        )
    profile = PROFILES[profile_name]
    say = progress or (lambda _msg: None)

    sections: Dict[str, Dict[str, object]] = {}
    if "gen_rates" in profile:
        say("gen: generative serving, request-level vs continuous ...")
        sections["gen"] = _bench_gen(profile, seed)
    else:
        say("grid: CostTable full-grid profile ...")
        sections["grid"] = _bench_grid(profile)
        say("plans: allocation planning throughput ...")
        sections["plans"] = _bench_plans(profile, seed)
        say("scheduler: DP batching rounds ...")
        sections["scheduler"] = _bench_scheduler(profile, seed)
        say("fig12: end-to-end serving sweep ...")
        sections["fig12"] = _bench_fig12(profile, seed)

    payload: Dict[str, object] = {
        "schema": BENCH_GEN_SCHEMA if "gen_rates" in profile else BENCH_SCHEMA,
        "profile": profile_name,
        "seed": seed,
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in profile.items()},
        "counters": {name: s["counters"] for name, s in sections.items()},
        "wallclock": {name: s["wallclock"] for name, s in sections.items()},
        "speedups": {name: s["wallclock"]["speedup"]
                     for name, s in sections.items()},
        "equivalence_ok": all(
            v for name, s in sections.items()
            for k, v in s["counters"].items() if k.startswith("identical_")
        ),
    }
    return payload


def diff_bench(a: Dict[str, object], b: Dict[str, object],
               rel_tol: float = 0.0) -> List[str]:
    """Compare the deterministic fields of two bench payloads.

    Returns a list of human-readable differences (empty == identical).
    Wall-clock fields (and the speedups derived from them) are excluded —
    they legitimately vary run to run.

    Every mismatching metric is reported (not just the first), and
    numeric mismatches carry their **relative delta against the recorded
    value** next to the tolerance, so a CI failure log shows at a glance
    whether a run drifted by 1e-12 or by 40%.  ``rel_tol`` accepts
    numeric drift up to that relative delta (default 0: bit-exact).
    """
    if rel_tol < 0:
        raise ValueError(f"rel_tol must be >= 0, got {rel_tol}")
    problems: List[str] = []

    def numeric(v: object) -> bool:
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    def walk(prefix: str, x: object, y: object) -> None:
        if isinstance(x, dict) and isinstance(y, dict):
            for key in sorted(set(x) | set(y)):
                if key not in x:
                    problems.append(f"{prefix}{key}: missing in first run")
                elif key not in y:
                    problems.append(f"{prefix}{key}: missing in second run")
                else:
                    walk(f"{prefix}{key}.", x[key], y[key])
        elif numeric(x) and numeric(y):
            if x == y:
                return
            denom = max(abs(x), abs(y))
            rel = abs(x - y) / denom if denom else 0.0
            if rel <= rel_tol:
                return
            problems.append(
                f"{prefix[:-1]}: recorded {x!r}, observed {y!r} "
                f"(rel delta {rel:.3e}, tol {rel_tol:.3e})"
            )
        elif x != y:
            problems.append(f"{prefix[:-1]}: {x!r} != {y!r}")

    for key in DETERMINISTIC_KEYS:
        walk(f"{key}.", a.get(key), b.get(key))
    return problems


def save_bench(payload: Dict[str, object], path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_bench(path: Union[str, Path]) -> Dict[str, object]:
    return json.loads(Path(path).read_text())


def format_bench(payload: Dict[str, object]) -> str:
    lines = [f"repro bench — profile {payload['profile']!r}, "
             f"seed {payload['seed']}"]
    wall = payload["wallclock"]
    for name in wall:
        w = wall[name]
        extra = ""
        if "fast_latency_calls_per_s" in w:
            extra = f", {w['fast_latency_calls_per_s']:,.0f} latency calls/s"
        elif "fast_plans_per_s" in w:
            extra = f", {w['fast_plans_per_s']:,.0f} plans/s"
        elif "fast_rounds_per_s" in w:
            extra = f", {w['fast_rounds_per_s']:,.0f} rounds/s"
        lines.append(
            f"  {name:<10} baseline {w['baseline_s']:7.3f}s   fast "
            f"{w['fast_s']:7.3f}s   speedup {w['speedup']:5.2f}x{extra}"
        )
    gen = payload["counters"].get("gen")
    if gen:
        lines.append(
            f"  gen        continuous vs request-level throughput at "
            f"{max(gen['rates']):,.0f} req/s: "
            f"{gen['throughput_gain_at_top_rate']:.2f}x"
        )
        if "ttft_p99_gain_at_top_rate" in gen:
            lines.append(
                f"  gen        chunked-overlap TTFT p99 at "
                f"{max(gen['rates']):,.0f} req/s: "
                f"{gen['ttft_p99_gain_at_top_rate']:.2f}x lower"
            )
    lines.append(f"  equivalence checks: "
                 f"{'ok' if payload['equivalence_ok'] else 'FAILED'}")
    return "\n".join(lines)


# -- equivalence verifier (``repro bench --verify``) --------------------------


def _verify_compiled(tag: str, model, nodes, bindings_list, chars, device,
                     say: Callable[[str], None]) -> List[str]:
    """One graph's compiled model vs ``graph_cost`` on every given shape;
    an empty shape set is itself a problem (the check would be vacuous)."""
    from .runtime import verify_equivalence

    say(f"verify: {tag}: {len(bindings_list)} shape(s) checked")
    if not bindings_list:
        return [f"{tag}: no priced shapes to check"]
    return [f"{tag}: {msg}" for msg in verify_equivalence(
        nodes, bindings_list, chars, device, compiled=model)]


def _record_lookups(runtime) -> Tuple[Set[Tuple[int, int]],
                                      Set[Tuple[int, int]]]:
    """The ``(batch, prompt_len)`` and ``(batch, past)`` shapes a
    generation runtime's two lookups are asked for from now on.  Both
    lookups are wrapped on this instance only, so its cost rows and every
    other runtime are untouched."""
    prefill: Set[Tuple[int, int]] = set()
    decode: Set[Tuple[int, int]] = set()

    def recording(lookup, shapes):
        def record(batch: int, length: int) -> float:
            shapes.add((batch, length))
            return lookup(batch, length)
        return record

    runtime.prefill_latency = recording(runtime.prefill_latency, prefill)
    runtime.decode_step_latency = recording(runtime.decode_step_latency,
                                            decode)
    return prefill, decode


def _verify_generation_runtime(tag: str, runtime, prefill, decode,
                               say: Callable[[str], None]) -> List[str]:
    """Both graphs of a generation runtime on the given ``(batch,
    length)`` shapes: the compiled model vs ``graph_cost``
    (:func:`_verify_compiled`), and each shape's cost-row entry vs the
    scalar ``kernel_s`` plus the pass overhead, bit for bit."""
    problems: List[str] = []
    for graph, model, lookup, symbol, overhead_s, shapes in (
        ("prefill", runtime.prefill_model, runtime.prefill_latency, "seq",
         runtime.chars.fixed_overhead_s, prefill),
        ("decode", runtime.decode_model, runtime.decode_step_latency,
         "past", runtime.step_overhead_s, decode),
    ):
        shapes = sorted(shapes)
        bindings = [{"batch": b, symbol: n} for b, n in shapes]
        nodes = getattr(runtime, f"{graph}_graph").nodes
        problems += _verify_compiled(f"{tag} {graph}", model, nodes,
                                     bindings, runtime.chars, runtime.device,
                                     say)
        for (b, n), binding in zip(shapes, bindings):
            got = lookup(b, n)
            want = model.kernel_s(binding) + overhead_s
            if got != want:
                problems.append(f"{tag} {graph}: row entry {(b, n)} "
                                f"{got!r} != scalar {want!r}")
    return problems


def _verify_generation_pricing(seed: int,
                               say: Callable[[str], None]) -> List[str]:
    """Compiled vs interpretive pricing of the generation graphs (prefill
    and decode; fused Turbo and unfused PyTorch) over every shape a
    ``gen`` profile bench run priced, and of the seq2seq decoder's step
    graph over a fig. 10 length sweep."""
    from .gpusim import RTX_2060
    from .models import (
        build_decode_step_graph,
        build_decoder_step_graph,
        build_prefill_graph,
        seq2seq_decoder,
    )
    from .runtime import (
        PYTORCH_CHARACTERISTICS,
        TURBO_CHARACTERISTICS,
        DecoderRuntime,
        GenerationRuntime,
    )

    setup = _gen_setup(PROFILES["gen"])
    gen = setup[0]
    turbo = gen.runtime
    shapes = _record_lookups(turbo)
    _bench_gen(PROFILES["gen"], seed, setup)
    pytorch = GenerationRuntime(
        build_prefill_graph(gen.config), build_decode_step_graph(gen.config),
        PYTORCH_CHARACTERISTICS, turbo.device, stride=1)
    problems: List[str] = []
    for name, rt in (("turbo", turbo), ("pytorch", pytorch)):
        problems += _verify_generation_runtime(f"gen-{name}", rt, *shapes,
                                               say)

    config = seq2seq_decoder()
    step_graph = build_decoder_step_graph(config)
    for name, chars in (("turbo", TURBO_CHARACTERISTICS),
                        ("pytorch", PYTORCH_CHARACTERISTICS)):
        rt = DecoderRuntime(step_graph, chars, RTX_2060, config.beam_size)
        for length in (28, 64, 100, 137):
            rt.decode_latency(length, length)
        steps = [{"beam": rt.beam_size, "tgt_pos": t, "src_len": s}
                 for t, s in sorted(rt._step_cache)]
        problems += _verify_compiled(
            f"decoder-{name} step", rt.compiled_model(), rt.step_graph.nodes,
            steps, rt.chars, rt.device, say)
    return problems


def verify_host_fast_path(seed: int = 0,
                          progress: Optional[Callable[[str], None]] = None,
                          ) -> List[str]:
    """Cross-check every fast-path layer against its reference.

    Returns a list of problems (empty == fully equivalent):

    * compiled cost model vs. interpretive ``graph_cost`` for every
      runtime factory, bit-exact per kernel;
    * the same for both generation graphs (Turbo and PyTorch) over every
      shape a ``gen`` profile run prices, and for the decoder step graph
      (shape counts go to ``progress``);
    * fast ``latency()`` vs. the seed double-``infer()`` path, bit-exact,
      across a shape grid including padding boundaries;
    * ``PrunedDPBatchScheduler`` batches vs. ``DPBatchScheduler``,
      identical ids and padded length per batch, under a monotone and a
      non-monotone cost, over random queues and singleton-heavy round
      streams;
    * the placement pass vs. the reference gap search: identical
      outcomes, per-tensor ``(chunk_id, offset)`` and chunk lists;
    * the CostTable warm-up with deferred planning vs. one that plans
      every pass, cell by cell, and both allocators' state afterwards;
    * the fault injector's cached segments vs. the plan scans for every
      server of every chaos scenario plan (:func:`_verify_fault_segments`).
    """
    problems: List[str] = []
    say = progress or (lambda _msg: None)

    from .runtime import RUNTIME_FACTORIES, verify_equivalence

    shapes = [(1, 1), (1, 16), (1, 17), (2, 63), (2, 64), (2, 65),
              (4, 128), (7, 100), (8, 512)]
    for name, factory in RUNTIME_FACTORIES.items():
        fast_rt = factory()
        bindings = [fast_rt._bindings(b, fast_rt.chars.padded_length(s))
                    for b, s in shapes]
        for msg in verify_equivalence(fast_rt.graph.nodes, bindings,
                                      fast_rt.chars, fast_rt.device):
            problems.append(f"{name}: {msg}")
        ref_rt = factory()
        _baseline_mode(ref_rt)
        for b, s in shapes:
            got = fast_rt.latency(b, s)
            want = ref_rt.latency(b, s)
            if got != want:
                problems.append(
                    f"{name}: latency({b}, {s}) fast {got!r} != "
                    f"reference {want!r}"
                )
    problems.extend(_verify_generation_pricing(seed, say))
    problems.extend(_verify_scheduler(seed))

    from .gpusim.memory import DeviceMemory
    from .memory import TurboAllocator

    profile = dict(PROFILES["smoke"], plan_shapes=16)
    workload = _plan_workload(profile, seed)
    ref_alloc = TurboAllocator(DeviceMemory(), gap_search="reference")
    fast_alloc = TurboAllocator(DeviceMemory())
    ref_layouts: list = []
    fast_layouts: list = []
    ref_out = _run_plans(ref_alloc, workload, 2, ref_layouts)
    fast_out = _run_plans(fast_alloc, workload, 2, fast_layouts)
    if ref_out != fast_out:
        problems.append(
            f"allocator: placement outcomes diverge: {ref_out} != {fast_out}"
        )
    problems.extend(plan_layout_divergences(ref_layouts, fast_layouts))
    problems.extend(_verify_deferred_warmup())
    problems.extend(_verify_fault_segments(seed))
    return problems


def allocator_state(runtime) -> Dict[str, object]:
    """A snapshot of everything observable of a runtime's Turbo
    allocator: chunks with their assignments and unused streaks, the
    device's counters and live handles, the planning counters, the
    metrics series and the host-path counters.  Reads
    ``runtime.allocator``, so deferred plans run first."""
    allocator = runtime.allocator
    device = allocator.device_memory
    return {
        "chunks": [(c.chunk_id, c.size, c.handle, c.unused_streak,
                    tuple(c.assignments)) for c in allocator.chunks],
        "device": dict(vars(device), _live=dict(device._live)),
        "counters": (allocator.requests_processed, allocator.plan_hits,
                     allocator.plan_misses, allocator.chunks_released),
        "metrics": (allocator.metrics.to_dict()
                    if allocator.metrics is not None else None),
        "host_path": runtime.host_path_stats(),
    }


def _verify_deferred_warmup() -> List[str]:
    """The smoke-profile CostTable warm-up of a deferring runtime vs. a
    planning one (its allocator read before the first call), for
    ``release_after`` None, 7 and 8: identical cells, and identical
    allocator state once the deferring runtime's plans have run.  With
    7, warm passes may free chunks, so that runtime must plan too."""
    from functools import partial

    from .gpusim import RTX_2060
    from .memory import TurboAllocator
    from .models import bert_base, build_encoder_graph
    from .runtime import (TURBO_CHARACTERISTICS, InferenceRuntime,
                          warmup_profile)

    graph = build_encoder_graph(bert_base())
    profile = PROFILES["smoke"]
    kwargs = dict(max_batch=profile["grid_max_batch"],
                  max_length=profile["grid_max_length"],
                  length_step=profile["grid_length_step"])
    problems: List[str] = []
    for release_after in (None, 7, 8):
        factory = partial(TurboAllocator, release_after=release_after)
        deferring, planning = (
            InferenceRuntime(graph, TURBO_CHARACTERISTICS, RTX_2060,
                             allocator_factory=factory) for _ in range(2))
        _ = planning.allocator  # ends deferral before the first plan
        deferred = _table_cells(warmup_profile(deferring, **kwargs))
        planned = _table_cells(warmup_profile(planning, **kwargs))
        tag = f"deferred warm-up (release_after={release_after})"
        for cell, seconds in planned.items():
            if deferred.get(cell) != seconds:
                problems.append(f"{tag}: cell {cell} deferred "
                                f"{deferred.get(cell)!r} != planned {seconds!r}")
        want, got = allocator_state(planning), allocator_state(deferring)
        for key in want:
            if got[key] != want[key]:
                problems.append(f"{tag}: allocator {key} differs after flush")
    return problems


def _verify_fault_segments(seed: int) -> List[str]:
    """``EngineFaultInjector.window`` and ``crashed``, which answer from a
    cached segment of the plan's edges, vs. a second injector's
    ``stretch`` + ``crashed_during`` and ``plan.crashed``, for every
    server of each ``repro chaos`` scenario plan.  Windows start at
    every boundary, one ULP either side of it and every segment
    midpoint, and end at each such point at or after the start; the
    starts are visited forwards, then backwards, and the stretch
    counters must agree at the end."""
    import math

    from .engine import EngineFaultInjector
    from .resilience.chaos import SCENARIOS

    problems: List[str] = []
    windows = 0
    for name, build in SCENARIOS.items():
        scenario = build(seed)
        plan = scenario.faults
        for sid in range(scenario.num_replicas):
            edges = plan.boundaries(sid)
            points = sorted(
                {p for e in edges for p in (math.nextafter(e, -math.inf), e,
                                            math.nextafter(e, math.inf))}
                | {(a + b) / 2 for a, b in zip(edges, edges[1:])})
            fast = EngineFaultInjector(plan, sid)
            ref = EngineFaultInjector(plan, sid)
            tag = f"fault segments: {name} server {sid}"
            for started in points + points[::-1]:
                if fast.crashed(started) != plan.crashed(sid, started):
                    problems.append(f"{tag}: crashed({started!r}) differs")
                for end in points:
                    if end < started:
                        continue
                    dur = end - started
                    want_dur = ref.stretch(dur, started)
                    want = (want_dur,
                            ref.crashed_during(started, started + want_dur))
                    got = fast.window(started, dur)
                    windows += 1
                    if got != want:
                        problems.append(f"{tag}: window({started!r}, "
                                        f"{dur!r}) {got} != {want}")
            if (fast.stretches, fast.stretched_seconds) != \
                    (ref.stretches, ref.stretched_seconds):
                problems.append(f"{tag}: stretch counters differ")
    if not windows:
        problems.append("fault segments: no window was checked")
    return problems


def _verify_scheduler(seed: int) -> List[str]:
    """``PrunedDPBatchScheduler`` vs. the reference ``DPBatchScheduler``,
    batch by batch (``(ids, padded_len)``).  Two cost functions: a
    monotone one, and a non-monotone one shaped like a warmed table
    (some batch sizes and lengths price below their smaller neighbour).
    Two round streams on one stateful scheduler each: random queues, and
    a singleton-heavy stream whose one-request rounds mostly find their
    row already priced.  A second instance answers each round through
    ``partition``, which the closed-form serving rounds call: its slices
    must hold the reference batches' ids and its costs must equal
    ``batch_execution_cost`` bit for bit."""
    import random

    from .serving.request import Request
    from .serving.scheduler import (
        DPBatchScheduler,
        PrunedDPBatchScheduler,
        batch_execution_cost,
    )

    def monotone(length: int, batch: int) -> float:
        return (1.0 + 0.002 * length) * (0.3 + 0.1 * batch) * 1e-3

    def non_monotone(length: int, batch: int) -> float:
        dip = 0.85 if batch % 4 == 1 and batch > 1 else 1.0
        if length % 64 == 16 and length > 64:
            dip *= 0.95
        return monotone(length, batch) * dip

    def random_queue(rng: random.Random) -> List[int]:
        return [rng.randrange(1, 33) * 16
                for _ in range(rng.randrange(1, 40))]

    def singleton_heavy(rng: random.Random) -> List[int]:
        size = rng.choice((1, 1, 1, 1, 2, 3))
        return [rng.choice((16, 64, 80, 144)) for _ in range(size)]

    problems: List[str] = []
    for cost_name, cost_fn in (("monotone", monotone),
                               ("non-monotone", non_monotone)):
        for stream, draw in (("random", random_queue),
                             ("singleton-heavy", singleton_heavy)):
            rng = random.Random(seed)
            ref_sched = DPBatchScheduler()
            fast_sched = PrunedDPBatchScheduler()
            part_sched = PrunedDPBatchScheduler()
            for trial in range(200):
                if trial % 50 == 0:
                    max_batch = rng.randrange(1, 16)
                queue = [Request(req_id=i, seq_len=length, arrival_s=0.0)
                         for i, length in enumerate(draw(rng))]
                tag = (f"scheduler: {cost_name} cost, {stream} round "
                       f"{trial} (n={len(queue)}, max_batch={max_batch})")
                ref_batches = ref_sched.schedule(queue, cost_fn, max_batch)
                want = [(tuple(r.req_id for r in b.requests), b.padded_len)
                        for b in ref_batches]
                got = [(tuple(r.req_id for r in b.requests), b.padded_len)
                       for b in fast_sched.schedule(queue, cost_fn,
                                                    max_batch)]
                if got != want:
                    problems.append(f"{tag}: {got} != {want}")
                order, ends, costs = part_sched.partition(queue, cost_fn,
                                                          max_batch)
                got_ids = [tuple(r.req_id for r in order[lo:hi])
                           for lo, hi in zip([0] + ends, ends)]
                want_ids = [ids for ids, _ in want]
                if got_ids != want_ids:
                    problems.append(f"{tag}: partition {got_ids} != "
                                    f"{want_ids}")
                want_costs = [batch_execution_cost(b, cost_fn)
                              for b in ref_batches]
                if costs != want_costs:
                    problems.append(f"{tag}: partition costs {costs} != "
                                    f"{want_costs}")
    return problems


def plan_layout_divergences(want: list, got: list) -> List[str]:
    """Per plan, the tensors whose ``(chunk_id, offset)`` differ and a
    differing chunk list, between two ``_run_plans`` layout lists."""
    problems: List[str] = []
    if len(got) != len(want):
        problems.append(f"allocator: {len(got)} plan(s) != {len(want)}")
    for i, ((want_at, want_chunks), (got_at, got_chunks)) in enumerate(
            zip(want, got)):
        moved = sorted(name for name in want_at.keys() | got_at.keys()
                       if want_at.get(name) != got_at.get(name))
        if moved:
            problems.append(
                f"allocator: plan {i}: {len(moved)} tensor(s) placed "
                f"differently, first {moved[0]!r} at "
                f"{got_at.get(moved[0])} != {want_at.get(moved[0])}"
            )
        if got_chunks != want_chunks:
            problems.append(
                f"allocator: plan {i}: chunks {got_chunks} != {want_chunks}"
            )
    return problems
