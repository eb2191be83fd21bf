"""Degenerate configurations either run cleanly or are refused.

One sweep over the serving drivers — ``ContinuousBatchingServer``, the
request-level control, ``simulate_generation_cluster`` (one replica), the
encoder's ``simulate_serving`` and ``simulate_ebird_serving`` — and the
boundary cases of their configuration space.  Each case must either raise
``ValueError`` or run with every request terminal and the KV audit clean.
A driver applies the knobs it has: the encoder drivers have no KV arena,
and the control has no slot cap beyond ``max_batch``, no prefix cache,
chunking or faults.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import pytest

from repro.gpusim import RTX_2060
from repro.memory import KVCacheArena, kv_bytes_per_token
from repro.models import build_decode_step_graph, build_prefill_graph, tiny_gpt
from repro.resilience import FaultPlan, ResilienceConfig, ServerCrash
from repro.runtime import TURBO_CHARACTERISTICS, GenerationRuntime
from repro.serving import (
    AdaptiveBatchScheduler,
    ContinuousBatchingConfig,
    ContinuousBatchingServer,
    GenRequest,
    KVPreemptionPolicy,
    LazyPolicy,
    PackedBatchScheduler,
    Request,
    RequestLevelGenerationServer,
    ServingConfig,
    simulate_ebird_serving,
    simulate_generation_cluster,
    simulate_serving,
)
from repro.serving.scheduler import PrunedDPBatchScheduler

CONFIG = tiny_gpt()
BPT = kv_bytes_per_token(CONFIG.num_layers, CONFIG.num_heads, CONFIG.head_size)
RUNTIME = GenerationRuntime(build_prefill_graph(CONFIG),
                            build_decode_step_graph(CONFIG),
                            TURBO_CHARACTERISTICS, RTX_2060, stride=1)

#: (prompt_len, arrival_s, max_new_tokens); prompts share their heads.
MIXED = ((32, 0.0, 4), (40, 0.0, 6), (32, 0.002, 3), (48, 0.004, 5))
PAGE_ALIGNED = ((32, 0.0, 4), (32, 0.0, 6), (48, 0.002, 3), (16, 0.004, 5))


@dataclass(frozen=True)
class Case:
    specs: Tuple[Tuple[int, float, int], ...] = MIXED
    capacity_tokens: int = 512
    page_tokens: int = 16
    max_batch: Optional[int] = None
    prefix_cache: bool = False
    chunk_tokens: Optional[int] = None
    duration_s: Optional[float] = 0.05
    #: Replica 0 is down for the whole horizon.
    crashed: bool = False


CASES = {
    "one-page-capacity": Case(capacity_tokens=16),
    "page-tokens-1-prefix": Case(page_tokens=1, prefix_cache=True),
    "page-aligned-prefix": Case(specs=PAGE_ALIGNED, prefix_cache=True),
    "page-aligned-prefix-chunked": Case(specs=PAGE_ALIGNED,
                                        prefix_cache=True, chunk_tokens=16),
    "max-batch-1": Case(max_batch=1),
    "single-request": Case(specs=MIXED[:1]),
    "duration-before-first-arrival": Case(
        specs=tuple((n, t + 0.02, m) for n, t, m in MIXED), duration_s=0.01),
    "crashed-whole-horizon": Case(crashed=True),
}


def gen_requests(case: Case):
    return [GenRequest(req_id=i, seq_len=n, arrival_s=t, max_new_tokens=m,
                       prompt_ids=tuple(range(n)))
            for i, (n, t, m) in enumerate(case.specs)]


def arena(case: Case, _replica: int = 0) -> KVCacheArena:
    return KVCacheArena(capacity_bytes=case.capacity_tokens * BPT,
                        bytes_per_token=BPT, page_tokens=case.page_tokens)


def resilience(case: Case) -> Optional[ResilienceConfig]:
    if not case.crashed:
        return None
    return ResilienceConfig(faults=crash_plan(case))


def crash_plan(case: Case) -> FaultPlan:
    return FaultPlan(crashes=(ServerCrash(0.0, case.duration_s,
                                          server_id=0),))


def gen_config(case: Case) -> ContinuousBatchingConfig:
    return ContinuousBatchingConfig(max_batch=case.max_batch,
                                    prefix_cache=case.prefix_cache,
                                    chunk_tokens=case.chunk_tokens)


def run_continuous(case: Case):
    reqs, kv = gen_requests(case), arena(case)
    ContinuousBatchingServer(RUNTIME, kv, gen_config(case),
                             resilience=resilience(case)).serve(
        reqs, duration_s=case.duration_s)
    return reqs, kv.verify(live_req_ids=[])


def run_request_level(case: Case):
    reqs, kv = gen_requests(case), arena(case)
    RequestLevelGenerationServer(RUNTIME, kv,
                                 max_batch=case.max_batch or 8).serve(
        reqs, duration_s=case.duration_s)
    return reqs, kv.verify(live_req_ids=[])


def run_gen_cluster(case: Case):
    reqs = gen_requests(case)
    result = simulate_generation_cluster(
        reqs, 1, RUNTIME, lambda i: arena(case, i),
        duration_s=case.duration_s, resilience=resilience(case),
        config=gen_config(case))
    return reqs, result.kv_leaks


def encoder_requests(case: Case):
    return [Request(req_id=i, seq_len=n, arrival_s=t)
            for i, (n, t, _m) in enumerate(case.specs)]


def encoder_cost(seq_len: int, batch: int) -> float:
    return 1e-4 + 1e-6 * seq_len * batch


def run_encoder(case: Case):
    reqs = encoder_requests(case)
    simulate_serving(reqs, PrunedDPBatchScheduler(), encoder_cost,
                     ServingConfig(max_batch=case.max_batch or 8),
                     duration_s=case.duration_s, resilience=resilience(case))
    return reqs, []


def run_ebird(case: Case):
    reqs = encoder_requests(case)
    simulate_ebird_serving(reqs, encoder_cost,
                           max_batch=case.max_batch or 8,
                           duration_s=case.duration_s,
                           resilience=resilience(case))
    return reqs, []


DRIVERS = {
    "continuous": run_continuous,
    "request-level": run_request_level,
    "gen-cluster": run_gen_cluster,
    "encoder": run_encoder,
    "ebird": run_ebird,
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_boundary_case_runs_clean_or_is_refused(driver, case):
    try:
        reqs, leaks = DRIVERS[driver](CASES[case])
    except ValueError:
        return
    assert all(r.state.is_terminal for r in reqs)
    assert leaks == []


def test_one_page_capacity_sheds_at_ingest():
    """An arena of one page can hold no worst-case region: every request
    is shed at ingest instead of blocking the queue."""
    reqs, leaks = run_continuous(CASES["one-page-capacity"])
    assert {r.state.value for r in reqs} == {"shed"}
    assert leaks == []


@pytest.mark.parametrize("driver", ["ebird", "encoder"])
def test_lone_encoder_replica_waits_out_a_whole_horizon_crash(driver):
    """With no other replica to take it, queued work waits out the
    outage and completes after recovery, under processor sharing as under
    the DP rounds."""
    case = CASES["crashed-whole-horizon"]
    reqs, _ = DRIVERS[driver](case)
    assert {r.state.value for r in reqs} == {"completed"}
    assert min(r.start_s for r in reqs) == case.duration_s
    assert all(r.completion_s > case.duration_s for r in reqs)


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_all_arrivals_at_zero_need_a_duration(driver):
    """With ``duration_s=None`` the horizon is the last arrival; when
    every request arrives at t=0 that is no horizon at all, and the
    error says which argument is missing."""
    case = Case(specs=((8, 0.0, 2), (8, 0.0, 3)), duration_s=None)
    with pytest.raises(ValueError, match="duration_s is required"):
        DRIVERS[driver](case)


#: Each remaining size knob, built with one value.
SIZE_KNOBS = {
    "max_victims_per_event": lambda v: KVPreemptionPolicy(v),
    "max_batch": lambda v: LazyPolicy(max_batch=v),
    "additive_step": lambda v: AdaptiveBatchScheduler(additive_step=v),
    "initial_cap": lambda v: AdaptiveBatchScheduler(initial_cap=v),
    "max_tokens": lambda v: PackedBatchScheduler(sum, max_tokens=v),
    "max_streams": lambda v: simulate_ebird_serving(
        encoder_requests(Case()), encoder_cost, max_streams=v,
        duration_s=0.01),
}


@pytest.mark.parametrize("value", [float("nan"), 2.5, True])
@pytest.mark.parametrize("knob", sorted(SIZE_KNOBS))
def test_size_knob_must_be_an_int(knob, value):
    """A NaN, fractional or ``bool`` size is refused where it enters.  A
    NaN victim cap used to turn the cap off (``evicted >= nan`` is never
    true), and ``True`` ran as a size of 1."""
    with pytest.raises(TypeError, match=f"{knob} must be an int"):
        SIZE_KNOBS[knob](value)
    SIZE_KNOBS[knob](2)
