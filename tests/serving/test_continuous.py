"""Iteration-level continuous batching vs the request-level control."""

import pytest

from repro.gpusim import RTX_2060
from repro.memory import KVCacheArena, kv_bytes_per_token
from repro.models import build_decode_step_graph, build_prefill_graph, tiny_gpt
from repro.observability import MetricsRegistry, Tracer
from repro.runtime import TURBO_CHARACTERISTICS, GenerationRuntime
from repro.serving import (
    ContinuousBatchingConfig,
    ContinuousBatchingServer,
    GenRequest,
    RequestLevelGenerationServer,
    RequestState,
    generate_generation_requests,
    request_level_cost_fn,
    uniform_lengths,
)

CONFIG = tiny_gpt()
BPT = kv_bytes_per_token(CONFIG.num_layers, CONFIG.num_heads, CONFIG.head_size)


@pytest.fixture(scope="module")
def runtime():
    return GenerationRuntime(build_prefill_graph(CONFIG),
                             build_decode_step_graph(CONFIG),
                             TURBO_CHARACTERISTICS, RTX_2060, stride=1)


def make_arena(capacity_tokens=4096, **kw):
    return KVCacheArena(capacity_bytes=capacity_tokens * BPT,
                        bytes_per_token=BPT, page_tokens=16, **kw)


def gen_reqs(specs):
    """specs: list of (prompt_len, arrival_s, max_new_tokens)."""
    return [GenRequest(req_id=i, seq_len=l, arrival_s=t, max_new_tokens=m)
            for i, (l, t, m) in enumerate(specs)]


def workload(rate, duration, seed=0, mean_new=12.0):
    from repro.serving import geometric_output_lengths

    return generate_generation_requests(
        rate, duration, seed=seed,
        prompt_sampler=lambda rng, n: uniform_lengths(rng, n, lo=4, hi=32),
        output_sampler=lambda rng, n: geometric_output_lengths(
            rng, n, mean=mean_new, hi=64),
    )


class TestGenRequest:
    def test_ttft_and_tpot(self):
        r = GenRequest(req_id=0, seq_len=8, arrival_s=1.0, max_new_tokens=5)
        r.first_token_s = 1.5
        r.completion_s = 2.5
        r.generated = 5
        assert r.ttft_s == pytest.approx(0.5)
        assert r.tpot_s == pytest.approx(0.25)

    def test_single_token_tpot_zero(self):
        r = GenRequest(req_id=0, seq_len=8, arrival_s=0.0, max_new_tokens=1)
        r.first_token_s = 0.1
        r.completion_s = 0.1
        r.generated = 1
        assert r.tpot_s == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            GenRequest(req_id=0, seq_len=8, arrival_s=0.0, max_new_tokens=0)
        with pytest.raises(ValueError):
            GenRequest(req_id=0, seq_len=8, arrival_s=0.0).ttft_s


class TestContinuousLoop:
    def test_everything_completes(self, runtime):
        requests = workload(100.0, 0.5)
        metrics = ContinuousBatchingServer(runtime, make_arena()).serve(
            requests, duration_s=0.5)
        assert metrics.completed == metrics.offered == len(requests)
        assert metrics.tokens_generated == sum(r.generated for r in requests)
        for r in requests:
            assert r.generated == r.max_new_tokens
            assert r.completion_s >= r.first_token_s >= r.arrival_s

    def test_finished_request_exits_slot_immediately(self, runtime):
        """Two requests decode together only while both live; once the
        short one finishes, steps are priced at batch 1 — so the long
        request's completion matches a solo tail."""
        requests = gen_reqs([(8, 0.0, 21), (8, 0.0, 3)])
        ContinuousBatchingServer(runtime, make_arena()).serve(
            requests, duration_s=0.1)
        long, short = requests
        # Shared prefill, then 2 shared decode steps (short retires at
        # generated=3), then 18 solo steps for the long request.
        expected = runtime.prefill_latency(2, 8)
        past = 8
        for step in range(2):
            expected += runtime.decode_step_latency(2, past + step + 1)
        for step in range(18):
            expected += runtime.decode_step_latency(1, past + 3 + step)
        assert long.completion_s == pytest.approx(expected, rel=1e-12)

    def test_midflight_admission(self, runtime):
        """A request arriving while a long decode is in flight joins the
        batch at the next step instead of waiting for the round to end."""
        long_total = runtime.prefill_latency(1, 16) \
            + sum(runtime.decode_step_latency(1, 16 + i + 1)
                  for i in range(39))
        late_arrival = long_total / 4
        requests = gen_reqs([(16, 0.0, 40)]) + [
            GenRequest(req_id=1, seq_len=8, arrival_s=late_arrival,
                       max_new_tokens=2)]
        ContinuousBatchingServer(runtime, make_arena()).serve(
            requests, duration_s=long_total)
        late = requests[1]
        assert late.is_completed
        # Admitted mid-flight: done long before the long request.
        assert late.completion_s < requests[0].completion_s
        assert late.first_token_s - late.arrival_s < long_total / 4

    def test_kv_bounds_batch_size_not_max_batch(self, runtime):
        """With no slot cap, concurrency is limited by KV capacity: a
        small arena admits fewer requests at once and records denials."""
        requests = gen_reqs([(32, 0.0, 32)] * 12)
        small = make_arena(capacity_tokens=256)  # 4 worst-case requests
        m = ContinuousBatchingServer(runtime, small).serve(
            requests, duration_s=0.1)
        assert m.completed == 12
        assert m.kv_denials > 0
        assert small.peak_used_bytes <= small.capacity_bytes
        # Same workload with room for everyone: no denials.
        big = make_arena(capacity_tokens=8192)
        requests2 = gen_reqs([(32, 0.0, 32)] * 12)
        m2 = ContinuousBatchingServer(runtime, big).serve(
            requests2, duration_s=0.1)
        assert m2.kv_denials == 0
        assert m2.prefill_batches < m.prefill_batches

    def test_oversized_request_shed_not_stuck(self, runtime):
        requests = gen_reqs([(8, 0.0, 4), (32, 0.0, 10000), (8, 0.001, 4)])
        m = ContinuousBatchingServer(runtime, make_arena(64)).serve(
            requests, duration_s=0.01)
        assert requests[1].state is RequestState.SHED
        assert m.completed == 2

    def test_every_region_freed_on_completion(self, runtime):
        arena = make_arena()
        ContinuousBatchingServer(runtime, arena).serve(
            workload(150.0, 0.3, seed=2), duration_s=0.3)
        assert arena.live_requests == 0
        assert arena.used_bytes == 0
        assert arena.stats()["admissions"] == arena.stats()["releases"]

    def test_deterministic_for_fixed_seed(self, runtime):
        def run():
            reqs = workload(300.0, 0.4, seed=9)
            m = ContinuousBatchingServer(runtime, make_arena()).serve(
                reqs, duration_s=0.4)
            return (m.response_throughput, m.ttft.avg_ms, m.tpot_ms_avg,
                    m.tokens_generated, m.decode_steps, m.kv_peak_bytes,
                    [r.completion_s for r in reqs])

        assert run() == run()

    def test_metrics_and_trace_populated(self, runtime):
        registry = MetricsRegistry()
        tracer = Tracer()
        ContinuousBatchingServer(
            runtime, make_arena(metrics=registry),
            tracer=tracer, metrics=registry,
        ).serve(workload(100.0, 0.2), duration_s=0.2)
        assert registry.counter("gen_decode_steps_total",
                                system="Turbo-Continuous").value > 0
        names = {e["name"] for e in tracer.to_dict()["traceEvents"]}
        assert any(n.startswith("decode x") for n in names)
        assert any(n.startswith("prefill x") for n in names)
        assert "request" in names

    def test_validation(self, runtime):
        server = ContinuousBatchingServer(runtime, make_arena())
        with pytest.raises(ValueError):
            server.serve([], duration_s=1.0)
        with pytest.raises(ValueError):
            ContinuousBatchingConfig(max_batch=0)
        with pytest.raises(ValueError):
            ContinuousBatchingConfig(warmup_fraction=1.0)

    @pytest.mark.parametrize("max_batch", [2.5, float("inf"), True])
    def test_non_integer_max_batch_rejected(self, max_batch):
        """A fractional slot cap used to serve a whole workload."""
        with pytest.raises(TypeError, match="max_batch must be an int"):
            ContinuousBatchingConfig(max_batch=max_batch)


class TestRequestLevelControl:
    def test_everything_completes(self, runtime):
        requests = workload(100.0, 0.5)
        m = RequestLevelGenerationServer(runtime, make_arena()).serve(
            requests, duration_s=0.5)
        assert m.completed == len(requests)
        for r in requests:
            assert r.generated == r.max_new_tokens

    def test_full_width_charged_to_longest(self, runtime):
        """The padded-slot waste continuous batching removes: a batch of
        (3, 21) output budgets decodes 20 steps at width 2."""
        requests = gen_reqs([(8, 0.0, 21), (8, 0.0, 3)])
        RequestLevelGenerationServer(runtime, make_arena(), max_batch=2).serve(
            requests, duration_s=0.1)
        expected = runtime.prefill_latency(2, 8) + sum(
            runtime.decode_step_latency(2, 8 + step + 1)
            for step in range(20))
        assert requests[0].completion_s == pytest.approx(expected, rel=1e-12)

    def test_members_release_at_own_step(self, runtime):
        requests = gen_reqs([(8, 0.0, 21), (8, 0.0, 3)])
        RequestLevelGenerationServer(runtime, make_arena(), max_batch=2).serve(
            requests, duration_s=0.1)
        assert requests[1].completion_s < requests[0].completion_s

    def test_cost_fn_prices_full_generation(self, runtime):
        fn = request_level_cost_fn(runtime, est_new_tokens=8)
        assert fn(16, 2) == runtime.generate_latency(16, 8, 2)
        with pytest.raises(ValueError):
            request_level_cost_fn(runtime, est_new_tokens=0)

    def test_kv_gate_splits_a_batch(self, runtime):
        """Eight 30-token prompts with 12-token budgets form one DP batch,
        but a 160-token arena holds only three worst-case regions: the
        gate splits the batch, the rest waits at the round's head, and
        every member still completes with no region left behind."""
        arena = KVCacheArena(capacity_bytes=160 * BPT, bytes_per_token=BPT,
                             page_tokens=8)
        requests = gen_reqs([(30, 0.0, 12)] * 8)
        m = RequestLevelGenerationServer(runtime, arena).serve(
            requests, duration_s=0.1)
        assert m.kv_denials > 0
        assert m.completed == 8
        assert all(r.generated == 12 for r in requests)
        assert arena.verify(live_req_ids=[]) == []

    def test_trace_and_metrics_reconcile(self, runtime):
        """The control reports through the replica's channels: one
        ``gen_decode_steps_total`` tick per decode step, decode spans on
        the ``gpu`` track carrying the live members as ``tokens`` while
        the charged width stays the full batch."""
        registry, tracer = MetricsRegistry(), Tracer()
        requests = gen_reqs([(8, 0.0, 21), (8, 0.0, 3), (12, 0.001, 5)])
        m = RequestLevelGenerationServer(
            runtime, make_arena(metrics=registry), max_batch=2,
            tracer=tracer, metrics=registry,
        ).serve(requests, duration_s=0.1)
        assert registry.counter("gen_decode_steps_total",
                                system="Turbo-DP-Request").value \
            == m.decode_steps
        assert registry.counter("gen_tokens_total",
                                system="Turbo-DP-Request").value \
            == m.tokens_generated - m.completed
        decodes = [e for e in tracer.to_dict()["traceEvents"]
                   if e.get("cat") == "decode"]
        assert len(decodes) == m.decode_steps
        assert {e["tid"] for e in decodes} == {"gpu"}
        # The (21, 3) batch decodes 20 steps at width 2; only the first
        # two carry both members.
        tokens = [e["args"]["tokens"] for e in decodes
                  if e["args"]["batch"] == 2]
        assert tokens == [2, 2] + [1] * 18


class TestContinuousBeatsRequestLevel:
    def test_throughput_and_ttft_at_high_rate(self, runtime):
        """The tentpole claim (asserted, not just plotted): at a rate that
        saturates request-level batching, continuous batching sustains
        higher response throughput AND lower mean TTFT."""
        rate, duration = 1500.0, 0.5
        cont = ContinuousBatchingServer(runtime, make_arena()).serve(
            workload(rate, duration, seed=1, mean_new=16.0),
            duration_s=duration)
        rl = RequestLevelGenerationServer(runtime, make_arena()).serve(
            workload(rate, duration, seed=1, mean_new=16.0),
            duration_s=duration)
        assert cont.response_throughput > rl.response_throughput
        assert cont.ttft.avg_ms < rl.ttft.avg_ms


class TestResilientContinuous:
    """Fault injection through the engine layer: crash eviction with
    recompute-on-resume, KV-pressure preemption, retry exhaustion."""

    def resilience(self, faults=None, **retry_kw):
        from repro.resilience import FaultPlan, ResilienceConfig, RetryPolicy

        defaults = dict(max_attempts=5, base_backoff_s=0.005, multiplier=2.0,
                        max_backoff_s=0.1, jitter=0.2, budget=1000)
        defaults.update(retry_kw)
        return ResilienceConfig(faults=faults or FaultPlan(),
                                retry=RetryPolicy(**defaults))

    def test_crash_evicts_then_recovers_with_recompute(self, runtime):
        from repro.resilience import FaultPlan, ServerCrash

        requests = workload(200.0, 0.5)
        arena = make_arena()
        plan = FaultPlan(crashes=(ServerCrash(0.1, 0.2, server_id=0),))
        m = ContinuousBatchingServer(
            runtime, arena, resilience=self.resilience(plan)
        ).serve(requests, duration_s=0.5)
        assert m.completed == len(requests)
        assert not any(r.state is RequestState.FAILED for r in requests)
        assert m.preemptions > 0          # in-flight KV lost to the crash
        assert m.tokens_recomputed > 0    # resumes recomputed the prefix
        assert m.retries > 0
        assert arena.verify(live_req_ids=[]) == []  # no region leaked

    def test_preemption_relieves_watermark_pressure(self, runtime):
        """Two requests, KV room for one worst case: the watermark holds
        the head, so the loop preempts the active request, runs the head,
        and resumes the victim with its prefix recomputed."""
        from repro.serving import ContinuousBatchingConfig, KVPreemptionPolicy

        arena = make_arena(capacity_tokens=48)
        config = ContinuousBatchingConfig(
            preemption=KVPreemptionPolicy(max_victims_per_event=1))
        requests = gen_reqs([(8, 0.0, 24), (8, 0.0, 24)])
        # Backoff long enough that the admitted request finishes before
        # the victim's retry lands — no eviction ping-pong.
        m = ContinuousBatchingServer(
            runtime, arena, config=config,
            resilience=self.resilience(base_backoff_s=1.0, max_backoff_s=8.0,
                                       jitter=0.0),
        ).serve(requests, duration_s=0.1)
        assert m.completed == 2
        assert m.preemptions == 1
        # Victim held prompt (8) + 1 generated token when evicted.
        assert m.tokens_recomputed == 9
        assert m.retries == 1
        assert arena.verify(live_req_ids=[]) == []

    def test_fault_free_resilience_config_is_identity(self, runtime):
        """An empty plan with no retry policy must not perturb a single
        float: the resilient loop is byte-identical to the plain one."""
        from repro.resilience import ResilienceConfig

        base = ContinuousBatchingServer(runtime, make_arena()).serve(
            workload(300.0, 0.3), duration_s=0.3)
        res = ContinuousBatchingServer(
            runtime, make_arena(), resilience=ResilienceConfig()
        ).serve(workload(300.0, 0.3), duration_s=0.3)
        assert res.resilience is not None  # the only permitted difference
        assert base == type(base)(**{**res.__dict__, "resilience": None})

    def test_transient_failures_exhaust_attempts_to_failed(self, runtime):
        from repro.resilience import FaultPlan, TransientFailures

        arena = make_arena()
        plan = FaultPlan(failures=(TransientFailures(0.0, 100.0, 1.0),))
        requests = gen_reqs([(8, 0.0, 4), (8, 0.0, 4), (16, 0.0, 8)])
        m = ContinuousBatchingServer(
            runtime, arena, resilience=self.resilience(plan, max_attempts=2)
        ).serve(requests, duration_s=0.1)
        assert m.completed == 0
        assert all(r.state is RequestState.FAILED for r in requests)
        assert m.attempts_failed == 2 * len(requests)  # initial + one retry
        assert arena.verify(live_req_ids=[]) == []

    def test_deterministic_under_faults(self, runtime):
        from repro.resilience import FaultPlan, ServerCrash, TransientFailures

        plan = FaultPlan(
            crashes=(ServerCrash(0.1, 0.15, server_id=0),),
            failures=(TransientFailures(0.2, 0.3, 0.25, server_id=0),),
        )

        def run():
            return ContinuousBatchingServer(
                runtime, make_arena(), resilience=self.resilience(plan)
            ).serve(workload(200.0, 0.4, seed=3), duration_s=0.4)

        assert run() == run()

    def test_crash_inside_a_pass_completes_nothing_in_the_window(self,
                                                                 runtime):
        """A prefill or decode pass straddling the crash start is lost at
        the crash instant: no request may complete inside the window
        (LIFE603).  On this workload a committed straddling pass would
        complete request 153 at t≈0.1019, inside [0.1013, 0.1513]."""
        from repro.analysis.engine_checks import (EngineTraceRecorder,
                                                  verify_trace)
        from repro.resilience import FaultPlan, ServerCrash

        plan = FaultPlan(crashes=(ServerCrash(0.1013, 0.1513, server_id=0),))
        res = self.resilience(plan)
        requests = workload(1500.0, 0.4, seed=2)
        with EngineTraceRecorder() as rec:
            ContinuousBatchingServer(runtime, make_arena(),
                                     resilience=res).serve(requests,
                                                           duration_s=0.4)
        assert [d.code for d in verify_trace(rec, retry=res.retry)] == []
        assert not any(0.1013 < r.completion_s < 0.1513 for r in requests
                       if r.completion_s is not None)
