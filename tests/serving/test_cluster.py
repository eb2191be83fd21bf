"""Multi-server cluster: routing policies, scaling, balance."""

from dataclasses import dataclass

import pytest

from repro.engine import EngineFaultInjector
from repro.resilience import FaultPlan, ServerCrash
from repro.serving import (
    DPBatchScheduler,
    NaiveBatchScheduler,
    Request,
    Router,
    RoutingPolicy,
    generate_requests,
    simulate_cluster,
)


def linear_cost(per_token=0.00005, fixed=0.002):
    def cost(seq_len, batch):
        return fixed + per_token * seq_len * batch
    return cost


def run(policy, num_servers=4, rate=300, duration=4.0, seed=0,
        scheduler=NaiveBatchScheduler):
    requests = generate_requests(rate, duration, seed=seed)
    return simulate_cluster(
        requests, num_servers, scheduler, linear_cost(),
        policy=policy, duration_s=duration,
    )


class TestCompleteness:
    @pytest.mark.parametrize("policy", list(RoutingPolicy))
    def test_every_request_completes(self, policy):
        metrics = run(policy, rate=100, duration=2.0)
        assert metrics.serving.completed == metrics.serving.offered

    @pytest.mark.parametrize("policy", list(RoutingPolicy))
    def test_deterministic(self, policy):
        a = run(policy, rate=100, duration=2.0)
        b = run(policy, rate=100, duration=2.0)
        assert a.serving.latency.avg_ms == b.serving.latency.avg_ms


class TestScaling:
    def test_more_servers_more_throughput(self):
        """An overloaded single server scales out to stability."""
        one = run(RoutingPolicy.LEAST_WORK, num_servers=1, rate=500)
        four = run(RoutingPolicy.LEAST_WORK, num_servers=4, rate=500)
        assert four.serving.response_throughput > one.serving.response_throughput
        assert four.serving.latency.avg_ms < one.serving.latency.avg_ms

    def test_near_linear_capacity_scaling(self):
        one = run(RoutingPolicy.LEAST_WORK, num_servers=1, rate=800)
        four = run(RoutingPolicy.LEAST_WORK, num_servers=4, rate=800)
        assert four.serving.response_throughput > \
            2.5 * one.serving.response_throughput


class TestRouting:
    def test_round_robin_balances_counts(self):
        metrics = run(RoutingPolicy.ROUND_ROBIN, rate=200, duration=4.0)
        assert metrics.balance_ratio < 1.1

    def test_least_work_no_worse_than_round_robin(self):
        rr = run(RoutingPolicy.ROUND_ROBIN, rate=400)
        lw = run(RoutingPolicy.LEAST_WORK, rate=400)
        assert lw.serving.latency.avg_ms <= rr.serving.latency.avg_ms * 1.1

    def test_length_aware_reduces_padding_waste(self):
        """Routing by length band makes each server's batches homogeneous,
        so naive batching pays far less padding than with mixed routing.
        (Requires a length distribution that loads the bands evenly —
        under the skewed normal distribution the middle bands overload,
        which is exactly why Nexus balances by *work*, not by kind.)"""
        from repro.serving import uniform_lengths

        def run_uniform(policy):
            requests = generate_requests(
                500, 3.0, seed=3,
                length_sampler=lambda rng, n: uniform_lengths(rng, n, 5, 500),
            )
            return simulate_cluster(
                requests, 4, NaiveBatchScheduler, linear_cost(),
                policy=policy, duration_s=3.0,
            )

        mixed = run_uniform(RoutingPolicy.ROUND_ROBIN)
        banded = run_uniform(RoutingPolicy.LENGTH_AWARE)
        assert banded.serving.latency.avg_ms < mixed.serving.latency.avg_ms

    def test_length_aware_unbalances_skewed_workloads(self):
        """The flip side: under the paper's normal length distribution the
        middle length bands receive most of the traffic."""
        metrics = run(RoutingPolicy.LENGTH_AWARE, rate=200, duration=4.0)
        assert metrics.balance_ratio > 2.0

    def test_length_aware_routes_by_band(self):
        requests = [
            Request(req_id=0, seq_len=5, arrival_s=0.0),
            Request(req_id=1, seq_len=500, arrival_s=0.0),
        ]
        metrics = simulate_cluster(
            requests, 4, NaiveBatchScheduler, linear_cost(),
            policy=RoutingPolicy.LENGTH_AWARE, duration_s=1.0,
        )
        # Short and long requests landed on different servers.
        assert metrics.per_server_completed[0] == 1
        assert metrics.per_server_completed[3] == 1


class TestDpInCluster:
    def test_dp_scheduler_composes_with_cluster(self):
        metrics = run(RoutingPolicy.LEAST_WORK, rate=400,
                      scheduler=DPBatchScheduler)
        assert metrics.serving.completed == metrics.serving.offered
        naive = run(RoutingPolicy.LEAST_WORK, rate=400)
        assert metrics.serving.latency.avg_ms <= naive.serving.latency.avg_ms


class Down:
    """Fault-injector stand-in for a replica inside a crash window."""

    @staticmethod
    def crashed(now):
        return True


@dataclass
class StubReplica:
    """The routing view of a replica: load, committed busy horizon, and
    health from its fault injector and breaker."""

    server_id: int
    load: int = 0
    busy_until: float = 0.0
    faults: object = None
    breaker: object = None

    def pending_work_s(self, now):
        return max(0.0, self.busy_until - now)


class TestHealthyRouting:
    """The router must skip dead/breaker-open replicas (ISSUE 2)."""

    def setup_method(self):
        self.servers = [StubReplica(i) for i in range(4)]

    def router(self, policy, max_len=512):
        return Router(self.servers, policy, max_len=max_len)

    def kill(self, *ids):
        for i in ids:
            self.servers[i].faults = Down()

    def request(self, seq_len=100):
        return Request(req_id=0, seq_len=seq_len, arrival_s=0.0)

    def route(self, router):
        return router.route(self.request(), now=0.0).server_id

    def test_least_work_excludes_unhealthy_minimum(self):
        """Pending-work estimates are taken over the healthy set only: the
        idle (least-loaded) server is down, so work goes to the lightest
        *live* one instead."""
        router = self.router(RoutingPolicy.LEAST_WORK)
        self.servers[0].busy_until = 0.0   # idle but dead
        self.servers[1].busy_until = 5.0
        self.servers[2].busy_until = 1.0   # lightest healthy
        self.servers[3].busy_until = 3.0
        assert self.route(router) == 0
        self.kill(0)
        assert self.route(router) == 2

    def test_least_queued_excludes_unhealthy(self):
        router = self.router(RoutingPolicy.LEAST_QUEUED)
        self.servers[1].load = 1
        self.servers[2].load = 3
        self.servers[3].load = 2
        self.kill(0)
        assert self.route(router) == 1

    def test_round_robin_skips_dead_servers(self):
        router = self.router(RoutingPolicy.ROUND_ROBIN)
        self.kill(0, 2)
        assert [self.route(router) for _ in range(4)] == [1, 3, 1, 3]

    def test_length_aware_falls_to_nearest_band(self):
        router = self.router(RoutingPolicy.LENGTH_AWARE)
        long = self.request(seq_len=500)   # band 3
        assert router.route(long, now=0.0).server_id == 3
        self.kill(3)
        assert router.route(long, now=0.0).server_id == 2

    def test_all_dead_falls_back_to_full_set(self):
        """Queueing on a downed server beats dropping on the floor."""
        router = self.router(RoutingPolicy.LEAST_QUEUED)
        self.kill(0, 1, 2, 3)
        assert self.route(router) in range(4)

    def test_healthy_none_unchanged(self):
        """Replicas with fault injectors that are all up route exactly
        like replicas without any."""
        a = Router([StubReplica(i) for i in range(4)],
                   RoutingPolicy.ROUND_ROBIN)
        b = self.router(RoutingPolicy.ROUND_ROBIN)
        for rep in self.servers:
            rep.faults = EngineFaultInjector(FaultPlan(crashes=(
                ServerCrash(start_s=5.0, end_s=6.0, server_id=rep.server_id),
            )), rep.server_id)
        picks_a = [self.route(a) for _ in range(6)]
        picks_b = [self.route(b) for _ in range(6)]
        assert picks_a == picks_b == [0, 1, 2, 3, 0, 1]

    def test_open_breaker_diverts_work(self):
        """End to end: a permanently failing replica's breaker opens and
        the healthy servers absorb (nearly) all completions."""
        from repro.resilience import (
            CircuitBreaker,
            FaultPlan,
            ResilienceConfig,
            RetryPolicy,
            TransientFailures,
        )

        plan = FaultPlan(failures=(
            TransientFailures(start_s=0.0, end_s=10.0, failure_rate=1.0,
                              server_id=1),))
        metrics = simulate_cluster(
            generate_requests(200, 2.0, seed=0), 3, NaiveBatchScheduler,
            linear_cost(), policy=RoutingPolicy.LEAST_WORK, duration_s=2.0,
            resilience=ResilienceConfig(
                faults=plan,
                retry=RetryPolicy(max_attempts=5, budget=500),
                breaker_factory=lambda i: CircuitBreaker(
                    window=10, min_samples=4, cooldown_s=10.0,
                    name=f"server{i}"),
            ),
        )
        assert metrics.serving.resilience.breaker_transitions >= 1
        # Server 1 stops receiving work once its breaker opens.
        assert metrics.per_server_completed[1] == 0
        assert metrics.serving.completed > 0.9 * metrics.serving.offered


class TestBacklogSnapshot:
    def test_horizon_shorter_than_last_arrival(self):
        """The backlog is taken when the clock crosses the horizon, not
        after the last arrival: 50 light requests over [0, 1) s keep up,
        and a burst of 150 at t = 1.5 s lies outside the 1 s horizon.
        Waiting for every arrival used to report 148 of them as backlog."""
        requests = [Request(req_id=i, seq_len=20, arrival_s=0.02 * i)
                    for i in range(50)]
        requests += [Request(req_id=50 + i, seq_len=20, arrival_s=1.5)
                     for i in range(150)]
        metrics = simulate_cluster(requests, 2, DPBatchScheduler,
                                   linear_cost(), duration_s=1.0)
        assert metrics.serving.completed == 200
        assert metrics.serving.backlog_at_end == 0


class TestValidation:
    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            simulate_cluster([], 2, NaiveBatchScheduler, linear_cost())

    def test_bad_server_count_rejected(self):
        with pytest.raises(ValueError):
            Router([], RoutingPolicy.ROUND_ROBIN)
        with pytest.raises(ValueError, match="num_servers"):
            simulate_cluster(generate_requests(100, 1.0, seed=0), 0,
                             NaiveBatchScheduler, linear_cost())


class TestGenerationCluster:
    """Continuous-batching replicas behind the least-loaded router, with
    and without faults."""

    def gen_setup(self):
        from repro.gpusim import RTX_2060
        from repro.memory import KVCacheArena, kv_bytes_per_token
        from repro.models import (build_decode_step_graph,
                                  build_prefill_graph, tiny_gpt)
        from repro.runtime import TURBO_CHARACTERISTICS, GenerationRuntime
        from repro.serving import (generate_generation_requests,
                                   geometric_output_lengths, uniform_lengths)

        config = tiny_gpt()
        bpt = kv_bytes_per_token(config.num_layers, config.num_heads,
                                 config.head_size)
        runtime = GenerationRuntime(build_prefill_graph(config),
                                    build_decode_step_graph(config),
                                    TURBO_CHARACTERISTICS, RTX_2060, stride=1)

        def arena_factory(_replica_id):
            return KVCacheArena(capacity_bytes=4096 * bpt,
                                bytes_per_token=bpt, page_tokens=16)

        def gen_workload(rate, duration, seed=0):
            return generate_generation_requests(
                rate, duration, seed=seed,
                prompt_sampler=lambda rng, n: uniform_lengths(rng, n,
                                                              lo=4, hi=32),
                output_sampler=lambda rng, n: geometric_output_lengths(
                    rng, n, mean=8.0, hi=32),
            )

        return runtime, arena_factory, gen_workload

    def test_fault_free_cluster_completes_and_balances(self):
        from repro.serving import simulate_generation_cluster

        runtime, arenas, gen_workload = self.gen_setup()
        m = simulate_generation_cluster(gen_workload(300.0, 0.5), 2,
                                        runtime, arenas, duration_s=0.5)
        assert m.serving.completed == m.serving.offered
        assert m.kv_leaks == []
        assert all(c > 0 for c in m.per_replica_completed)
        assert m.serving.preemptions == 0
        assert m.serving.tokens_recomputed == 0

    @pytest.mark.parametrize("replicas", [2, 4])
    def test_utilization_is_a_share_of_every_replica(self, replicas):
        """Utilization is busy time over ``horizon * replicas``, as in the
        encoder cluster.  N replicas each serving one copy of a workload
        are as busy as one replica serving it alone (the router spreads
        same-instant arrivals), and N replicas sharing one sparse
        workload are busy 1/N of what one replica is."""
        from repro.serving import GenRequest, simulate_generation_cluster

        runtime, arenas, _ = self.gen_setup()

        def workload(copies):
            return [GenRequest(req_id=i * copies + j, seq_len=16 + i % 3,
                               arrival_s=0.05 * i, max_new_tokens=4)
                    for i in range(10) for j in range(copies)]

        def utilization(requests, n):
            m = simulate_generation_cluster(requests, n, runtime, arenas,
                                            duration_s=0.5)
            assert m.serving.completed == m.serving.offered
            return m.serving.utilization

        alone = utilization(workload(1), 1)
        assert 0.0 < alone < 1.0
        assert utilization(workload(replicas), replicas) == alone
        assert utilization(workload(1), replicas) == \
            pytest.approx(alone / replicas, rel=1e-12)

    def test_replica_crash_fails_over_with_recompute(self):
        """Crash one of two replicas mid-run: its in-flight KV is lost,
        work re-routes to the survivor, prefixes are recomputed, and the
        end-of-run leak audit is clean on every replica."""
        from repro.resilience import (FaultPlan, ResilienceConfig,
                                      RetryPolicy, ServerCrash)
        from repro.serving import simulate_generation_cluster

        runtime, arenas, gen_workload = self.gen_setup()
        res = ResilienceConfig(
            faults=FaultPlan(crashes=(ServerCrash(0.1, 0.3, server_id=0),)),
            retry=RetryPolicy(max_attempts=5, base_backoff_s=0.005,
                              multiplier=2.0, max_backoff_s=0.1,
                              jitter=0.2, budget=1000),
        )
        m = simulate_generation_cluster(gen_workload(900.0, 0.5), 2,
                                        runtime, arenas, duration_s=0.5,
                                        resilience=res)
        assert m.serving.completed >= 0.9 * m.serving.offered
        assert m.serving.preemptions > 0
        assert m.serving.tokens_recomputed > 0
        assert m.kv_leaks == []
        # The survivor carried the outage: it completed more.
        assert m.per_replica_completed[1] > m.per_replica_completed[0]

    def test_deterministic_under_faults(self):
        from repro.resilience import (FaultPlan, LatencySpike,
                                      ResilienceConfig, RetryPolicy,
                                      TransientFailures)
        from repro.serving import simulate_generation_cluster

        runtime, arenas, gen_workload = self.gen_setup()

        def run():
            res = ResilienceConfig(
                faults=FaultPlan(
                    spikes=(LatencySpike(0.1, 0.2, 3.0, server_id=0),),
                    failures=(TransientFailures(0.1, 0.3, 0.3,
                                                server_id=0),),
                ),
                retry=RetryPolicy(max_attempts=4, base_backoff_s=0.005,
                                  multiplier=2.0, max_backoff_s=0.1,
                                  jitter=0.2, budget=500),
            )
            m = simulate_generation_cluster(gen_workload(200.0, 0.4, seed=5),
                                            2, runtime, arenas,
                                            duration_s=0.4, resilience=res)
            return (m.serving, tuple(m.per_replica_completed),
                    tuple(m.kv_leaks))

        assert run() == run()

    def test_replica_features_keep_cluster_token_streams(self):
        """The cluster runs the single server's replica, so chunked
        prefill, prefix caching and KV-pressure preemption come for free —
        and, like on one server, change timing only: token streams and the
        completion set equal the plain cluster's."""
        from repro.bench import gen_run_divergences
        from repro.gpusim import RTX_2060
        from repro.memory import KVCacheArena, kv_bytes_per_token
        from repro.models import tiny_gpt
        from repro.serving import (ContinuousBatchingConfig,
                                   KVPreemptionPolicy,
                                   generate_prefix_population_requests,
                                   geometric_output_lengths,
                                   simulate_generation_cluster)

        runtime, _, _ = self.gen_setup()
        config = tiny_gpt()
        bpt = kv_bytes_per_token(config.num_layers, config.num_heads,
                                 config.head_size)

        def arena_factory(_replica_id):
            return KVCacheArena(capacity_bytes=256 * bpt,
                                bytes_per_token=bpt, page_tokens=16)

        def run(replica_config):
            requests = generate_prefix_population_requests(
                600.0, 0.4, seed=1, sharing_ratio=0.7,
                system_prompt_tokens=32, fewshot_tokens=16,
                output_sampler=lambda rng, n: geometric_output_lengths(
                    rng, n, mean=16.0, hi=48),
            )
            m = simulate_generation_cluster(requests, 2, runtime,
                                            arena_factory, duration_s=0.4,
                                            config=replica_config)
            assert m.kv_leaks == []
            return requests, m.serving, None

        plain = run(None)
        featured = run(ContinuousBatchingConfig(
            chunk_tokens=16, prefix_cache=True,
            preemption=KVPreemptionPolicy(max_victims_per_event=2)))
        assert featured[1].prefill_chunks > 0
        assert featured[1].prefix_hits > 0
        assert featured[1].preemptions > 0
        assert plain[1].completed == plain[1].offered
        assert gen_run_divergences("cluster", plain, featured,
                                   ttft_gate=False) == []

    def test_kv_arena_counter_has_one_track_per_replica(self):
        """Beside other replicas each arena's samples go to a counter
        track named after the replica's GPU track, not one shared
        ``kv_arena`` track where both arenas' series interleave; a lone
        replica keeps ``kv_arena``."""
        from repro.observability import Tracer
        from repro.serving import simulate_generation_cluster

        runtime, arenas, gen_workload = self.gen_setup()

        def kv_samples(replicas):
            tracer = Tracer()
            simulate_generation_cluster(
                gen_workload(600.0, 0.3), replicas, runtime, arenas,
                duration_s=0.3, tracer=tracer)
            counts = {}
            for e in tracer.to_dict()["traceEvents"]:
                if e["ph"] == "C" and "kv_arena" in e["name"]:
                    counts[e["name"]] = counts.get(e["name"], 0) + 1
            return counts

        pair = kv_samples(2)
        assert set(pair) == {"gpu.r0:kv_arena", "gpu.r1:kv_arena"}
        assert all(n > 0 for n in pair.values())
        assert set(kv_samples(1)) == {"kv_arena"}

    @pytest.mark.parametrize("chunk_tokens", [None, 16])
    def test_trace_has_one_gpu_track_per_replica(self, chunk_tokens):
        """Each replica's passes land on its own GPU track, and within a
        track spans never overlap (one GPU runs one pass at a time)."""
        from collections import defaultdict

        from repro.observability import Tracer
        from repro.serving import (ContinuousBatchingConfig,
                                   simulate_generation_cluster)

        runtime, arenas, gen_workload = self.gen_setup()
        tracer = Tracer()
        simulate_generation_cluster(
            gen_workload(600.0, 0.3), 2, runtime, arenas, duration_s=0.3,
            config=ContinuousBatchingConfig(chunk_tokens=chunk_tokens),
            tracer=tracer)
        events = tracer.to_dict()["traceEvents"]
        spans = defaultdict(list)
        for e in events:
            if e["ph"] == "X" and str(e["tid"]).startswith("gpu"):
                spans[e["tid"]].append((e["ts"], e["ts"] + e["dur"]))
        assert {"gpu.r0", "gpu.r1"} <= set(spans)
        assert "gpu" not in spans
        named = {e["tid"] for e in events if e["name"] == "thread_name"}
        assert set(spans) <= named
        for tid, boxes in spans.items():
            boxes.sort()
            for (_, end), (start, _) in zip(boxes, boxes[1:]):
                assert start >= end - 1e-6, f"overlap on {tid}"
