"""Resilience threaded through the serving simulators.

Covers the ISSUE 2 acceptance criteria: an empty resilience config is
byte-identical to ``resilience=None`` for pre-existing simulations, the
retry budget bounds retry storms, deadlines drop expired work, and the
degradation ladder trades quality for stability under stress.
"""

import pytest

from repro.resilience import (
    DegradationController,
    DegradationLadder,
    DegradationRung,
    FaultPlan,
    ResilienceConfig,
    RetryPolicy,
    ServerCrash,
    TransientFailures,
)
from repro.serving import (
    DPBatchScheduler,
    NaiveBatchScheduler,
    Request,
    RequestState,
    RoutingPolicy,
    ServingConfig,
    generate_requests,
    simulate_cluster,
    simulate_serving,
)


def cost(seq_len, batch):
    return 0.002 + 0.00005 * seq_len * batch


def cheap_cost(seq_len, batch):
    return 0.001 + 0.00001 * seq_len * batch


def workload(rate=100, duration=2.0, seed=0, deadline_s=None):
    requests = generate_requests(rate, duration, seed=seed)
    if deadline_s is None:
        return requests
    return [Request(req_id=r.req_id, seq_len=r.seq_len,
                    arrival_s=r.arrival_s, deadline_s=deadline_s)
            for r in requests]


class TestZeroOverheadWhenDisabled:
    """resilience=None and an all-defaults config produce identical metrics."""

    def test_single_server_identical(self):
        plain = simulate_serving(workload(), DPBatchScheduler(), cost,
                                 duration_s=2.0)
        empty = simulate_serving(workload(), DPBatchScheduler(), cost,
                                 duration_s=2.0, resilience=ResilienceConfig())
        assert empty.resilience is not None  # the only permitted difference
        assert plain == type(plain)(
            **{**empty.__dict__, "resilience": None}
        )

    @pytest.mark.parametrize("policy", list(RoutingPolicy))
    def test_cluster_identical(self, policy):
        plain = simulate_cluster(workload(), 3, NaiveBatchScheduler, cost,
                                 policy=policy, duration_s=2.0)
        empty = simulate_cluster(workload(), 3, NaiveBatchScheduler, cost,
                                 policy=policy, duration_s=2.0,
                                 resilience=ResilienceConfig())
        assert plain.per_server_completed == empty.per_server_completed
        assert plain.serving == type(plain.serving)(
            **{**empty.serving.__dict__, "resilience": None}
        )

    def test_empty_fault_plan_queries_cost_nothing(self):
        # All query methods of the empty plan answer with the identity, so
        # threading it through is behaviour-preserving by construction.
        config = ResilienceConfig()
        assert config.faults.empty
        assert config.retry is None
        assert config.breaker_factory is None
        assert config.degradation is None
        assert config.queue_capacity is None


class TestDeadlines:
    def test_patient_requests_never_time_out(self):
        result = simulate_serving(
            workload(), DPBatchScheduler(), cost, duration_s=2.0,
            resilience=ResilienceConfig(),
        )
        assert result.resilience.timed_out == 0
        assert result.completed == result.offered

    def test_overload_times_out_stale_requests(self):
        requests = workload(rate=600, duration=2.0, deadline_s=0.2)
        result = simulate_serving(
            requests, NaiveBatchScheduler(), cost,
            ServingConfig(max_batch=8), duration_s=2.0,
            resilience=ResilienceConfig(),
        )
        assert result.resilience.timed_out > 0
        assert result.completed + result.resilience.dropped == result.offered
        timed_out = [r for r in requests
                     if r.state is RequestState.TIMED_OUT]
        assert all(not r.is_completed for r in timed_out)

    def test_deadline_bounds_served_latency(self):
        requests = workload(rate=600, duration=2.0, deadline_s=0.2)
        result = simulate_serving(
            requests, NaiveBatchScheduler(), cost,
            ServingConfig(max_batch=8), duration_s=2.0,
            resilience=ResilienceConfig(),
        )
        # Admission happens at round start; one round of slack on top of
        # the deadline is the worst case for an admitted request.
        assert result.latency.max_ms < 3 * 200


class TestRetryBudget:
    """Regression: a permanently failing replica cannot retry-storm."""

    def always_failing(self):
        return FaultPlan(failures=(
            TransientFailures(start_s=0.0, end_s=100.0, failure_rate=1.0),))

    def test_budget_caps_reenqueues_single_server(self):
        budget = 25
        result = simulate_serving(
            workload(rate=50, duration=1.0), DPBatchScheduler(), cost,
            duration_s=1.0,
            resilience=ResilienceConfig(
                faults=self.always_failing(),
                retry=RetryPolicy(max_attempts=100, budget=budget),
            ),
        )
        assert result.resilience.retries == budget
        assert result.completed == 0
        assert result.resilience.failed == result.offered

    def test_executed_attempts_bounded_by_offered_plus_budget(self):
        budget = 10
        result = simulate_serving(
            workload(rate=50, duration=1.0), DPBatchScheduler(), cost,
            duration_s=1.0, config=ServingConfig(max_batch=1),
            resilience=ResilienceConfig(
                faults=self.always_failing(),
                retry=RetryPolicy(max_attempts=100, budget=budget),
            ),
        )
        assert result.batches_executed <= result.offered + budget

    def test_max_attempts_bounds_without_budget(self):
        result = simulate_serving(
            workload(rate=50, duration=1.0), DPBatchScheduler(), cost,
            duration_s=1.0,
            resilience=ResilienceConfig(
                faults=self.always_failing(),
                retry=RetryPolicy(max_attempts=3),
            ),
        )
        # Every request gets exactly max_attempts - 1 retries.
        assert result.resilience.retries == 2 * result.offered
        assert result.resilience.failed == result.offered

    def test_transient_window_recovers_after_retries(self):
        plan = FaultPlan(failures=(
            TransientFailures(start_s=0.2, end_s=0.4, failure_rate=0.5),))
        result = simulate_serving(
            workload(rate=100, duration=2.0), DPBatchScheduler(), cost,
            duration_s=2.0,
            resilience=ResilienceConfig(
                faults=plan, retry=RetryPolicy(max_attempts=6),
            ),
        )
        assert result.resilience.retries > 0
        assert result.completed == result.offered  # everyone lands eventually


class TestClusterResilience:
    def test_crash_window_work_is_rerouted(self):
        plan = FaultPlan(crashes=(ServerCrash(start_s=0.5, end_s=1.0,
                                              server_id=0),))
        result = simulate_cluster(
            workload(rate=200, duration=2.0), 3, NaiveBatchScheduler, cost,
            policy=RoutingPolicy.LEAST_WORK, duration_s=2.0,
            resilience=ResilienceConfig(
                faults=plan, retry=RetryPolicy(max_attempts=5, budget=500),
            ),
        )
        assert result.serving.completed == result.serving.offered
        assert result.serving.resilience.failed == 0

    def test_cluster_deterministic_under_faults(self):
        def run():
            plan = FaultPlan(
                crashes=(ServerCrash(start_s=0.5, end_s=1.0, server_id=1),),
                failures=(TransientFailures(start_s=0.2, end_s=1.5,
                                            failure_rate=0.3, server_id=0),),
            )
            return simulate_cluster(
                workload(rate=150, duration=2.0), 3, NaiveBatchScheduler,
                cost, duration_s=2.0,
                resilience=ResilienceConfig(
                    faults=plan, retry=RetryPolicy(max_attempts=4, budget=200),
                ),
            )

        a, b = run(), run()
        assert a.serving == b.serving
        assert a.per_server_completed == b.per_server_completed


class TestQueueCapacity:
    def test_full_queue_sheds(self):
        result = simulate_serving(
            workload(rate=800, duration=1.0), NaiveBatchScheduler(), cost,
            ServingConfig(max_batch=4), duration_s=1.0,
            resilience=ResilienceConfig(queue_capacity=10),
        )
        assert result.resilience.rejected > 0
        assert result.resilience.shed == result.resilience.rejected
        assert result.completed + result.resilience.dropped == result.offered

    def test_cluster_replicas_shed_at_capacity(self):
        """Each replica's queue is bounded in a cluster run too."""
        from repro.observability import MetricsRegistry

        registry = MetricsRegistry()
        result = simulate_cluster(
            workload(rate=1500, duration=1.0), 2, NaiveBatchScheduler, cost,
            max_batch=4, duration_s=1.0,
            resilience=ResilienceConfig(queue_capacity=10), metrics=registry,
        ).serving
        assert result.resilience.rejected > 0
        assert result.resilience.shed == result.resilience.rejected
        assert result.completed + result.resilience.dropped == result.offered
        shed = [c["value"] for c in registry.to_dict()["counters"]
                if c["name"] == "serving_requests_dropped_total"
                and c["labels"] == {"reason": "shed"}]
        assert shed == [result.resilience.shed]


class TestDegradation:
    def ladder(self):
        return DegradationLadder([
            DegradationRung(label="full", cost_fn=cost),
            DegradationRung(label="distilled", cost_fn=cheap_cost,
                            shed_age_s=1.0),
        ])

    def test_controller_hysteresis(self):
        ctl = DegradationController(self.ladder(), depth_threshold=10)
        ctl.on_round(queue_depth=11, breaker_open=False, now_s=1.0)
        assert ctl.level == 1
        # Between half and full threshold: hold (no flapping).
        ctl.on_round(queue_depth=8, breaker_open=False, now_s=2.0)
        assert ctl.level == 1
        ctl.on_round(queue_depth=5, breaker_open=False, now_s=3.0)
        assert ctl.level == 0
        assert [(frm, to) for (_, frm, to) in ctl.switches] == [(0, 1), (1, 0)]

    @pytest.mark.parametrize("age", [0.0, -1.0, float("nan")])
    def test_rung_rejects_a_shed_age_that_is_not_positive(self, age):
        with pytest.raises(ValueError, match="shed_age_s"):
            DegradationRung(label="shed", cost_fn=cost, shed_age_s=age)

    def test_infinite_shed_age_sheds_nothing(self):
        def run(shed_age_s):
            return simulate_serving(
                workload(rate=700, duration=1.0), NaiveBatchScheduler(),
                cost, ServingConfig(max_batch=8), duration_s=1.0,
                resilience=ResilienceConfig(degradation=DegradationController(
                    DegradationLadder([
                        DegradationRung(label="full", cost_fn=cost),
                        DegradationRung(label="shed", cost_fn=cheap_cost,
                                        shed_age_s=shed_age_s)]),
                    depth_threshold=20)))

        never, off = run(float("inf")), run(None)
        assert never.resilience.degradation_switches > 0
        assert never.resilience.shed == 0
        assert never == off

    def test_breaker_open_escalates(self):
        ctl = DegradationController(self.ladder(), depth_threshold=1000)
        ctl.on_round(queue_depth=0, breaker_open=True, now_s=1.0)
        assert ctl.level == 1
        assert ctl.cost_fn is cheap_cost
        assert ctl.shed_age_s == 1.0

    def test_degradation_raises_overload_throughput(self):
        def run(degradation):
            return simulate_serving(
                workload(rate=700, duration=2.0), NaiveBatchScheduler(),
                cost, ServingConfig(max_batch=8), duration_s=2.0,
                resilience=ResilienceConfig(degradation=degradation),
            )

        full = run(None)
        degraded = run(DegradationController(self.ladder(),
                                             depth_threshold=20))
        assert degraded.resilience.degradation_switches > 0
        assert degraded.response_throughput > full.response_throughput

    def test_cluster_refuses_one_ladder_for_many_servers(self):
        """One controller cannot be stepped by N replicas' rounds."""
        def run(servers):
            return simulate_cluster(
                workload(rate=300, duration=1.0), servers,
                NaiveBatchScheduler, cost, duration_s=1.0,
                resilience=ResilienceConfig(degradation=DegradationController(
                    self.ladder(), depth_threshold=20)))

        with pytest.raises(ValueError, match="degradation ladder"):
            run(2)
        assert run(1).serving.completed > 0

    def test_service_ladder_from_registry(self):
        from repro.serving import InferenceService, ModelRegistry, ModelVersion

        registry = ModelRegistry()
        registry.register(ModelVersion(name="bert", version=1,
                                       cost_fn=cheap_cost))
        registry.register(ModelVersion(name="bert", version=2, cost_fn=cost))
        registry.serve_version("bert", 2)
        service = InferenceService(registry, "bert")
        ladder = service.degradation_ladder(shed_age_s=0.5)
        assert len(ladder) == 2
        # Serving version first, then older versions as fallbacks.
        assert [r.label for r in ladder.rungs] == ["bert@v2", "bert@v1"]
        assert ladder.rungs[0].shed_age_s is None
        assert ladder.rungs[-1].shed_age_s == 0.5
