"""Extension: deadline-based load shedding at the paper's +inf points.

Table 4 marks saturated systems "+inf" — unbounded queueing delay.  With a
deadline-based shedder in front, the same overload yields bounded latency
for the requests actually served, at a goodput near the system's capacity:
the graceful-degradation behaviour a deployed front-end needs.
"""

from repro.experiments.tables import format_table
from repro.resilience import ResilienceConfig
from repro.resilience.chaos import replace_deadline
from repro.serving import (
    DPBatchScheduler,
    RequestState,
    ServingConfig,
    generate_requests,
    simulate_serving,
)


def test_extension_shedding(benchmark, serving_bench):
    cost_fn = serving_bench.system("Turbo-DP-Batch").cost_fn
    overload_rate = 300  # ~3x the DP system's capacity

    def run():
        unshed = simulate_serving(
            generate_requests(overload_rate, 8.0, seed=15),
            DPBatchScheduler(), cost_fn,
            ServingConfig(max_batch=20), duration_s=8.0,
            system_name="no shedding",
        )
        # Shedding: per-request deadlines; expired requests resolve
        # TIMED_OUT at admission/dispatch and count as dropped.
        requests = [replace_deadline(r, 0.25)
                    for r in generate_requests(overload_rate, 8.0, seed=15)]
        shed = simulate_serving(
            requests, DPBatchScheduler(), cost_fn,
            ServingConfig(max_batch=20), duration_s=8.0,
            system_name="deadline 250ms", resilience=ResilienceConfig(),
        )
        dropped = sum(1 for r in requests
                      if r.state is RequestState.TIMED_OUT)
        return unshed, shed, dropped

    unshed, shed, dropped = benchmark.pedantic(run, rounds=1, iterations=1,
                                               warmup_rounds=0)
    drop_rate = dropped / max(1, shed.offered)
    print(f"\n[Extension] load shedding at {overload_rate} req/s overload\n"
          + format_table(
              ["front-end", "goodput (resp/s)", "avg ms", "p99 ms", "dropped"],
              [
                  ["queue everything", f"{unshed.response_throughput:.0f}",
                   f"{unshed.latency.avg_ms:.0f}", f"{unshed.latency.p99_ms:.0f}",
                   "0"],
                  ["shed past deadline", f"{shed.response_throughput:.0f}",
                   f"{shed.latency.avg_ms:.0f}",
                   f"{shed.latency.p99_ms:.0f}",
                   f"{dropped} ({drop_rate:.0%})"],
              ],
          ))
    # Shedding keeps served latency bounded near the deadline...
    assert shed.latency.p99_ms < 400
    # ...where the unshedded queue diverges by seconds...
    assert unshed.latency.p99_ms > 5 * shed.latency.p99_ms
    # ...while goodput stays close to the unshedded service rate.
    assert shed.response_throughput > 0.7 * unshed.response_throughput
