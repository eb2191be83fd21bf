"""Fig. 12 sweep: the DP scheduler's cost rows survive across points."""

from repro.experiments.fig12_serving_throughput import ServingBench


def test_repeated_point_prices_no_cost_row_again():
    bench = ServingBench()
    system = bench.system("Turbo-DP-Batch")
    assert system.cost_fn is system.cost_fn
    first = bench.run_point(system, 20)
    priced = system.scheduler.stats()["cost_calls"]
    assert priced > 0
    # A new bound method per point would reset the row memo and re-price
    # every row the first point priced.
    assert bench.run_point(system, 20) == first
    assert system.scheduler.stats()["cost_calls"] == priced
