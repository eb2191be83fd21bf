"""Chaos harness: determinism, recovery assertion, CLI wiring."""

import json

import pytest

from repro.observability import MetricsRegistry, Tracer
from repro.resilience import SCENARIOS, format_report, run_chaos


class TestSmokeScenario:
    @pytest.fixture(scope="class")
    def report(self):
        return run_chaos("smoke", seed=0)

    def test_recovers_to_baseline(self, report):
        assert report.recovered
        assert report.recovery_ratio >= 0.95

    def test_breaker_transitions_visible(self, report):
        assert report.breaker_transitions
        states = {to for (_, _, _, to) in report.breaker_transitions}
        assert "open" in states

    def test_faults_actually_bite(self, report):
        assert report.chaos.resilience.retries > 0

    def test_accounting_reconciles(self, report):
        s = report.chaos
        assert s.completed + s.resilience.dropped == s.offered

    def test_metrics_exported(self, report):
        exported = report.registry.to_dict()
        gauges = {g["name"] for g in exported["gauges"]}
        assert "chaos_recovery_ratio" in gauges
        assert "chaos_goodput_baseline" in gauges
        counters = {c["name"] for c in exported["counters"]}
        assert "serving_retries_total" in counters


class TestDeterminism:
    @pytest.mark.parametrize("name", ["smoke", "gen-storm"])
    def test_two_runs_byte_identical(self, name, tmp_path):
        paths = []
        for run in ("a", "b"):
            registry = MetricsRegistry()
            run_chaos(name, seed=0, metrics=registry)
            path = tmp_path / f"chaos_{run}.json"
            registry.save(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_changes_the_run(self, tmp_path):
        outputs = []
        for seed in (0, 1):
            registry = MetricsRegistry()
            run_chaos("smoke", seed=seed, metrics=registry)
            outputs.append(registry.to_json())
        assert outputs[0] != outputs[1]

    def test_report_fields_reproducible(self):
        a = run_chaos("storm", seed=0)
        b = run_chaos("storm", seed=0)
        assert a.breaker_transitions == b.breaker_transitions
        assert a.goodput_chaos == b.goodput_chaos
        assert a.chaos == b.chaos


class TestScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_all_scenarios_recover(self, name):
        report = run_chaos(name, seed=0)
        assert report.recovered, format_report(report)
        assert report.leak_free

    def test_storm_respects_retry_budget(self):
        report = run_chaos("storm", seed=0)
        scenario = report.scenario
        assert report.chaos.resilience.retries <= scenario.retry.budget

    @pytest.mark.parametrize("name", ["nope", "gen-nope"])
    def test_unknown_scenario_rejected(self, name):
        with pytest.raises(ValueError):
            run_chaos(name, seed=0)

    def test_tracer_gets_breaker_instants(self):
        tracer = Tracer()
        report = run_chaos("smoke", seed=0, tracer=tracer)
        events = tracer.to_dict()["traceEvents"]
        instants = [e for e in events if e.get("name") == "breaker_transition"]
        assert len(instants) == len(report.breaker_transitions)


class TestCli:
    def test_chaos_command_runs_and_writes_metrics(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "metrics.json"
        code = main(["chaos", "--scenario", "smoke", "--seed", "0",
                     "--metrics-out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "recovery:  OK" in printed
        exported = json.loads(out.read_text())
        assert any(g["name"] == "chaos_recovery_ratio"
                   for g in exported["gauges"])

    def test_chaos_command_skips_metrics_when_blank(self, capsys):
        from repro.__main__ import main

        assert main(["chaos", "--scenario", "smoke", "--metrics-out", ""]) == 0
        assert "metrics:" not in capsys.readouterr().out


class TestGenScenarios:
    """Generation chaos: replica blackout and a preemption storm."""

    @pytest.fixture(scope="class")
    def blackout(self):
        return run_chaos("gen-blackout", seed=0)

    @pytest.fixture(scope="class")
    def storm(self):
        return run_chaos("gen-storm", seed=0)

    def test_blackout_recovers_leak_free(self, blackout):
        assert blackout.recovered, format_report(blackout)
        assert blackout.leak_free
        # The crash actually bit: KV was lost and recomputed elsewhere.
        assert blackout.chaos.preemptions > 0
        assert blackout.chaos.tokens_recomputed > 0

    def test_storm_preempts_and_recovers(self, storm):
        assert storm.recovered, format_report(storm)
        assert storm.leak_free
        # The storm drives KV pressure: many preemptions, honest recompute.
        assert storm.chaos.preemptions > 10
        assert storm.chaos.tokens_recomputed > storm.chaos.preemptions
        assert storm.chaos.attempts_failed > 0

    def test_baseline_is_fault_free(self, blackout):
        assert blackout.baseline.preemptions == 0
        assert blackout.baseline.tokens_recomputed == 0
        assert blackout.baseline.retries == 0

    def test_gen_metrics_exported(self, blackout):
        exported = blackout.registry.to_dict()
        gauges = {g["name"] for g in exported["gauges"]}
        assert "chaos_recovery_ratio" in gauges
        counters = {c["name"] for c in exported["counters"]}
        assert "gen_preemptions_total" in counters
        assert "chaos_tokens_recomputed_total" in counters
        assert "chaos_kv_leaks" in gauges


class TestGenCli:
    def test_gen_scenario_dispatches_and_writes_metrics(self, tmp_path,
                                                        capsys):
        from repro.__main__ import main

        out = tmp_path / "gen_metrics.json"
        code = main(["chaos", "--scenario", "gen-blackout", "--seed", "0",
                     "--metrics-out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "recovery:  OK" in printed
        assert "leak audit: clean" in printed
        exported = json.loads(out.read_text())
        assert any(c["name"] == "gen_preemptions_total"
                   for c in exported["counters"])


def test_registry_names_agree_everywhere():
    """The CLI, the sanitizer and both golden sets read the one registry."""
    import argparse
    from pathlib import Path

    from repro.__main__ import build_parser
    from repro.analysis.sanitizer import sanitize_scenarios

    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    scenario = next(a for a in commands.choices["chaos"]._actions
                    if a.dest == "scenario")
    assert list(scenario.choices) == sorted(SCENARIOS)
    assert set(SCENARIOS) <= set(sanitize_scenarios())
    tests = Path(__file__).parents[1]
    for name in SCENARIOS:
        assert (tests / "resilience" / "golden_chaos" / f"{name}.json").is_file()
        assert (tests / "analysis" / "golden_sanitize" / f"{name}.json").is_file()
