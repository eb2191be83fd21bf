"""``repro bench``: determinism, diff gate, verify mode, CLI exit codes."""

import copy
import json

import pytest

from repro import bench
from repro.__main__ import main


@pytest.fixture(scope="module", autouse=True)
def micro_profile():
    """Register a tiny profile so the suite stays fast; the committed
    BENCH_host.json is produced by the ``full`` profile."""
    bench.PROFILES["micro"] = {
        "grid_max_batch": 2,
        "grid_length_step": 64,
        "grid_max_length": 128,
        "plan_shapes": 4,
        "plan_passes": 2,
        "sched_rounds": 6,
        "sched_queue": 10,
        "sched_max_batch": 4,
        "fig12_rates": (60.0,),
        "fig12_duration_s": 0.25,
        "fig12_max_len": 64,
        "fig12_max_batch": 4,
        "fig12_model": "tiny",
    }
    bench.PROFILES["micro-gen"] = {
        "gen_rates": (200.0, 1200.0),
        "gen_duration_s": 0.4,
        "gen_model": "tiny",
        "gen_mix_mean": 12.0,
        "gen_mix_max": 64,
        "gen_capacity_tokens": 4096,
        "gen_max_batch": 8,
        "gen_chunk_tokens": 512,
    }
    yield
    bench.PROFILES.pop("micro", None)
    bench.PROFILES.pop("micro-gen", None)


@pytest.fixture(scope="module")
def payload():
    return bench.run_bench("micro", seed=5)


class TestDeterminism:
    def test_two_runs_identical_counters(self, payload):
        again = bench.run_bench("micro", seed=5)
        assert bench.diff_bench(payload, again) == []

    def test_equivalence_flags_all_true(self, payload):
        assert payload["equivalence_ok"]
        counters = payload["counters"]
        assert counters["grid"]["identical_tables"]
        assert counters["plans"]["identical_outcomes"]
        assert counters["scheduler"]["identical_partitions"]
        assert counters["fig12"]["identical_serving"]

    def test_wallclock_sections_present_but_not_diffed(self, payload):
        assert "wallclock" in payload
        mutated = copy.deepcopy(payload)
        mutated["wallclock"]["grid"]["fast_s"] = 1e9
        assert bench.diff_bench(payload, mutated) == []

    def test_diff_detects_counter_change(self, payload):
        mutated = copy.deepcopy(payload)
        mutated["counters"]["grid"]["cells"] += 1
        problems = bench.diff_bench(payload, mutated)
        assert problems
        assert any("cells" in p for p in problems)

    def test_seed_changes_payload(self, payload):
        other = bench.run_bench("micro", seed=6)
        assert bench.diff_bench(payload, other) != []


class TestPersistence:
    def test_save_load_roundtrip(self, payload, tmp_path):
        path = tmp_path / "bench.json"
        bench.save_bench(payload, path)
        loaded = bench.load_bench(path)
        assert bench.diff_bench(payload, loaded) == []
        assert json.loads(path.read_text())["schema"] == bench.BENCH_SCHEMA

    def test_format_bench_mentions_sections(self, payload):
        text = bench.format_bench(payload)
        for word in ("grid", "plans", "scheduler", "fig12", "equivalence"):
            assert word in text

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            bench.run_bench("no-such-profile")


class TestCli:
    def test_diff_identical_files_exit_zero(self, payload, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        bench.save_bench(payload, a)
        bench.save_bench(payload, b)
        assert main(["bench", "--diff", str(a), str(b)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_divergent_files_exit_one(self, payload, tmp_path, capsys):
        mutated = copy.deepcopy(payload)
        mutated["counters"]["grid"]["table_digest"] = "0" * 16
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        bench.save_bench(payload, a)
        bench.save_bench(mutated, b)
        assert main(["bench", "--diff", str(a), str(b)]) == 1
        assert "differ" in capsys.readouterr().err

    def test_run_writes_out_file(self, tmp_path, capsys):
        out = tmp_path / "BENCH_host.json"
        assert main(["bench", "--profile", "micro", "--seed", "5",
                     "--out", str(out)]) == 0
        assert out.exists()
        saved = bench.load_bench(out)
        assert saved["profile"] == "micro"
        assert "wrote" in capsys.readouterr().out


class TestGenProfile:
    @pytest.fixture(scope="class")
    def gen_payload(self):
        return bench.run_bench("micro-gen", seed=0)

    def test_two_runs_identical_counters(self, gen_payload):
        again = bench.run_bench("micro-gen", seed=0)
        assert bench.diff_bench(gen_payload, again) == []

    def test_schema_and_sections(self, gen_payload):
        assert gen_payload["schema"] == bench.BENCH_GEN_SCHEMA
        assert set(gen_payload["counters"]) == {"gen"}
        gen = gen_payload["counters"]["gen"]
        assert gen["identical_reruns"]
        assert gen_payload["equivalence_ok"]
        # Both systems simulated at every rate.
        for system in ("request_level", "continuous"):
            assert set(gen[system]) == {"200.0", "1200.0"}

    def test_continuous_wins_at_top_rate(self, gen_payload):
        gen = gen_payload["counters"]["gen"]
        assert gen["throughput_gain_at_top_rate"] > 1.0
        top_cont = gen["continuous"]["1200.0"]
        top_rl = gen["request_level"]["1200.0"]
        assert top_cont["ttft_avg_ms"] < top_rl["ttft_avg_ms"]

    def test_format_bench_renders_gen(self, gen_payload):
        text = bench.format_bench(gen_payload)
        assert "gen" in text
        assert "throughput" in text

    def test_chunked_sweep_in_payload(self, gen_payload):
        gen = gen_payload["counters"]["gen"]
        assert set(gen["continuous_chunked"]) == {"200.0", "1200.0"}
        assert gen["identical_token_streams"]
        for rate, point in gen["continuous_chunked"].items():
            assert point["completed"] == gen["continuous"][rate]["completed"]
            assert point["prefill_chunks"] > 0

    def test_verify_gen_gate_passes(self):
        assert bench.verify_gen_equivalence("micro-gen", seed=0) == []

    def test_verify_checks_generation_and_decoder_graphs(self):
        lines = []
        assert bench.verify_host_fast_path(seed=0,
                                           progress=lines.append) == []
        counts = {}
        for line in lines:
            tag, _, rest = line.removeprefix("verify: ").partition(": ")
            counts[tag] = int(rest.split()[0])
        assert set(counts) == {
            f"{kind}-{chars} {graph}"
            for chars in ("turbo", "pytorch")
            for kind, graph in (("gen", "prefill"), ("gen", "decode"),
                                ("decoder", "step"))
        }
        assert all(n > 0 for n in counts.values())

    def test_plan_layout_divergences_name_the_tensor_and_chunks(self):
        want = [({"a": (0, 0), "b": (0, 64)}, [(0, 128)])]
        assert bench.plan_layout_divergences(want, want) == []
        got = [({"a": (0, 0), "b": (1, 0)}, [(0, 128), (1, 64)])]
        assert bench.plan_layout_divergences(want, got) == [
            "allocator: plan 0: 1 tensor(s) placed differently, first 'b' "
            "at (1, 0) != (0, 64)",
            "allocator: plan 0: chunks [(0, 128), (1, 64)] != [(0, 128)]",
        ]
        assert bench.plan_layout_divergences(want, []) == [
            "allocator: 0 plan(s) != 1"]

    def test_verify_rejects_an_empty_shape_set(self):
        from repro.runtime import turbo_runtime

        rt = turbo_runtime()
        problems = bench._verify_compiled(
            "empty", rt.compiled_model(), rt.graph.nodes, [], rt.chars,
            rt.device, lambda _msg: None)
        assert problems == ["empty: no priced shapes to check"]

    def test_verify_gen_rejects_hostless_profile(self):
        with pytest.raises(ValueError):
            bench.verify_gen_equivalence("smoke")


class TestDiffDeltas:
    def test_numeric_mismatch_reports_relative_delta(self, payload):
        mutated = copy.deepcopy(payload)
        mutated["counters"]["grid"]["cells"] = \
            payload["counters"]["grid"]["cells"] * 2
        problems = bench.diff_bench(payload, mutated)
        [problem] = [p for p in problems if "cells" in p]
        assert "rel delta 5.000e-01" in problem
        assert "tol 0.000e+00" in problem
        assert "recorded" in problem and "observed" in problem

    def test_all_mismatches_reported_not_just_first(self, payload):
        mutated = copy.deepcopy(payload)
        mutated["counters"]["grid"]["cells"] += 1
        mutated["counters"]["scheduler"]["batches"] += 1
        mutated["counters"]["plans"]["plans"] += 1
        problems = bench.diff_bench(payload, mutated)
        assert len(problems) >= 3

    def test_tolerance_accepts_small_drift(self, payload):
        mutated = copy.deepcopy(payload)
        cells = payload["counters"]["grid"]["cells"]
        mutated["counters"]["grid"]["cells"] = cells * 1.0001
        assert bench.diff_bench(payload, mutated) != []
        assert bench.diff_bench(payload, mutated, rel_tol=1e-3) == []

    def test_cli_diff_tol_flag(self, payload, tmp_path):
        mutated = copy.deepcopy(payload)
        mutated["counters"]["grid"]["cells"] = \
            payload["counters"]["grid"]["cells"] * 1.0001
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        bench.save_bench(payload, a)
        bench.save_bench(mutated, b)
        assert main(["bench", "--diff", str(a), str(b)]) == 1
        assert main(["bench", "--diff", str(a), str(b),
                     "--diff-tol", "1e-3"]) == 0

    def test_negative_tolerance_rejected(self, payload):
        with pytest.raises(ValueError):
            bench.diff_bench(payload, payload, rel_tol=-1.0)

    def test_bool_is_not_numeric(self, payload):
        mutated = copy.deepcopy(payload)
        mutated["counters"]["grid"]["identical_tables"] = False
        problems = bench.diff_bench(payload, mutated, rel_tol=10.0)
        assert any("identical_tables" in p for p in problems)
