"""Warm-up cost table (Alg. 3's cached_cost)."""

import json
import math

import pytest

from repro.models import build_encoder_graph, tiny_bert
from repro.runtime import CostTable, turbo_runtime, warmup_profile


@pytest.fixture(scope="module")
def table():
    runtime = turbo_runtime(graph=build_encoder_graph(tiny_bert()))
    return warmup_profile(runtime, max_batch=4, lengths=[16, 32, 64, 128])


class TestCostTable:
    def test_bucket_rounds_up(self, table):
        assert table.bucket(1) == 16
        assert table.bucket(16) == 16
        assert table.bucket(17) == 32
        assert table.bucket(100) == 128

    def test_bucket_clamps_to_max(self, table):
        assert table.bucket(1000) == 128

    def test_bucket_matches_linear_scan_exhaustively(self, table):
        """Regression for the bisect rewrite: identical to the seed's
        linear scan (smallest profiled length >= seq_len, clamp to max)
        over every length up to past the clamp point, memo included."""
        for seq_len in range(1, 200):
            reference = next((l for l in table.lengths if l >= seq_len),
                             table.lengths[-1])
            assert table.bucket(seq_len) == reference  # memo miss
            assert table.bucket(seq_len) == reference  # memo hit

    def test_bucket_rejects_nonpositive(self, table):
        with pytest.raises(ValueError):
            table.bucket(0)

    def test_cost_monotone_in_length(self, table):
        assert table.cost(128, 1) > table.cost(16, 1)

    def test_cost_monotone_in_batch(self, table):
        assert table.cost(64, 4) > table.cost(64, 1)

    def test_per_request_cost_falls_with_batch(self, table):
        assert table.cost(64, 4) / 4 < table.cost(64, 1)

    def test_batch_out_of_range(self, table):
        with pytest.raises(ValueError):
            table.cost(64, 5)
        with pytest.raises(ValueError):
            table.cost(64, 0)

    def test_missing_entry_raises(self):
        empty = CostTable([16], max_batch=2)
        with pytest.raises(KeyError, match="warm-up"):
            empty.cost(16, 1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CostTable([], max_batch=2)
        with pytest.raises(ValueError):
            CostTable([16], max_batch=0)
        with pytest.raises(ValueError):
            CostTable([0, 16], max_batch=2)

    def test_set_rejects_nonpositive_cost(self, table):
        with pytest.raises(ValueError):
            table.set(16, 1, 0.0)

    @pytest.mark.parametrize("seconds", [math.nan, math.inf])
    def test_set_rejects_non_finite_cost(self, seconds):
        table = CostTable([16, 32], max_batch=2)
        with pytest.raises(ValueError, match=r"cell \(16, 1\)"):
            table.set(16, 1, seconds)
        with pytest.raises(KeyError, match="warm-up"):
            table.cost(16, 1)

    def test_set_rejects_length_off_the_grid(self):
        table = CostTable([16, 32], max_batch=2)
        with pytest.raises(ValueError, match=r"grid \[16, 32\]"):
            table.set(20, 1, 0.5)
        with pytest.raises(KeyError, match="warm-up"):
            table.cost(32, 1)  # the rejected cell left no row behind

    @pytest.mark.parametrize("batch", [0, 3])
    def test_set_rejects_batch_outside_range(self, batch):
        table = CostTable([16, 32], max_batch=2)
        with pytest.raises(ValueError, match=r"\[1, 2\]"):
            table.set(16, batch, 0.5)


class TestCostRowMemo:
    """``cost`` memoises ``seq_len -> bucket row``; a call must still price
    exactly the bucket entry and keep every check."""

    def test_memoised_cost_is_the_bucket_entry(self, table):
        for seq_len in range(1, 200):
            for batch in range(1, table.max_batch + 1):
                want = table.cost(table.bucket(seq_len), batch)
                assert table.cost(seq_len, batch) == want  # memo miss
                assert table.cost(seq_len, batch) == want  # memo hit

    def test_set_after_memo_is_seen(self):
        table = CostTable([16, 32], max_batch=2)
        table.set(16, 1, 0.5)
        assert table.cost(10, 1) == 0.5
        table.set(16, 1, 0.25)
        table.set(16, 2, 0.75)
        assert table.cost(10, 1) == 0.25
        assert table.cost(10, 2) == 0.75

    def test_missing_entries_raise_after_memo(self):
        table = CostTable([16, 32], max_batch=2)
        with pytest.raises(KeyError, match="warm-up"):
            table.cost(10, 1)  # no row yet: nothing memoised
        table.set(16, 1, 0.5)
        assert table.cost(10, 1) == 0.5
        with pytest.raises(KeyError, match="warm-up"):
            table.cost(10, 2)  # memoised row without this batch

    def test_checks_survive_the_memo(self, table):
        table.cost(64, 1)
        with pytest.raises(ValueError):
            table.cost(64, 0)
        with pytest.raises(ValueError):
            table.cost(64, table.max_batch + 1)
        for seq_len in (0, -3):
            with pytest.raises(ValueError):
                table.cost(seq_len, 1)


class TestPersistence:
    def test_json_round_trip(self, table, tmp_path):
        """The paper stores cached_cost on disk and reloads it on restart."""
        path = tmp_path / "cost.json"
        table.to_json(path)
        reloaded = CostTable.from_json(path)
        assert reloaded.lengths == table.lengths
        assert reloaded.max_batch == table.max_batch
        assert reloaded.cost(64, 3) == table.cost(64, 3)
        assert not reloaded.interpolate

    def test_json_round_trip_keeps_interpolation(self, table, tmp_path):
        interp = CostTable(table.lengths, table.max_batch, interpolate=True)
        for length in table.lengths:
            for batch in range(1, table.max_batch + 1):
                interp.set(length, batch, table.cost(length, batch))
        path = tmp_path / "cost.json"
        interp.to_json(path)
        reloaded = CostTable.from_json(path)
        assert reloaded.interpolate
        # 40 lies between grid points 32 and 64: interpolated, not bucketed.
        assert reloaded.cost(40, 2) == interp.cost(40, 2)
        assert reloaded.cost(40, 2) < table.cost(40, 2)

    def test_json_without_flag_loads_bucketed(self, tmp_path):
        path = tmp_path / "cost.json"
        path.write_text(json.dumps({
            "lengths": [16, 32], "max_batch": 1,
            "table": {"16": {"1": 0.5}, "32": {"1": 1.0}},
        }))
        reloaded = CostTable.from_json(path)
        assert not reloaded.interpolate
        assert reloaded.cost(20, 1) == 1.0

    def test_json_nan_cell_rejected(self, tmp_path):
        """``json`` writes a NaN cost as ``NaN`` and reads it back."""
        path = tmp_path / "cost.json"
        path.write_text(json.dumps({
            "lengths": [16, 32], "max_batch": 1,
            "table": {"16": {"1": 0.5}, "32": {"1": math.nan}},
        }))
        assert "NaN" in path.read_text()
        with pytest.raises(ValueError, match=r"cell \(32, 1\)"):
            CostTable.from_json(path)

    @pytest.mark.parametrize("row, cell", [("20", "1"), ("16", "2"),
                                           ("16", "0")])
    def test_json_cell_off_the_grid_rejected(self, tmp_path, row, cell):
        path = tmp_path / "cost.json"
        path.write_text(json.dumps({
            "lengths": [16, 32], "max_batch": 1,
            "table": {row: {cell: 0.5}},
        }))
        with pytest.raises(ValueError, match=r"grid|\[1, 1\]"):
            CostTable.from_json(path)


class TestInterpolation:
    @pytest.fixture(scope="class")
    def interp_table(self):
        table = CostTable([100, 200], max_batch=2, interpolate=True)
        table.set(100, 1, 0.010)
        table.set(200, 1, 0.020)
        table.set(100, 2, 0.015)
        table.set(200, 2, 0.030)
        return table

    def test_exact_at_grid_points(self, interp_table):
        assert interp_table.cost(100, 1) == pytest.approx(0.010)
        assert interp_table.cost(200, 1) == pytest.approx(0.020)

    def test_linear_between_points(self, interp_table):
        assert interp_table.cost(150, 1) == pytest.approx(0.015)
        assert interp_table.cost(150, 2) == pytest.approx(0.0225)

    def test_clamps_below_grid(self, interp_table):
        assert interp_table.cost(10, 1) == pytest.approx(0.010)

    def test_clamps_above_grid(self, interp_table):
        assert interp_table.cost(999, 1) == pytest.approx(0.020)

    def test_interpolation_never_exceeds_bucket(self, table):
        """Interpolated values are <= the round-up bucket value (cost is
        monotone in length)."""
        interp = CostTable(table.lengths, table.max_batch, interpolate=True)
        for length in table.lengths:
            for batch in range(1, table.max_batch + 1):
                interp.set(length, batch, table.cost(length, batch))
        for seq in (20, 50, 90, 127):
            assert interp.cost(seq, 2) <= table.cost(seq, 2) + 1e-12

    @pytest.mark.parametrize("lengths", [[16, 32, 64, 128],
                                         [5, 7, 30, 31, 100, 101, 250]])
    def test_lower_neighbour_from_bisect_matches_linear_scan(self, lengths):
        """The lower grid neighbour comes from the bucket's bisect index;
        it must price exactly what the linear ``max(l < upper)`` scan
        did, at every length on and between the grid points."""
        flat = CostTable(lengths, max_batch=3)
        interp = CostTable(lengths, max_batch=3, interpolate=True)
        for i, length in enumerate(lengths):
            for batch in (1, 2, 3):
                seconds = 0.001 * (1 + i) * batch + 1e-5 * length
                flat.set(length, batch, seconds)
                interp.set(length, batch, seconds)

        def linear_scan(seq_len, batch):
            upper = flat.bucket(seq_len)
            if seq_len >= upper or upper == lengths[0]:
                return flat.cost(upper, batch)
            lower = max(l for l in lengths if l < upper)
            if seq_len <= lower:
                return flat.cost(lower, batch)
            low, high = flat.cost(lower, batch), flat.cost(upper, batch)
            return low + (seq_len - lower) / (upper - lower) * (high - low)

        for seq_len in range(1, lengths[-1] + 20):
            for batch in (1, 2, 3):
                assert interp.cost(seq_len, batch) == linear_scan(seq_len,
                                                                  batch)
