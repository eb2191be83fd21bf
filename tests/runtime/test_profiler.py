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

    def test_json_without_flag_loads_bucketed(self, tmp_path):
        path = tmp_path / "cost.json"
        path.write_text(json.dumps({
            "lengths": [16, 32], "max_batch": 1,
            "table": {"16": {"1": 0.5}, "32": {"1": 1.0}},
        }))
        reloaded = CostTable.from_json(path)
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
