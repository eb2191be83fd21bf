"""Report generator (python -m repro.experiments.report)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.gen_serving_throughput import format_gen_bench
from repro.experiments.report import generate_report, main

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def run_cli(*args, cwd):
    """``python -m repro.experiments.report`` with runpy's RuntimeWarning
    (a module imported before ``-m`` runs it) turned into an error."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.experiments.report", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


class TestGenerateReport:
    def test_quick_report_covers_all_cheap_experiments(self):
        report = generate_report(include_serving=False)
        for marker in (
            "Table 1", "Table 2", "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8",
            "Fig. 9", "Fig. 10", "Fig. 11",
        ):
            assert marker in report, marker
        # Serving excluded in quick mode.
        assert "Fig. 12" not in report

    def test_report_contains_measured_values(self):
        report = generate_report(include_serving=False)
        assert "TurboTransformers" in report
        assert "x" in report  # speedup cells

    def test_cli_writes_file(self, tmp_path):
        out = tmp_path / "report.md"
        code = main(["--quick", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("# TurboTransformers reproduction")
        assert "Fig. 11" in text


class TestCli:
    def test_help_prints_usage_and_writes_nothing(self, tmp_path):
        result = run_cli("--help", cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert "--quick" in result.stdout
        assert result.stderr == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--bogus", "-x"])
    def test_unknown_flag_rejected(self, tmp_path, flag):
        result = run_cli(flag, cwd=tmp_path)
        assert result.returncode == 2
        assert "unrecognized arguments" in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_too_many_paths_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--quick", str(tmp_path / "a.md"), str(tmp_path / "b.md")])
        assert excinfo.value.code == 2
        assert list(tmp_path.iterdir()) == []


class TestGenerationServingSection:
    def test_committed_report_renders_the_committed_gen_bench(self):
        """REPORT.md's generation section is the committed BENCH_gen.json
        counters, rendered: the two reconcile by construction."""
        counters = json.loads((ROOT / "BENCH_gen.json").read_text())
        table = format_gen_bench(counters["counters"]["gen"])
        assert f"```\n{table}\n```" in (ROOT / "REPORT.md").read_text()

    def test_table_covers_every_system_and_sharing_ratio(self):
        counters = json.loads((ROOT / "BENCH_gen.json").read_text())
        table = format_gen_bench(counters["counters"]["gen"])
        for label in ("request-level DP", "continuous + chunked",
                      "prefix cache at 1200 req/s"):
            assert label in table
        for sharing in ("0.0", "0.5", "0.9"):
            assert f"\n{sharing} " in table
