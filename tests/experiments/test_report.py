"""Report generator (python -m repro.experiments.report)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.report import generate_report, main

SRC = Path(__file__).resolve().parents[2] / "src"


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
