"""The CLI entry point (``python -m repro``)."""

import pytest


class TestCli:
    def test_selfcheck_passes(self, capsys):
        from repro.__main__ import main

        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "selfcheck passed" in out
        assert "turbo" in out

    def test_report_quick(self, tmp_path, capsys):
        from repro.__main__ import main

        out_path = tmp_path / "r.md"
        assert main(["report", "--quick", str(out_path)]) == 0
        assert out_path.read_text().startswith("# TurboTransformers")

    def test_unknown_command_rejected(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["frobnicate"])
