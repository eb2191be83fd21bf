"""Sanitizer summaries of the serving scenarios are pinned byte for byte.

``python -m repro check --sanitize <name> --format json --out X`` must
write exactly ``golden_sanitize/<name>.json`` for every name
``sanitize_scenarios()`` accepts: the generation scenarios (the chunked prefix-cached ``continuous`` one and the
``gen-blackout`` and ``gen-storm`` chaos scenarios) and for the encoder
ones (the ``smoke``, ``blackout`` and ``storm`` chaos scenarios and the
``cluster``, ``ebird`` and ``oneshot`` serving scenarios).  The summary
holds only integers: zero diagnostics, and the recorded trace's
dispatch, resolve, request and arena-event counts.  A serving-loop
change that adds or drops one engine dispatch, one request resolution
or one KV ledger operation shows up here, even when every diagnostic
still passes.

Regenerate (only for an intentional behaviour change, with a note)::

    PYTHONPATH=src python tests/analysis/test_sanitize_golden.py
"""

from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis.sanitizer import sanitize_scenarios

GOLDEN = Path(__file__).parent / "golden_sanitize"
SCENARIOS = sanitize_scenarios()


def sanitize_json(name: str, out: Path) -> str:
    assert main(["check", "--sanitize", name, "--format", "json",
                 "--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("name", SCENARIOS)
def test_sanitize_summary_matches_golden(name, tmp_path, capsys):
    got = sanitize_json(name, tmp_path / f"{name}.json")
    capsys.readouterr()
    assert got == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":  # regenerate the golden files
    for scenario in SCENARIOS:
        sanitize_json(scenario, GOLDEN / f"{scenario}.json")
    print(f"wrote {GOLDEN}")
