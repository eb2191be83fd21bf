"""Chaos reports are pinned byte for byte.

``python -m repro chaos --scenario <name> --seed 0 --metrics-out X``
must write exactly ``golden_chaos/<name>.json`` for every scenario of
the one registry (``repro.resilience.chaos.SCENARIOS``: the three
encoder cluster scenarios and ``gen-blackout`` and ``gen-storm``): every counter, gauge and breaker-state series of the
fault-free baseline and the chaos run.  A change to the serving loop or
the router that moves one routing decision, retry or breaker transition
shows up here.

Regenerate (only for an intentional behaviour change, with a note)::

    PYTHONPATH=src python tests/resilience/test_chaos_golden.py
"""

from pathlib import Path

import pytest

from repro.__main__ import main
from repro.resilience.chaos import SCENARIOS

GOLDEN = Path(__file__).parent / "golden_chaos"


def metrics_json(name: str, out: Path) -> str:
    assert main(["chaos", "--scenario", name, "--seed", "0",
                 "--metrics-out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_chaos_metrics_match_golden(name, tmp_path, capsys):
    got = metrics_json(name, tmp_path / f"{name}.json")
    capsys.readouterr()
    assert got == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":  # regenerate the golden files
    for scenario in SCENARIOS:
        metrics_json(scenario, GOLDEN / f"{scenario}.json")
    print(f"wrote {GOLDEN}")
