"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest perf -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
for path in (str(PERF), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import hostclock  # noqa: E402
import layers  # noqa: E402
import spec  # noqa: E402
import workloads as W  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SHORT_S = 1.0


def _fingerprint(requests) -> list:
    return [(r.req_id, r.seq_len, r.arrival_s,
             getattr(r, "max_new_tokens", None),
             getattr(r, "prompt_ids", None)) for r in requests]


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_generators_are_seeded(name):
    w = spec.WORKLOADS[name]
    first = _fingerprint(W.make_requests(w, 0, 200))
    assert first == _fingerprint(W.make_requests(w, 0, 200))
    assert first != _fingerprint(W.make_requests(w, 1, 200))
    assert first != _fingerprint(W.make_requests(w, 0, 200, rung=1))


def test_rare_class_shares_are_exact():
    requests = W.make_requests(spec.WORKLOADS["chat-mix"], 3, 1000)
    assert sum(r.seq_len >= 384 for r in requests) == 50
    tenants = W.make_requests(spec.WORKLOADS["tenant-prefix"], 3, 1000)
    heads = [r.prompt_ids[:192] for r in tenants]
    assert sum(heads.count(h) == 1 for h in heads) == 100


def test_declared_names():
    declared = spec.DECLARED
    for section in ("workloads", "end_to_end", "per_layer"):
        names = [entry["name"] for entry in declared[section]]
        assert len(names) == len(set(names))
        assert all(NAME.fullmatch(n) for n in names), names
    assert [w["name"] for w in declared["workloads"]] == list(spec.WORKLOADS)
    for w in spec.WORKLOADS.values():
        assert list(w.ladder) == sorted(w.ladder)
        assert w.rate not in w.ladder or w.ladder[0] == w.rate


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    recorder = layers.SpanRecorder(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        recorder.call("kv_arena", "leaf", leaf, (), {})
        recorder.call("kv_arena", "leaf", leaf, (), {})
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        recorder.call("engine", "middle", middle, (), {}, req_id=7)
        recorder.call("engine", "middle", middle, (), {})

    recorder.top("serving.serve", outer)
    assert recorder.self_s == {"serving": 3.0, "engine": 3.0,
                               "kv_arena": 8.0}
    assert recorder.top_s == 14.0
    assert recorder.spans == 7
    assert recorder.calls == {"serving": 1, "engine": 2, "kv_arena": 4}
    shares = recorder.shares()
    assert shares["kv_arena"] == pytest.approx(8.0 / 14.0)
    assert sum(shares.values()) == pytest.approx(1.0)
    by_id = {e[0]: e for e in recorder.events}
    for span_id, parent, layer, name, start, end, req_id in recorder.events:
        if parent is not None:
            assert by_id[parent][4] <= start <= end <= by_id[parent][5]
    assert [e[6] for e in recorder.events if e[3] == "middle"] == [7, None]


def test_host_clock_rescales_each_segment():
    clock = FakeClock()
    speed = {"unit": 1.0}

    def unit():
        clock.now += speed["unit"]

    host = hostclock.HostClock(timer=False, clock=clock, unit=unit,
                               reference_s=1.0)
    with host:
        clock.now += 10.0
        host.tick()
        speed["unit"] = 2.0  # the machine slows down by half
        for _ in range(hostclock.WINDOW + 1):
            clock.now += 10.0
            host.tick()
    assert host.cpu_s == 50.0
    assert len(host.segments) == hostclock.WINDOW + 3
    # The median of the units around each segment sets its scale: the
    # second segment straddles the slowdown.
    assert host.host_s == pytest.approx(10.0 + 10.0 / 1.5 + 3 * 5.0)
    assert host.segments[-1] == 0.0
    assert hostclock.normalise(8.0, [2.0, 2.0, 4.0], reference_s=1.0) == 4.0


@pytest.fixture(scope="module")
def systems():
    return {kind: W.build_system(kind) for kind in ("gen", "bert")}


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_short_run_passes_the_gate(name, systems):
    w = spec.WORKLOADS[name]
    system = systems["bert" if w.kind == "bert" else "gen"]
    out = W.measure(w, system, 0, SHORT_S)
    assert out["problems"] == []
    assert out["failed"] == 0
    assert out["host_s"] > 0 and out["cpu_s"] > 0
    assert all(value > 0 for value in out["metrics"].values())
    if w.extra_rungs:
        rungs = W.ladder(w, system, 0, SHORT_S)
        assert rungs["problems"] == [] and rungs["points"]


def _run(*args, root=ROOT, cwd=None):
    return subprocess.run([sys.executable, str(root / "perf" / "run.py"),
                           *args], cwd=cwd or root, capture_output=True,
                          text=True, timeout=170)


def test_cli_emits_the_declared_end_to_end_metrics():
    done = _run("--workload", "replica-failover", "--seed", "2",
                "--seconds", str(SHORT_S), "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        [(m.name, m.unit) for m in spec.END_TO_END]
    assert "generator lateness 0" in done.stdout


def test_cli_trace_emits_the_declared_per_layer_metrics(tmp_path):
    done = _run("--workload", "tenant-prefix", "--seconds", str(SHORT_S),
                "--trace", "1", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        [(m.name, m.unit) for m in spec.PER_LAYER]
    trace = json.loads((tmp_path / "perf_trace-tenant-prefix.json")
                       .read_text())
    assert layers.validate_trace_dict(trace) == []
    assert result["metrics"]["prefix_index.hit_ratio"]["value"] > 0.5


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "chat-mix", root=tmp_path)
    assert done.returncode not in (0, None)
    assert done.stdout == ""
