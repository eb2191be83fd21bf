"""Serving benchmark: end-to-end and per-layer metrics on four traffic mixes.

Run from the repository root::

    python3 perf/run.py                                # all four, seed 0
    python3 perf/run.py --workload chat-mix --seed 3 --seconds 15
    python3 perf/run.py --workload bert-dp --trace 1   # per-layer run
    python3 perf/run.py --workload tenant-prefix --repeat 5

Each phase of a workload (measure, capacity ladder, set-up probe, trace)
runs in its own child process, one at a time, with one BLAS/OpenMP
thread.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 3000, "failed": 0,
     "metrics": {"ttft_p50_ms": {"value": 8.2, "unit": "ms"}, ...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run and writes its Chrome trace
to ``perf_trace-<workload>.json`` in the current directory.
A failed correctness check exits 1; a missing simulator source tree
exits 2.  See ``perf/README.md`` for the metrics, the workloads and why
each was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostclock import END_UNITS, HostClock, normalise
from spec import END_TO_END, RUN_SECONDS, WORKLOADS

PERF = Path(__file__).resolve().parent
SRC = PERF.parent / "src"
#: A whole invocation must finish well inside three minutes.
DEADLINE_S = 170.0
#: Set-up is measured in this many fresh processes; the median is kept.
SETUP_SAMPLES = 3
#: Threads a child may start: one, so the benchmark stays on one core.
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Serving benchmark (see perf/README.md).")
    parser.add_argument("--workload", choices=tuple(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="run length; scales every request count "
                             f"(default {RUN_SECONDS:g})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run seeds seed..seed+N-1 and print median "
                             "and quartiles per metric")
    parser.add_argument("--phase", choices=("measure", "ladder", "setup",
                                            "trace"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- child phases -------------------------------------------------------------


def _child(args) -> dict:
    """One phase of one workload, in this (child) process."""
    w = WORKLOADS[args.workload]
    # Set-up: the CPU time since process start (interpreter start-up and
    # this script's imports), then imports and build under the clock.
    started_s = time.process_time()
    clock = HostClock()
    with clock:
        sys.path.insert(0, str(SRC))
        import workloads as W

        system = W.build_system(w.kind)
    setup_cpu = started_s + clock.cpu_s
    out = {"setup_s": normalise(started_s, clock.units[:END_UNITS])
           + clock.host_s}
    if args.phase == "ladder":
        out.update(W.ladder(w, system, args.seed, args.seconds))
    elif args.phase == "measure":
        out.update(W.measure(w, system, args.seed, args.seconds))
        out["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elif args.phase == "trace":
        import layers

        out.update(layers.trace_phase(w, system, args.seed, args.seconds,
                                      setup_cpu))
    return out


def _spawn(args, phase: str, deadline: float) -> dict:
    """Run one phase in a child process and return its JSON result."""
    cmd = [sys.executable, str(PERF / "run.py"), "--phase", phase,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    env = dict(os.environ, **THREAD_ENV)
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                          text=True) as child:
        try:
            out, _ = child.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise RuntimeError(f"{args.workload}/{phase} ran past the "
                               f"{DEADLINE_S:.0f} s deadline") from None
    if child.returncode != 0 or not out.strip():
        raise RuntimeError(f"{args.workload}/{phase} exited with code "
                           f"{child.returncode}")
    return json.loads(out.strip().splitlines()[-1])


# -- one workload -------------------------------------------------------------


def _end_to_end(args, deadline: float):
    """Measure, ladder and set-up phases; returns (result, report lines)."""
    w = WORKLOADS[args.workload]
    main = _spawn(args, "measure", deadline)
    setups = [main["setup_s"]]
    problems = list(main["problems"])
    points = []
    capacity = 0.0
    if w.rate in w.ladder:
        points.append([w.rate, main["metrics"]["slo_attainment"],
                       main["saturated"]])
        capacity = w.rate if main["meets_capacity"] else 0.0
    if w.extra_rungs and (capacity or w.rate not in w.ladder):
        ladder = _spawn(args, "ladder", deadline)
        setups.append(ladder["setup_s"])
        capacity = ladder["capacity_rps"] or capacity
        points += ladder["points"]
        problems += ladder["problems"]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_spawn(args, "setup", deadline)["setup_s"])
    values = dict(main["metrics"], capacity_rps=capacity,
                  host_s=main["host_s"], setup_s=statistics.median(setups),
                  peak_rss_mb=main["peak_rss_mb"])
    result = {
        "correct": not problems,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in END_TO_END},
    }
    samples = main["samples"]
    lines = [f"== {w.name} (seed {args.seed}): {w.why}",
             f"   open loop, Poisson arrivals: {main['attempted']} requests "
             f"at {w.rate:g} req/s over {main['horizon_s']:.1f} s "
             f"(simulated); latency counted from each scheduled arrival, "
             f"generator lateness 0 by construction"]
    for m in END_TO_END:
        note = ""
        if m.name.startswith(("ttft", "tpot")):
            note = f"  (n={samples[m.name[:4]]})"
        elif m.name == "host_s":
            note = (f"  (CPU {main['cpu_s']:.3f} s at "
                    f"{main['host_s'] / main['cpu_s']:.2f}x reference "
                    f"speed)")
        elif m.name == "setup_s":
            note = "  (median of " + ", ".join(
                f"{s:.3f}" for s in setups) + ")"
        lines.append(f"   {m.name:<16} {values[m.name]:>12.4f} "
                     f"{m.unit:<6}{note}")
    for name, (value, count) in main["info"].items():
        lines.append(f"   {name:<16} {value:>12.4f} ms     (n={count}, "
                     f"information only)")
    lines.append("   ladder (rate, attainment, saturated): " + ", ".join(
        f"({r:g}, {a:.4f}, {s})" for r, a, s in points))
    lines.extend(f"   FAIL: {p}" for p in problems)
    return result, lines


def _per_layer(args, deadline: float):
    out = _spawn(args, "trace", deadline)
    result = {"correct": not out["problems"], "attempted": out["attempted"],
              "failed": out["failed"], "metrics": out["metrics"]}
    lines = [f"== {args.workload} (seed {args.seed}): traced run, host "
             f"self time per layer"]
    lines.extend(out["table"])
    lines.extend(f"   {name:<34} {entry['value']:>14.6g} {entry['unit']}"
                 for name, entry in out["metrics"].items())
    lines.extend(f"   FAIL: {p}" for p in out["problems"])
    return result, lines


def run_workload(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    run = _per_layer if args.trace else _end_to_end
    result, lines = run(args, deadline)
    print("\n".join(lines), flush=True)
    return result


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def repeat(args) -> dict:
    """Run ``--repeat`` seeds; print median, quartiles and spread per
    metric, and return the medians (with ``q1`` and ``q3``) in the usual
    result shape."""
    first = args.seed
    results = []
    for seed in range(first, first + args.repeat):
        args.seed = seed
        results.append(run_workload(args))
    args.seed = first
    print(f"== {args.workload}: seeds {first}..{first + args.repeat - 1}")
    metrics = {}
    for name, entry in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = _quartiles(values)
        spread = (q3 - q1) / median if median else 0.0
        metrics[name] = {"value": median, "unit": entry["unit"],
                         "q1": q1, "q3": q3}
        print(f"   {name:<34} median {median:>12.6g} {entry['unit']:<6} "
              f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}")
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perf: simulator sources not found at {SRC}", file=sys.stderr)
        return 2
    if args.phase:
        print(json.dumps(_child(args)))
        return 0
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            args.workload = name
            results[name] = repeat(args) if args.repeat > 1 \
                else run_workload(args)
    except RuntimeError as err:
        print(f"perf: {err}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry
                        for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
