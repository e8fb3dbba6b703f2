"""mvlsynth benchmark: one workload per run, single process, single thread.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its src/.
The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
run's details (input hash, host-drift probe, raw latencies, fail ratio).
With --trace 0 the metrics are the end-to-end ones, timed untraced; with
--trace 1 they are the per-layer ones from a traced run. The exit code is 0
only when every op matched its known answer. README.md in this directory
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")

READY = "ready"     # a set-up child's signal that it could run its first op
SET_UPS = 5         # setup_s samples per untraced run, each in a new process
P90_MIN_OPS = 100   # a p90 needs at least ten samples above it
MIN_CYCLES = 3      # a minimum needs a few samples of every shape
# Cycles per second of --seconds in a traced run. A traced run does a fixed
# amount of work, so its counters repeat exactly for a seed; these rates
# make its untraced pass last about a third of --seconds on the machine the
# baseline in README.md was taken on.
TRACE_CYCLES_PER_S = {"tables": 5.0, "wide": 3.0, "clocked": 2.4, "fabric": 0.12}


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop, to tell host drift from a
    regression. Recorded beside the metrics, never used to scale them."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def run_ops(wl, more, tracer=None) -> dict:
    """Closed loop with one caller: whole cycles while more(cycles, wall).

    Only the op itself is timed; drawing inputs and judging verdicts are
    not. With a tracer, spans are recorded during ops only. Per op the run
    keeps one float, so its memory barely grows with the number of ops and
    stays out of peak_rss_mb.
    """
    shapes, best, times = [], {}, array("d")
    cycles, gate_vectors, failed, errors = 0, 0, 0, []
    start = time.perf_counter()
    while not cycles or more(cycles, time.perf_counter() - start):
        for item in wl.cycle():
            if tracer is not None:
                tracer.on = True
            t0 = time.perf_counter()
            try:
                result = wl.op(item)
            except Exception as e:  # a raising op is a failed op, not a crash
                result = e
            took = time.perf_counter() - t0
            if tracer is not None:
                tracer.on = False
            times.append(took)
            shape = wl.shape(item)
            if not cycles:
                shapes.append(shape)
            best[shape] = min(took, best.get(shape, took))
            try:
                if isinstance(result, Exception):
                    raise result
                gate_vectors += wl.judge(item, result)
            except Exception as e:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{type(e).__name__}: {e}")
        cycles += 1
    return {"shapes": shapes, "best": best, "times": times, "cycles": cycles,
            "gate_vectors": gate_vectors, "failed": failed, "errors": errors}


def position_costs(run) -> list[float]:
    """One cycle's op costs with the host's interruptions left out: each
    position costs the shortest time of all the run's ops of its shape.
    README.md says why the minimum and not a mean or median."""
    return [run["best"][shape] for shape in run["shapes"]]


def import_program():
    """Import mvlsynth from SRC, and nowhere else; returns the workloads
    module."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    module = importlib.import_module("mvlsynth")
    if os.path.dirname(os.path.abspath(module.__file__)) != os.path.join(SRC, "mvlsynth"):
        raise ImportError(f"found mvlsynth at {module.__file__}, not under {SRC}")
    return importlib.import_module("workloads")


def set_up(workloads, args, workdir, tracer=None):
    """Build the workload's reusable netlists and run its warm-up op;
    returns (workload, seconds)."""
    kwargs = {"corrupt": True} if args.corrupt else {}
    start = time.perf_counter()
    if tracer is not None:
        tracer.on = True
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, **kwargs)
        wl.setup()
    finally:
        if tracer is not None:
            tracer.on = False
    return wl, time.perf_counter() - start


class SetUpFailed(Exception):
    """A set-up sample did not reach its first op."""


def set_up_child(args) -> int:
    """Body of a set-up sample: import, set up, then say so on stdout."""
    workloads = import_program()
    workdir = tempfile.mkdtemp(prefix="work-", dir=BENCH_DIR)
    try:
        set_up(workloads, args, workdir)
        print(READY, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def timed_set_up(args) -> float:
    """Seconds from starting a new process to the point where it could run
    its first timed op: interpreter start, import, reusable netlists and
    the warm-up op. The parent runs no op meanwhile, so the sample neither
    overlaps a timed op nor adds to the measuring process's peak RSS."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--set-up-child"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        took = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != READY:
        raise SetUpFailed(f"set-up in a new process exited {child.returncode}")
    return took


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(args, workdir):
    """End-to-end metrics. The host interrupts the process often enough to
    slow whole stretches of a run by up to 2x, so throughput and latency
    come from each op shape's shortest time; the raw figures go into the
    details line."""
    workloads = import_program()
    wl, _ = set_up(workloads, args, workdir)
    setups = []

    def more(cycles, wall):
        # Set-up samples run between cycles at even steps through the run,
        # so that one slow stretch of the host cannot decide setup_s.
        while len(setups) < SET_UPS and wall >= len(setups) * args.seconds / SET_UPS:
            setups.append(timed_set_up(args))
        return wall < args.seconds or cycles < MIN_CYCLES

    run = run_ops(wl, more)
    while len(setups) < SET_UPS:
        setups.append(timed_set_up(args))
    best = position_costs(run)
    ops_per_s = len(best) / sum(best)
    metrics = {
        "ops_per_s": metric(ops_per_s, "1/s"),
        "gate_vectors_per_s": metric(
            ops_per_s * run["gate_vectors"] / len(run["times"]), "1/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # Not gated: they follow ops_per_s (README.md).
    extra = {"op_ms_p50": statistics.median(best) * 1e3,
             "op_ms_p90": statistics.quantiles(best, n=10)[-1] * 1e3,
             "setups_s": setups}
    return metrics, [run], wl, extra


def traced(args, workdir):
    """Untraced pass, then the same inputs again with every layer wrapped."""
    workloads = import_program()
    wl, _ = set_up(workloads, args, workdir)
    import spans

    cycles = max(1, round(args.seconds * TRACE_CYCLES_PER_S[args.workload]))
    fixed = lambda done, wall: done < cycles  # noqa: E731
    plain = run_ops(wl, fixed)

    tracer = spans.Tracer()
    tracer.install()
    wl, setup_s = set_up(workloads, args, workdir, tracer)
    run = run_ops(wl, fixed, tracer)
    busy = sum(run["times"])
    metrics = tracer.metrics(setup_s + busy, busy / sum(plain["times"]))
    return metrics, [plain, run], wl, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["tables", "wide", "clocked", "fabric"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--corrupt", action="store_true",
                        help="tables only: check the first table against a "
                             "copy with one entry changed, so the known "
                             "answer is wrong (proves the correctness gate)")
    parser.add_argument("--set-up-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.set_up_child:
        return set_up_child(args)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.corrupt and args.workload != "tables":
        parser.error("--corrupt applies to the tables workload only")

    probe_before = host_probe()
    workdir = tempfile.mkdtemp(prefix="work-", dir=BENCH_DIR)
    try:
        metrics, runs, wl, extra = (traced if args.trace else untraced)(args, workdir)
    except ImportError as e:
        print(f"error: cannot import mvlsynth: {e}", file=sys.stderr)
        return 2
    except SetUpFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probe_after = host_probe()

    attempted = sum(len(run["times"]) for run in runs)
    failed = sum(run["failed"] for run in runs)
    last = runs[-1]["times"]
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "inputs_sha256": wl.inputs.hexdigest(),
        "cycles": [run["cycles"] for run in runs],
        "ops": [len(run["times"]) for run in runs],
        "host_probe_s": {"before": probe_before, "after": probe_after},
        "fail_ratio": failed / attempted,
        "raw_ops_per_s": len(last) / sum(last),
        "raw_op_ms_p50": statistics.median(last) * 1e3,
        "raw_op_ms_p90": (statistics.quantiles(last, n=10)[-1] * 1e3
                          if len(last) >= P90_MIN_OPS else None),
        "errors": [e for run in runs for e in run["errors"]][:5],
        **extra,
    }
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
