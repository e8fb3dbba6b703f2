"""Tests of the benchmark itself; they are not part of the program's suite.

    python3 -m pytest perfbench/test_bench.py -q

They take about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))

# Counters that depend only on the seed; a traced run does a fixed amount of
# work, so they must repeat exactly.
DETERMINISTIC = ["netlist.gates_built", "sim.vectors", "sim.gate_evals",
                 "sim.steps", "oracle.mismatches", "sim.faults.contention",
                 "sim.faults.floating_net", "sim.faults.uninitialized_latch",
                 "fileio.bytes"]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def parsed(lines):
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counters_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        code, lines = bench("--workload", workload, "--seed", "7",
                            "--seconds", "1", "--trace", "1")
        assert code == 0, lines
        runs.append(parsed(lines))
    (details_a, result_a), (details_b, result_b) = runs
    assert set(result_a["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert details_a["inputs_sha256"] == details_b["inputs_sha256"]
    for name in DETERMINISTIC:
        a, b = result_a["metrics"][name]["value"], result_b["metrics"][name]["value"]
        assert isinstance(a, int) and a == b, name
    self_s = sum(v["value"] for k, v in result_a["metrics"].items()
                 if k.endswith(".self_s"))
    assert self_s <= result_a["metrics"]["trace.wall_s"]["value"]


def test_wrong_known_answer_fails_the_run():
    code, lines = bench("--workload", "tables", "--seed", "7", "--seconds", "1",
                        "--trace", "0", "--corrupt")
    details, result = parsed(lines)
    assert code != 0
    assert details["fail_ratio"] > 0 and result["failed"] >= 1
    assert result["correct"] is False
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "work-*"))
    code, lines = bench("--workload", "tables", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
