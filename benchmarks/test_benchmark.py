"""The benchmark's own tests: its checks can fail, and every metric is printed.

Run from the repository root with ``python -m pytest benchmarks -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("benchmarks") / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


def _sequence(name, tmp_path):
    workload = workloads.build(name, 3, tmp_path, smoke=True)
    results, failures, wrong = run.run_sequence(workload, tmp_path, SRC, False, [])
    assert failures == [] and wrong == []
    return workload, results


def test_perturbed_probability_is_counted_as_a_failure(tmp_path):
    workload, results = _sequence("nb-symbolic", tmp_path)
    output = workload.ops[1].stdout
    lines = output.read_text().splitlines()
    fields = lines[1].split(",")
    fields[0] = repr(float(fields[0]) + 1e-6)
    output.write_text("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    wrong = workload.check(workload.state, workload.ops, results)
    assert 1 in {k for k, _ in wrong}


def test_mismatched_gamma_is_counted_as_a_failure(tmp_path):
    workload, results = _sequence("hmm-long", tmp_path)
    output = workload.ops[1].stdout
    gamma = workloads.read_gamma(output, "efb")[::-1]
    output.write_text("".join(
        f"efb t={t} " + " ".join(repr(float(p)) for p in row) + "\n"
        for t, row in enumerate(gamma)))
    wrong = workload.check(workload.state, workload.ops, results)
    assert 1 in {k for k, _ in wrong}


def test_reference_forward_backward_matches_enumeration():
    rng = np.random.default_rng(0)
    prior = workloads._simplex(rng, 3)
    transitions = workloads._stochastic(rng, 3, 3)
    emissions = workloads._stochastic(rng, 3, 2)
    obs = np.array([0, 1, 1, 0])
    marginals = np.zeros((4, 3))
    for path in np.ndindex(3, 3, 3, 3):
        weight = prior[path[0]] * emissions[path[0], obs[0]]
        for t in range(1, 4):
            weight *= transitions[path[t - 1], path[t]] * emissions[path[t], obs[t]]
        marginals[np.arange(4), path] += weight
    expected = marginals / marginals.sum(axis=1, keepdims=True)
    gamma = workloads.scaled_forward_backward(prior, transitions, emissions, obs)
    assert np.abs(gamma - expected).max() < 1e-14


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_prints_every_declared_metric(name):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
        done = _run_bench("--workload", name, "--seed", "5", "--seconds", "0",
                          "--trace", str(trace), "--smoke")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in declared[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        if trace:
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if k.endswith(".calls")})
    assert counts[0] == counts[1]


def test_declared_metrics_match_the_runner():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in declared["workloads"]} <= set(workloads.WORKLOADS)


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench("--workload", "nb-symbolic", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
