"""Tests of the benchmark itself, at tiny scale.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test
collection: each case starts real server processes and takes seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SCALE = "0.05"

END_TO_END = {"setup_s": "s", "elems_per_s": "1/s", "lat_p50_ms": "ms",
              "lat_p99_ms": "ms", "server_cpu_us_per_elem": "us",
              "server_rss_mb": "MiB", "served_frac": "ratio",
              "fpr": "ratio"}


def _bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "2", "--trace", str(trace),
         "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _declared(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_and_oracle(workload):
    out = _bench(workload, 0)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == END_TO_END == _declared("end_to_end")
    assert result["metrics"]["served_frac"]["value"] == 1.0
    printed = {tuple(line.split()[:3:2]) for line in
               out.stdout.splitlines()[:-1] if not line.startswith("{")}
    assert printed == set(got.items())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_per_layer_metrics(workload):
    out = _bench(workload, 1)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    declared = _declared("per_layer")
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared
    if workload == "ttl_lookups":
        assert metrics["router.group_us_per_elem"] == 0.0
        assert metrics["generational.probes_per_elem"] > 1.0
        assert metrics["hashing.hashed_per_elem"] > 1.0
    else:
        assert metrics["hashing.hashed_per_elem"] == 2.0
        assert metrics["sharded.kernel_calls_per_batch"] > 1.0
    # Named self times and the unattributed rest never exceed the traced
    # server CPU; what is left is verdict encoding, billed per request.
    named = sum(metrics[n] for n, unit in declared.items()
                if unit == "us" and n.endswith("_per_elem")
                and n not in ("loadgen.cpu_us_per_elem",
                              "server.traced_cpu_us_per_elem"))
    assert metrics["server.unattributed_us_per_elem"] >= 0.0
    assert named <= metrics["server.traced_cpu_us_per_elem"]


def test_corrupted_verdict_bit_fails_the_run():
    workload = workloads.BulkLookups(seed=3, scale=float(SCALE))
    frame = bytearray(workload.source.expected[0])
    frame[-1] ^= 1
    workload.source.expected[0] = bytes(frame)
    bench = run.Bench(ROOT, workload, seconds=2.0)
    correct, attempted, failed, metrics, _ = run.end_to_end(bench)
    assert not correct
    assert 0 < failed < attempted
    assert metrics["served_frac"][0] < 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("bulk_lookups", 0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert "correct" not in out.stdout
