"""The benchmark's own checks, on the CI ``tiny`` sizes (gse 3, sq 2, im 8, d=3).

Run from the root of a checkout::

    python3 -m pytest perfbench/checks.py -q

The file name keeps it out of tier-1 (``testpaths = ["tests"]``) and out
of ``python -m pytest benchmarks`` (``test_*.py``/``bench_*.py``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import record
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMING_UNITS = {"s", "1/s", "us/cycle"}


@pytest.fixture(scope="module")
def tiny_expected(tmp_path_factory) -> Path:
    """Validated tiny-profile expected outputs for every workload."""
    directory = tmp_path_factory.mktemp("expected")
    for workload in wl.WORKLOADS:
        payload = record.record(workload, "tiny")
        wl.expected_path(workload, directory).write_text(json.dumps(payload))
    return directory


def bench(workload: str, seed: int, trace: int, expected: Path, root: Path = ROOT):
    proc = subprocess.run(
        [
            sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--profile", "tiny",
            "--expected-dir", str(expected),
        ],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_counts_repeat_across_seeds(workload, tiny_expected):
    recorded = json.loads(wl.expected_path(workload, tiny_expected).read_text())
    units = {
        m["name"]: m["unit"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    }
    counts = []
    for seed in (1, 2):
        untraced = result(bench(workload, seed, 0, tiny_expected))
        assert untraced["correct"] and untraced["failed"] == 0
        assert untraced["metrics"]["sim_cycles"]["value"] == recorded["sim_cycles"]
        traced = result(bench(workload, seed, 1, tiny_expected))
        assert traced["correct"] and traced["failed"] == 0
        counts.append(
            {
                name: metric["value"]
                for name, metric in traced["metrics"].items()
                if units[name] not in TIMING_UNITS
            }
        )
    assert counts[0] == counts[1]
    assert counts[0]["braid.braids"] > 0 and counts[0]["frontend.ops"] > 0


def test_perturbed_expected_value_is_caught(tiny_expected, tmp_path):
    payload = json.loads(wl.expected_path("fig6", tiny_expected).read_text())
    first = next(iter(payload["outputs"]))
    payload["outputs"][first]["braid"]["schedule_length"] += 1
    wl.expected_path("fig6", tmp_path).write_text(json.dumps(payload))
    outcome = result(bench("fig6", 1, 0, tmp_path))
    assert not outcome["correct"]
    assert outcome["failed"] == 1
    assert outcome["attempted"] == len(payload["outputs"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = bench("fig6", 1, 0, tmp_path / "perfbench" / "expected", root=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
