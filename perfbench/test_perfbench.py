"""Smoke tests for the benchmark, at the tiny size.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHECKOUT_FILES = ("BENCHMARK.json", "perfbench", "src")


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


def copy_checkout(dest: Path, names=CHECKOUT_FILES) -> Path:
    for name in names:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(source, dest / name)
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert metric["value"] > 0


def test_traced_counts_match_the_pipeline():
    done = bench(ROOT, "deep", 1)
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    assert metrics["triods.calls_over_cv3"]["value"] == 1.0
    assert metrics["admissibility.failing_periods_per_seq"]["value"] == 4
    assert metrics["admissibility.branch_spectrum_per_seq"]["value"] == 3
    assert metrics["tree.periodic_branch_orbits_per_seq"]["value"] == 3


def test_probe_times_and_reaps_the_child():
    sys.path.insert(0, str(HERE))
    try:
        from cpu_probe import pinned_to_one_cpu, wait_probing
    finally:
        sys.path.remove(str(HERE))
    with pinned_to_one_cpu():
        proc = subprocess.Popen([sys.executable, "-c", "sum(range(10**6))"])
        child = wait_probing(proc.pid)
        proc.returncode = os.waitstatus_to_exitcode(child.status)
    assert proc.returncode == 0
    assert child.cpu_s > 0 and child.speed > 0 and child.reference_s > 0
    with pytest.raises(ChildProcessError):
        os.waitpid(proc.pid, 0)


def test_wrong_expected_digest_fails(tmp_path):
    checkout = copy_checkout(tmp_path)
    path = checkout / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    for digests in expected["atlas"].values():
        for period in digests:
            digests[period] = "0" * 64
    path.write_text(json.dumps(expected))
    done = bench(checkout, "atlas-serial", 0)
    assert done.returncode != 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    checkout = copy_checkout(tmp_path, names=("BENCHMARK.json", "perfbench"))
    done = bench(checkout, "deep", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
