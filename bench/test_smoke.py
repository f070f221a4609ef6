"""Smoke test of the benchmark harness, one tiny job per workload.

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import chainbell.nonsignalling  # noqa: E402
import chainbell.systems  # noqa: E402
import harness  # noqa: E402
from chainbell import BoxParams, build_product_system, build_unbiased_box  # noqa: E402

RATIONAL = BoxParams.rational(2, Fraction(1, 8))


def tiny_jobs() -> dict[str, list[harness.Job]]:
    return {
        "attack": [harness.attack_job("majority", 5, RATIONAL)],
        "verify": [harness.verify_job("hex:6", 2, RATIONAL)],
        "reject": harness.reject_jobs(BoxParams.quantum(2), 2, random.Random(0)),
    }


def test_tiny_jobs_pass_and_the_peeking_system_is_caught():
    for jobs in tiny_jobs().values():
        result = harness.run_pass(jobs, None, traced=False)
        assert result.errors == {}
        assert len(result.latencies) == len(jobs)
    reject = harness.run_pass(tiny_jobs()["reject"], None, traced=False).outputs
    honest, peek = reject["honest"], reject["peek-1-2-flip1"]
    assert honest["time-ordered"]["verdict"] == "pass"
    assert peek["time-ordered"]["verdict"] == "fail"
    assert peek["time-ordered"]["violations_total"] > 0
    assert peek["time-ordered"]["witnesses"]


def test_an_uncaught_peeker_fails_the_job():
    honest = build_product_system(build_unbiased_box(BoxParams.quantum(2)), 2)
    subsets = {"alice": (1,), "bob": (2,)}
    job = harness.reject_job("honest-posing-as-peeker", honest, False, subsets)
    result = harness.run_pass([job], None, traced=False)
    assert "passes the time-ordered check" in result.errors[job.name]


def test_a_corrupted_pinned_value_counts_as_a_failure():
    jobs = tiny_jobs()
    pins = {kind: harness.run_pass(js, None, traced=False).outputs
            for kind, js in jobs.items()}
    for kind, js in jobs.items():
        assert harness.run_pass(js, pins[kind], traced=False).errors == {}

    pins["attack"]["majority-n5"]["distance"] = "1/2"
    assert list(harness.run_pass(jobs["attack"], pins["attack"], traced=False).errors) == [
        "majority-n5"]

    witness = pins["reject"]["peek-1-2-flip1"]["time-ordered"]["witnesses"][0]
    witness["left"] += 1e-15  # inside FLOAT_ATOL: summation order is not pinned
    assert harness.run_pass(jobs["reject"], pins["reject"], traced=False).errors == {}
    witness["left"] += 1e-6
    errors = harness.run_pass(jobs["reject"], pins["reject"], traced=False).errors
    assert list(errors) == ["peek-1-2-flip1"]


def test_times_are_scaled_by_the_reference_work_around_each_job():
    jobs = tiny_jobs()["reject"]
    result = harness.run_pass(jobs, None, traced=False)
    refs = result.reference_s
    assert len(refs) == len(jobs) + 1
    for k, (raw, scaled) in enumerate(zip(result.latencies, result.scaled_latencies)):
        expected = raw * harness.REF_NOMINAL_S / ((refs[k] + refs[k + 1]) / 2)
        assert math.isclose(scaled, expected, rel_tol=1e-12)
    assert math.isclose(result.scaled_wall_s, sum(result.scaled_latencies))


def test_a_traced_pass_records_every_layer_it_runs():
    result = harness.run_pass(tiny_jobs()["verify"], None, traced=True)
    metrics = harness.layer_metrics(result)
    # verify_partition materializes the base and both parts; the job then
    # materializes part z0 once more, all with (4 * 2^2)^2 entries.
    assert metrics["nonsignalling.table_entries"] == 4 * 16**2
    assert metrics["systems.checks_performed"] > 0
    assert 0 < metrics["systems.verify_partition_self_s"] < metrics["systems.verify_partition_s"]
    for name in ("adversary.truth_table_s", "adversary.attack_partition_s",
                 "analysis.distance_closed_s", "analysis.distance_joint_s",
                 "nonsignalling.materialize_s", "nonsignalling.time_ordered_s"):
        assert metrics[name] > 0, name
    assert metrics["nonsignalling.subset_s"] == 0
    assert chainbell.systems.materialize is chainbell.nonsignalling.materialize


def test_command_prints_the_result_line():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "reject-float",
         "--seed", str(harness.DEFAULT_SEED), "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert set(result["metrics"]) == {"wall_s", "job_p50_s", "setup_s", "peak_rss_mb"}


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reject-float", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
