"""Self-tests of the benchmark at toy sizes.

    python3 -m pytest -q bench/test_bench.py
"""
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import hostclock  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


# a layer metric each workload must reach
REACHED = {
    "breaking": "evolution.rk4_step.calls",
    "coevolve": "fourier.evaluate.points",
    "criteria_map": "criteria.all_reports.calls",
    "wave_branch": "waves.solve_periodic_wave.calls",
}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_traced_at_toy_size(workload):
    code, result = run(workload, 1, "--toy")
    assert code == 0, result
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["fail_ratio"]["value"] == 0.0
    assert metrics[REACHED[workload]]["value"] > 0
    assert metrics["cpu_util"]["value"] > 0


def test_end_to_end_metrics_at_toy_size():
    code, result = run("wave_branch", 0, "--toy")
    assert code == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_corrupted_reference_fails_every_op(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    reference["breaking"]["B"] *= 2.0
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    code, result = run("breaking", 1, "--toy", "--reference", str(path))
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["fail_ratio"]["value"] == 1.0


def test_no_result_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result = run("criteria_map", 0, cwd=tmp_path,
                       script=tmp_path / "bench" / "run.py")
    assert code != 0
    assert result is None


def test_host_clock_samples_during_a_call_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    clock = hostclock.HostClock("mixed")
    clock.start()
    try:
        t0 = time.perf_counter()
        _, scaled, raw = clock.timed(
            lambda: sum(i * i for i in range(3_000_000)))
        wall = time.perf_counter() - t0
    finally:
        clock.stop()
    assert len(clock.durations) >= 3
    assert 0 < raw < wall                 # the handler's time is taken out
    assert scaled > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
