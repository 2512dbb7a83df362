"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q

Run from the root of the repository; each test starts fresh interpreters
the way the benchmark does.
"""

import json
import math
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
import spans  # noqa: E402


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _tiny(workload, **extra):
    return run.run_workload(ROOT, workload, seed=3, seconds=0.1, trace=False, size="tiny",
                            extra_params=extra or None)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["decay-bump", "decay-dense", "nf-residual"])
def test_tiny_workload_passes_its_checks(workload):
    result = _tiny(workload)
    assert result["correct"], result
    assert result["attempted"] >= 3 and result["failed"] == 0
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        assert result["metrics"][name] > 0.0


def test_tiny_kernel_sweep_fails_only_on_slopes():
    # four small times are too few oscillations for the criterion-8 slopes,
    # so those checks (and the command's exit code 3) must fail, and only they
    result = _tiny("kernel-sweep")
    with open(os.path.join(HERE, "out", "kernel-sweep", "001-rep", "checks.json")) as fh:
        failed = {c["name"] for c in json.load(fh) if not c["ok"]}
    assert failed <= {"exit_code", "lowfreq_left_t_slope", "lowfreq_left_j_slope",
                      "dyadic_right_t_slope"}
    assert "schro_reduction_max_diff" not in failed
    assert result["failed"] >= len(failed) > 0


def test_corrupted_symbol_raises_fail_frac():
    result = _tiny("nf-residual", inject_symbol_bug=True)
    assert not result["correct"]
    assert result["failed"] > 0


def test_crashed_child_counts_as_failure():
    # an odd grid size makes the program raise inside the child
    result = _tiny("decay-bump", n_points=1023)
    assert not result["correct"]
    assert result["failed"] >= 1 and result["attempted"] >= result["failed"]


def test_result_line_follows_the_contract():
    bench = _bench()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decay-bump", "--seed", "5",
         "--seconds", "0.1", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    line = _last_json(out.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    for m in bench["end_to_end"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert line["metrics"][m["name"]]["value"] > 0.0


def test_traced_run_reports_every_layer_metric_and_accounts_for_wall_time():
    bench = _bench()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nf-residual", "--seed", "5",
         "--seconds", "0.1", "--trace", "1", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    line = _last_json(out.stdout)
    assert line["correct"] is True
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert set(metrics) == {m["name"] for m in bench["per_layer"]}
    assert all(math.isfinite(v) for v in metrics.values())
    for m in bench["per_layer"]:
        if m["unit"] in ("s", "ms", "us", "MB") and m["name"] != "trace.overhead_s":
            assert metrics[m["name"]] > 0.0, m["name"]
    # self times of the layers partition the traced workload's wall time; the
    # benchmark's own share (writing configs, reading outputs) is small
    assert metrics["trace.unaccounted_s"] < 0.2 * metrics["trace.wall_s"]
    assert metrics["trace.target_share"] > 0.5
    assert os.path.exists(os.path.join(HERE, "out", "nf-residual", "spans.npz"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decay-bump", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_first_call_hook_puts_the_originals_back():
    import bolab.decay
    import bolab.spectral
    from bolab.grid import Grid

    original = bolab.spectral.coeffs_of
    hook = spans.FirstCall()
    assert bolab.spectral.coeffs_of is not original
    assert bolab.decay.coeffs_of is bolab.spectral.coeffs_of
    grid = Grid(16, 1.0)
    bolab.spectral.coeffs_of(grid.x, grid)
    assert hook.time is not None
    assert bolab.spectral.coeffs_of is original and bolab.decay.coeffs_of is original
