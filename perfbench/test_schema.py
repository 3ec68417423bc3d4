"""Schema smoke test for the benchmark: every workload at the tiny size,
traced and not. It checks metric names, units and directions against
BENCHMARK.json and the harness's own tables; it never checks timings.

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["eval-small", "adapt-cli"]


def _table(section):
    return {m["name"]: (m["unit"], m["better"]) for m in BENCH[section]}


def _run(cwd, *args, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_matches_the_harness():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCH["workloads"]] == WORKLOADS
    assert _table("end_to_end") == run.END_TO_END
    assert _table("per_layer") == run.PER_LAYER
    for metric in BENCH["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert max(BENCH["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_schema(workload, trace, tmp_path):
    out = _run(tmp_path, "--workload", workload, "--seed", "0", "--seconds", "0",
               "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    table = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(table)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == table[name][0]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])

    (record_path,) = (tmp_path / ".perfbench" / "results").glob("*.json")
    record = json.loads(record_path.read_text())
    for key in ("nproc", "cpu_model", "caches", "python", "numpy", "blas", "blas_threads"):
        assert key in record["machine"]
    assert len(record["code"]["source_sha256"]) == 64
    assert len(record["digest"]) == 64
    assert record["ops_failed_ratio"] == 0.0
    assert {"episodes", "inferences", "denoiser_evals", "env_steps", "train_windows"} <= set(
        record["counters"]
    )
    if trace:
        assert (tmp_path / ".perfbench" / f"trace-{workload}.npz").is_file()
    else:
        scales = record["samples"]["setup_scale"] + record["samples"]["round_scale"]
        assert scales and all(s > 0 for s in scales)


def test_gauge_clock_leaves_out_the_kernel():
    import speed

    gauge = speed.Gauge("small")
    t0 = gauge.clock()
    gauge.tick(force=True)
    gauge.tick()  # within PERIOD_S of the last tick: no kernel run
    assert len(gauge.samples) == 1
    assert gauge.clock() - t0 < gauge.samples[0] / 2
    assert gauge.scale(t0, gauge.clock()) > 0


def test_runs_of_one_seed_agree(tmp_path):
    args = ("--workload", "eval-small", "--seed", "3", "--seconds", "0", "--size", "tiny")
    for trace in ("0", "1", "0"):
        out = _run(tmp_path, *args, "--trace", trace)
        assert json.loads(out.stdout.strip().splitlines()[-1])["failed"] == 0, out.stderr
    digests = {
        json.loads(p.read_text())["digest"]
        for p in (tmp_path / ".perfbench" / "results").glob("*.json")
    }
    assert len(digests) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "eval-small", "--seed", "0", "--seconds", "1",
               "--trace", "0", script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
