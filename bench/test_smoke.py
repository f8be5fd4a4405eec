"""Smoke test of the benchmark at its minimal length (``--seconds 1``).

It checks the output contract, not speed: every metric named in
BENCHMARK.json appears with its unit, the correctness checks ran and
passed, and the command refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    command = [sys.executable, "bench/run.py", "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def parse(done):
    assert done.returncode == 0, done.stderr[-4000:]
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def assert_result(result, names_units):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names_units
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_spec_directions_match_the_code():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    try:
        import tracing
    finally:
        del sys.path[:2]
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == tracing.PER_LAYER


def test_untraced_run_reports_every_end_to_end_metric():
    report, result = parse(run_bench("mpc_laps", trace=0))
    assert_result(result, {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
    assert report["checks"] and all(report["checks"].values())
    assert report["untraced"]["step_samples"] == result["attempted"]
    assert report["environment"]["blas_thread_env"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", ["train", "sweep", "mpc_laps"])
def test_traced_run_reports_every_per_layer_metric(workload):
    report, result = parse(run_bench(workload, trace=1))
    assert_result(result, {m["name"]: m["unit"] for m in SPEC["per_layer"]})
    assert report["checks"] and all(report["checks"].values())
    assert {k: v["unit"] for k, v in report["end_to_end"].items()} \
        == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert report["traced"]["spans"] > 0
    assert (ROOT / ".bench_out" / report["traced"]["spans_file"]).is_file()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("sweep", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
