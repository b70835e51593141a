"""Self-test of the benchmark harness on tiny inputs; runs in seconds.

    python3 -m pytest -q perfbench/test_run.py

Every workload path runs once untraced and once traced, and each run
must emit exactly the metrics BENCHMARK.json names, with their units.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name):
    workload = bench.WORKLOADS[name]
    if isinstance(workload, bench.Sweep):
        return replace(workload, cadence=1.0)
    body = workload.body
    for old, new in (("shell.n = 10000", "shell.n = 400"), ("shell.n = 5000", "shell.n = 200"),
                     ("output_cadence = 5.0", "output_cadence = 10.0"),
                     ("output_cadence = 4.0", "output_cadence = 8.0"),
                     ("core.n = 20000", "core.n = 800"), ("core.n = 100000", "core.n = 10000")):
        body = body.replace(old, new)
    return replace(workload, body=body, inputs=1)


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_metric_emitted(name, trace):
    result, extra = bench.run_workload(tiny(name), seed=3, seconds=0.0, trace=trace)
    assert result["correct"], extra["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert extra["diagnostics_sha256"]


def test_same_seed_same_tables():
    digests = [
        bench.run_workload(tiny("core-dynamics"), seed=5, seconds=0.0, trace=0)[1]
        ["diagnostics_sha256"]
        for _ in range(2)
    ]
    assert digests[0] == digests[1]


def test_traced_counts_repeat():
    counts = ("dynamics.steps", "dynamics.rejections", "csvio.read_calls")
    runs = [
        bench.run_workload(tiny("core-dynamics"), seed=2, seconds=0.0, trace=1)[0]["metrics"]
        for _ in range(2)
    ]
    assert [runs[0][c]["value"] for c in counts] == [runs[1][c]["value"] for c in counts]
    assert runs[0]["dynamics.steps"]["value"] > 0


def test_times_are_scaled_to_nominal_speed():
    # Round 0 runs at half the nominal speed, round 1 between half and full.
    tally = bench.Tally(drift={0: 1.0e-6})
    nominal = bench.CALIBRATION_NOMINAL_S
    metrics = bench.end_to_end_metrics(
        [2 * nominal, 2 * nominal, nominal], [(0, 0), (1, 0)], [1.0, 0.5], [0.02, 0.01], tally
    )
    assert metrics["solve_s"] == pytest.approx((0.5 + 0.5 / 1.5) / 2)
    assert metrics["setup_s"] == pytest.approx((0.01 + 0.01 / 1.5) / 2)


def test_failed_checks_are_counted_not_raised():
    wrong = replace(tiny("shell-escape"), expected_labels=("steady",))
    result, extra = bench.run_workload(wrong, seed=1, seconds=0.0, trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 3
    assert any("label" in failure for failure in extra["failures"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "kurth-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
