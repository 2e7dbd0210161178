"""The benchmark's own tests.

Run from the repository root (about a minute)::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from boundaries import Boundary, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str) -> dict:
    command = [sys.executable, str(HERE / "run.py"), *args]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    result = bench("--workload", workload, "--seed", "13", "--seconds", "0.01", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_wrong_recorded_digest_fails_every_execution(tmp_path, monkeypatch, capsys):
    manifest = json.loads(run.MANIFEST.read_text())
    recorded = manifest["workloads"]["persist_churn"]["expected"]["*"]
    recorded["stats_sha256"] = "0" * 64
    wrong = tmp_path / "manifest.json"
    wrong.write_text(json.dumps(manifest))
    monkeypatch.setattr(run, "MANIFEST", wrong)
    argv = ["--workload", "persist_churn", "--seed", "1", "--seconds", "0.01", "--trace", "0"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


@pytest.mark.parametrize("workload", ["hscc_replay", "traffic_batch"])
def test_every_seed_is_checked_against_a_recorded_outcome(workload):
    manifest = json.loads(run.MANIFEST.read_text())
    recorded = manifest["workloads"][workload]["expected"]
    seeded = run.bench_workloads.WORKLOADS[workload]
    for seed in (-3, 0, 13, 16, 17, 999, 2024, 10**9):
        input_seed, outcome = run.recorded_outcome(manifest, seeded, seed)
        assert outcome == recorded[str(input_seed)]
        if str(seed) in recorded:
            assert input_seed == seed


def test_refuses_to_run_without_the_simulator(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file():
            (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "persist_churn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "simulator source not found" in done.stderr
    assert done.stdout.strip() == ""


def test_self_time_excludes_nested_boundaries():
    toy = types.ModuleType("perfbench_toy")

    class Layer:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            pass

    toy.Layer = Layer
    originals = (Layer.outer, Layer.inner)
    sys.modules[toy.__name__] = toy
    try:
        tracer = Tracer(
            (
                Boundary("toy.outer", toy.__name__, "Layer", ("outer",), True),
                Boundary("toy.inner", toy.__name__, "Layer", ("inner",), False),
            )
        )
        with tracer:
            Layer().outer()
        assert (Layer.outer, Layer.inner) == originals
    finally:
        del sys.modules[toy.__name__]
    assert tracer.calls("toy.outer") == 1 and tracer.calls("toy.inner") == 2
    calls, total, nested = tracer.totals["toy.outer"]
    assert nested == pytest.approx(tracer.totals["toy.inner"][1])
    assert tracer.self_s("toy.outer") == pytest.approx(total - nested)
    assert tracer.covered_s == pytest.approx(total)
    (span,) = tracer.spans
    assert span[1] is None and span[2] == "toy.outer"
