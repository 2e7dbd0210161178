"""The throughput bench harness: scenarios, schema, CLI round trip."""

import json

import pytest

from repro.harness import bench
from repro.harness.bench import (
    DEFAULT_OPS,
    SCENARIOS,
    SEED_BASELINE,
    SMOKE_OPS,
    run_bench,
    run_scenario,
)


class TestScenarios:
    def test_at_least_four_scenarios(self):
        assert len(SCENARIOS) >= 4
        assert "l1_resident" in SCENARIOS
        assert "nvm_miss_heavy" in SCENARIOS
        assert "fault_heavy" in SCENARIOS

    def test_every_scenario_has_an_op_budget(self):
        assert set(DEFAULT_OPS) == set(SCENARIOS)
        assert set(SMOKE_OPS) == set(SCENARIOS)

    def test_l1_scenario_is_l1_resident(self):
        machine, trace = SCENARIOS["l1_resident"](2000)
        for vaddr, size, is_write in trace:
            machine.access(vaddr, size, is_write)
        stats = machine.stats
        # Once the 256-line working set is warm, everything hits the L1.
        assert stats["l1.hit"] >= len(trace) - 300

    def test_nvm_scenario_reaches_the_devices(self):
        machine, trace = SCENARIOS["nvm_miss_heavy"](500)
        for vaddr, size, is_write in trace:
            machine.access(vaddr, size, is_write)
        assert machine.stats["nvm.reads"] > 0

    def test_fault_scenario_faults_every_op(self):
        machine, trace = SCENARIOS["fault_heavy"](200)
        for vaddr, size, is_write in trace:
            machine.access(vaddr, size, is_write)
        assert machine.stats["tlb.miss"] >= 200

    def test_run_scenario_reports_rate_and_clock(self):
        result = run_scenario("l1_resident", 300, repeats=1)
        assert result["ops"] == 300
        assert result["ops_per_sec"] > 0
        assert result["final_clock"] > 0

    def test_best_repeat_rate_and_elapsed_agree(self, monkeypatch):
        """``elapsed_s`` and ``ops_per_sec`` must describe the *same*
        (best) repeat — stubbing the timer makes the pairing exact."""
        elapsed_values = iter([0.5, 0.2, 0.4])

        def scripted_replay(machine, trace):
            for vaddr, size, is_write in trace:
                machine.access(vaddr, size, is_write)
            return next(elapsed_values)

        monkeypatch.setattr(bench, "_replay", scripted_replay)
        result = run_scenario("l1_resident", 100, repeats=3)
        assert result["elapsed_s"] == 0.2
        assert result["ops_per_sec"] == pytest.approx(100 / 0.2)

    def test_divergent_repeat_clock_raises(self, monkeypatch):
        """A repeat ending on a different simulated clock is a
        nondeterminism canary, not a number to average away."""
        real_builder = SCENARIOS["l1_resident"]
        calls = {"n": 0}

        def flaky_builder(ops):
            machine, trace = real_builder(ops)
            calls["n"] += 1
            if calls["n"] == 2:
                trace = trace + [trace[0]]
            return machine, trace

        monkeypatch.setitem(bench.SCENARIOS, "flaky", flaky_builder)
        with pytest.raises(RuntimeError, match="nondeterministic"):
            run_scenario("flaky", 50, repeats=2)

    def test_run_scenario_batch_matches_scalar_clock(self):
        scalar = run_scenario("l1_resident", 2000, repeats=1)
        batched = run_scenario("l1_resident", 2000, repeats=1, batch=True)
        assert batched["final_clock"] == scalar["final_clock"]
        assert batched["batched_ops"] + batched["scalar_ops"] == 2000
        assert batched["batched_ops"] > 0  # the kernel actually engaged

    def test_run_scenario_batch_says_why_ops_fell_back(self):
        batched = run_scenario("fault_heavy", 2000, repeats=1, batch=True)
        fallbacks = batched["fallbacks"]
        assert sum(fallbacks.values()) == batched["scalar_ops"] > 0
        assert fallbacks["fault"] > 0


class TestReportSchema:
    def test_smoke_report_schema(self):
        report = run_bench(smoke=True)
        assert report["schema"] == "bench_machine/v6"
        assert "batch" not in report  # only recorded when requested
        current = report["current"]
        assert set(current["ops_per_sec"]) == set(SCENARIOS)
        assert all(rate > 0 for rate in current["ops_per_sec"].values())
        assert all(clock > 0 for clock in current["final_clock"].values())
        assert set(report["baseline"]["ops_per_sec"]) == set(SCENARIOS)
        for name, speedup in report["speedup_vs_baseline"].items():
            base = report["baseline"]["ops_per_sec"][name]
            assert speedup > 0 and base > 0
        # v2: host metadata makes cross-machine numbers interpretable.
        host = report["host"]
        assert host["cpu_count"] >= 1
        assert host["python"] and host["platform"]

    def test_scenario_clocks_are_deterministic(self):
        first = run_scenario("llc_resident", 400, repeats=1)
        second = run_scenario("llc_resident", 400, repeats=1)
        assert first["final_clock"] == second["final_clock"]

    def test_batch_report_section(self):
        report = run_bench(
            smoke=True, batch=True, scenarios=["l1_resident", "fault_heavy"]
        )
        batch_section = report["batch"]
        assert set(batch_section["ops_per_sec"]) == {
            "l1_resident",
            "fault_heavy",
        }
        for name, clock in batch_section["final_clock"].items():
            assert clock == report["current"]["final_clock"][name]
        split = batch_section["op_split"]["l1_resident"]
        assert split["batched"] > 0
        assert split["batched"] + split["scalar"] == SMOKE_OPS["l1_resident"]
        assert set(batch_section["speedup_vs_scalar"]) == set(
            batch_section["ops_per_sec"]
        )


class TestCli:
    def test_bench_cli_writes_json(self, tmp_path, capsys):
        from repro.harness.__main__ import main

        out = tmp_path / "deep" / "results" / "BENCH_machine.json"
        assert main(["bench", "--smoke", "--batch", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "bench_machine/v6"
        assert report["batch"]["op_split"]["l1_resident"]["batched"] > 0
        assert report["smoke"] is True
        sweep_section = report["sweep"]
        assert sweep_section["cells"] >= 2
        assert sweep_section["workers"] >= 1
        assert sweep_section["identical_output"] is True
        assert 0.0 <= sweep_section["warm_cache_hit_rate"] <= 1.0
        captured = capsys.readouterr()
        assert "replay throughput" in captured.out
        assert "batch replay" in captured.out
        assert "sweep engine" in captured.out

    def test_committed_baseline_is_recorded(self):
        # The trajectory file must carry the pre-PR baseline so future
        # sessions can see the whole perf history.
        assert SEED_BASELINE["ops_per_sec"]["l1_resident"] > 0


class TestSweepMeasurement:
    @pytest.fixture
    def instant_fig4a(self, monkeypatch):
        """Replace the timed Fig. 4a sweep with an instant stub."""
        import repro.harness.experiments as experiments

        monkeypatch.setattr(
            experiments,
            "run_fig4a",
            lambda sizes_mb, scale, engine=None: [list(sizes_mb), scale],
        )

    def test_single_cpu_speedup_is_not_measured(self, monkeypatch, instant_fig4a):
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 1)
        report = bench.measure_sweep(jobs=2, smoke=True)
        assert report["speedup"] is None
        assert report["speedup_reason"] == "not measured: 2 worker(s) on 1 CPU(s)"
        assert report["identical_output"] is True

    def test_single_worker_speedup_is_not_measured(self, monkeypatch, instant_fig4a):
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 8)
        report = bench.measure_sweep(jobs=1, smoke=True)
        assert report["speedup"] is None
        assert "1 worker(s)" in report["speedup_reason"]

    def test_parallel_host_reports_a_speedup(self, monkeypatch, instant_fig4a):
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 4)
        report = bench.measure_sweep(jobs=2, smoke=True)
        assert isinstance(report["speedup"], float)
        assert report["speedup_reason"] is None

    def test_printer_handles_both_cases(self, capsys):
        base = {
            "experiment": "fig4a",
            "cells": 2,
            "workers": 1,
            "serial_s": 1.0,
            "parallel_s": 1.0,
            "warm_s": 0.01,
            "warm_over_cold": 0.01,
            "warm_cache_hit_rate": 1.0,
        }
        bench.print_sweep(
            dict(base, speedup=None, speedup_reason="not measured: 1 worker(s) on 1 CPU(s)")
        )
        bench.print_sweep(dict(base, workers=2, speedup=1.8, speedup_reason=None))
        out = capsys.readouterr().out
        assert "(not measured: 1 worker(s) on 1 CPU(s))" in out
        assert "(1.80x)" in out
