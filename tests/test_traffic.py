"""Fleet traffic populations: generation edge cases, scheduling,
interference attribution and the CLI.

The differential suites gate the big claims (byte-identity across
batch/scalar lives in ``test_golden_equivalence``, across sharding in
``test_exec_parallel_identical``); this file pins the sharp edges:
arrival-time binning degenerates, container round trips, profile/paper
correspondence, and that cross-process interference is actually
attributed to the right processes.
"""

import json

import numpy as np
import pytest

from repro.arch.interference import InterferenceMonitor, interference_report
from repro.common.config import small_machine_config
from repro.common.errors import KindleError
from repro.common.stats import Stats
from repro.platform import HybridSystem
from repro.prep.trace import load_trace_packed
from repro.replay.batch import FALLBACK_REASONS
from repro.workloads import TABLE2_MIXES
from repro.workloads.traffic import (
    DEFAULT_DIURNAL_CURVE,
    PROFILES,
    ClientPopulation,
    PopulationConfig,
    TrafficScheduler,
    _assign_timestamps,
    client_base_vaddr,
    client_window_span,
    fit_forecast,
    unique_pool_size,
)


def _small_config(**overrides):
    defaults = dict(
        seed=11,
        clients=8,
        processes=2,
        ops_per_client=300,
        period=1 << 20,
        sched_slices=16,
    )
    defaults.update(overrides)
    return PopulationConfig(**defaults)


def _booted_system():
    system = HybridSystem(config=small_machine_config(), persistence=False)
    system.boot()
    system.machine.install_interference_monitor(InterferenceMonitor())
    return system


def _replay(config, batch=True):
    schedule = ClientPopulation(config).generate()
    system = _booted_system()
    scheduler = TrafficScheduler(system, schedule)
    scheduler.provision()
    result = scheduler.run(batch=batch)
    return system, result


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(clients=0),
            dict(processes=0),
            dict(ops_per_client=0),
            dict(unique_fraction=-0.1),
            dict(unique_fraction=1.5),
            dict(arrival="bursty"),
            dict(arrival="diurnal", period=4),  # < len(curve)
            dict(arrival="diurnal", diurnal_phase=1.0),
            dict(arrival="diurnal", diurnal_curve=(0.0, 0.0)),
            dict(arrival="diurnal", diurnal_curve=(1.0, float("nan"))),
            dict(profile_mix=(("no_such_profile", 1.0),)),
            dict(profile_mix=(("ycsb_point", 0.0),)),
            dict(sched_slices=0),
        ],
    )
    def test_bad_configs_rejected(self, overrides):
        with pytest.raises(KindleError):
            _small_config(**overrides)

    def test_to_dict_round_trip(self):
        config = _small_config(arrival="diurnal", diurnal_phase=0.25)
        assert PopulationConfig.from_dict(config.to_dict()) == config


class TestArrivalBinning:
    def test_empty_diurnal_bins_receive_no_ops(self):
        """Zero-weight bins must stay empty — and empty bins must not
        produce NaN rates in the summary."""
        curve = (0.0, 5.0, 0.0, 1.0)
        config = _small_config(
            arrival="diurnal", diurnal_curve=curve, ops_per_client=500
        )
        rng = np.random.default_rng(3)
        ts = _assign_timestamps(config, rng, 4000)
        width = config.period / len(curve)
        bins = (ts // width).astype(int)
        assert not np.any(bins == 0)
        assert not np.any(bins == 2)
        assert np.all((bins == 1) | (bins == 3))
        population = ClientPopulation(config)
        population.generate()
        rates = population.summary()["bin_rates_ops_per_tick"]
        assert rates[0] == 0.0 and rates[2] == 0.0
        assert all(np.isfinite(rates))

    def test_phase_wraps_across_period_boundary(self):
        """A phase shift pushing the only loaded bin past the period
        end must wrap to the start, never escape ``[0, period)``."""
        curve = (0.0, 0.0, 0.0, 1.0)  # all load in the last quarter
        config = _small_config(
            arrival="diurnal", diurnal_curve=curve, diurnal_phase=0.5
        )
        rng = np.random.default_rng(5)
        ts = _assign_timestamps(config, rng, 4000)
        assert ts.max() < config.period
        # last quarter + half a period == second quarter, wrapped.
        width = config.period / len(curve)
        bins = (ts // width).astype(int)
        assert np.all(bins == 1)

    def test_poisson_timestamps_span_the_period(self):
        config = _small_config(arrival="poisson")
        rng = np.random.default_rng(7)
        ts = _assign_timestamps(config, rng, 10_000)
        assert ts.max() < config.period
        assert ts.min() >= 0
        # A homogeneous process covers the period roughly uniformly.
        assert ts.max() - ts.min() > config.period // 2


class TestDegeneratePopulations:
    def test_zero_repetition_clients(self):
        """``unique_fraction=1.0``: every op draws a fresh pool slot and
        the repetition coefficient is exactly zero (not NaN)."""
        config = _small_config(unique_fraction=1.0, clients=2, processes=1)
        population = ClientPopulation(config)
        population.generate()
        summary = population.summary()
        assert summary["repetition_coefficient"] == 0.0
        assert np.isfinite(summary["arrival_rate_ops_per_tick"])

    def test_full_repetition_clients(self):
        """``unique_fraction=0.0`` degenerates to a single-slot pool:
        one distinct address per client, never a division by zero."""
        config = _small_config(unique_fraction=0.0, clients=2, processes=1)
        schedule = ClientPopulation(config).generate()
        for client in range(config.clients):
            addrs = np.unique(schedule.addr[schedule.client == client])
            assert len(addrs) == 1

    def test_single_client_population(self):
        """One client on one process: rates finite, schedule complete,
        and interference attribution all-self (nobody to cross with)."""
        config = _small_config(clients=1, processes=1, ops_per_client=400)
        population = ClientPopulation(config)
        schedule = population.generate()
        assert len(schedule) == 400
        summary = population.summary()
        assert np.isfinite(summary["arrival_rate_ops_per_tick"])
        assert np.isfinite(summary["repetition_coefficient"])
        system, result = _replay(config)
        assert result.ops == 400
        assert result.context_switches == 1  # the initial dispatch only
        assert system.stats["interference.tlb.cross"] == 0
        assert system.stats["interference.llc.cross"] == 0
        report = interference_report(system.stats)
        assert report["tlb"]["pairs"] == {}


class TestUniquePoolRounding:
    """Regression: the pool size used ``round()``, whose banker's
    rounding sent .5-exact products to the nearest even integer — the
    same ``unique_fraction`` shifted the pool size with the magnitude
    of the op count.  The rule is now an explicit clamped floor."""

    def test_floor_rule_at_boundaries(self):
        assert unique_pool_size(300, 0.0) == 1
        assert unique_pool_size(300, 1.0) == 300
        assert unique_pool_size(1, 1.0) == 1
        assert unique_pool_size(1, 0.0) == 1

    def test_half_exact_products_are_magnitude_independent(self):
        # ops * 0.5 lands exactly on .5 for every odd op count;
        # round() gave [2, 4, 4, 6] (parity skew), floor is monotone.
        assert [unique_pool_size(ops, 0.5) for ops in (5, 7, 9, 11)] == [
            2, 3, 4, 5,
        ]
        # the concrete banker's-rounding pair the bug report names
        assert round(2.5) == 2 and round(3.5) == 4  # the old behavior
        assert unique_pool_size(5, 0.5) == 2
        assert unique_pool_size(7, 0.5) == 3

    def test_validation(self):
        with pytest.raises(KindleError):
            unique_pool_size(0, 0.5)
        with pytest.raises(KindleError):
            unique_pool_size(10, -0.1)
        with pytest.raises(KindleError):
            unique_pool_size(10, 1.01)

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    def test_boundary_fractions_generate_byte_identical_repeats(
        self, fraction, tmp_path
    ):
        # odd op count: ops * 0.5 is .5-exact on every client
        config = _small_config(
            unique_fraction=fraction, ops_per_client=301, clients=4
        )
        first = ClientPopulation(config).generate()
        second = ClientPopulation(config).generate()
        for column in ("ts", "addr", "size", "write"):
            assert (
                getattr(first, column).tobytes()
                == getattr(second, column).tobytes()
            )
        paths_a = first.save_containers(tmp_path / "a")
        paths_b = second.save_containers(tmp_path / "b")
        assert sorted(paths_a) == sorted(paths_b)
        for index, path in paths_a.items():
            assert path.read_bytes() == paths_b[index].read_bytes()

    def test_summary_agrees_with_generation(self):
        config = _small_config(
            unique_fraction=0.5, ops_per_client=301, clients=2, processes=1
        )
        population = ClientPopulation(config)
        schedule = population.generate()
        n_unique = unique_pool_size(301, 0.5)
        assert n_unique == 150
        summary = population.summary()
        assert summary["repetition_coefficient"] == 1.0 - n_unique / 301
        for client in range(config.clients):
            distinct = np.unique(schedule.addr[schedule.client == client]).size
            assert distinct <= n_unique


class TestForecastFit:
    """``fit_forecast``: the planner's observed-population hand-off."""

    def test_poisson_population_fits_poisson(self):
        config = _small_config(arrival="poisson", ops_per_client=600)
        schedule = ClientPopulation(config).generate()
        fitted = fit_forecast(schedule)
        assert fitted.arrival == "poisson"
        assert fitted.clients == config.clients
        assert fitted.processes == config.processes
        assert fitted.ops_per_client == config.ops_per_client
        assert fitted.seed != config.seed
        assert 0.0 <= fitted.unique_fraction <= 1.0
        assert PopulationConfig.from_dict(fitted.to_dict()) == fitted

    def test_diurnal_population_recovers_the_curve_shape(self):
        config = _small_config(
            arrival="diurnal", ops_per_client=2000, clients=4
        )
        schedule = ClientPopulation(config).generate()
        fitted = fit_forecast(schedule, bins=24)
        assert fitted.arrival == "diurnal"
        assert fitted.diurnal_phase == 0.0
        got = np.asarray(fitted.diurnal_curve)
        assert got.sum() == pytest.approx(1.0)
        truth = np.asarray(DEFAULT_DIURNAL_CURVE, dtype=float)
        corr = np.corrcoef(truth / truth.sum(), got)[0, 1]
        assert corr > 0.9

    def test_fit_is_deterministic_and_forecast_generates(self):
        config = _small_config(arrival="diurnal", ops_per_client=800)
        schedule = ClientPopulation(config).generate()
        assert fit_forecast(schedule) == fit_forecast(schedule)
        fitted = fit_forecast(schedule)
        forecast = ClientPopulation(fitted).generate()
        assert len(forecast) == fitted.clients * fitted.ops_per_client

    def test_unique_fraction_estimate_tracks_reuse(self):
        low = fit_forecast(
            ClientPopulation(_small_config(unique_fraction=0.05)).generate()
        )
        high = fit_forecast(
            ClientPopulation(_small_config(unique_fraction=1.0)).generate()
        )
        assert low.unique_fraction < high.unique_fraction

    def test_empty_schedule_and_bad_knobs_rejected(self):
        config = _small_config()
        schedule = ClientPopulation(config).generate()
        with pytest.raises(KindleError):
            fit_forecast(schedule, bins=0)
        with pytest.raises(KindleError):
            fit_forecast(schedule, diurnal_ratio=0.5)


class TestScheduleStructure:
    def test_execution_order_is_a_permutation(self):
        config = _small_config()
        schedule = ClientPopulation(config).generate()
        order = schedule.execution_order()
        assert sorted(order.tolist()) == list(range(len(schedule)))

    def test_plan_segments_partition_the_schedule(self):
        config = _small_config()
        schedule = ClientPopulation(config).generate()
        plan = schedule.plan()
        covered = 0
        for proc, start, end in plan.segments:
            assert start == covered and end > start
            assert 0 <= proc < config.processes
            covered = end
        assert covered == len(schedule)

    def test_client_windows_do_not_overlap_within_a_process(self):
        config = _small_config(clients=6, processes=2)
        span = client_window_span(config)
        bases = {}
        for client in range(config.clients):
            process = client % config.processes
            base = client_base_vaddr(config, client)
            for other in bases.get(process, []):
                assert abs(base - other) >= span
            bases.setdefault(process, []).append(base)

    def test_container_round_trip(self, tmp_path):
        config = _small_config()
        schedule = ClientPopulation(config).generate()
        paths = schedule.save_containers(tmp_path)
        assert set(paths) == set(range(config.processes))
        for index, packed in schedule.packed_traces().items():
            loaded = load_trace_packed(paths[index])
            assert np.array_equal(loaded.period, packed.period)
            assert np.array_equal(loaded.addr, packed.addr)
            assert np.array_equal(loaded.size, packed.size)
            assert np.array_equal(loaded.is_write, packed.is_write)
        # Containers are ts-ordered per process (prep pipeline format).
        for packed in schedule.packed_traces().values():
            assert np.all(np.diff(packed.period.astype(np.int64)) >= 0)


class TestProfiles:
    def test_profiles_pin_table2_mixes(self):
        """Profile read fractions are not free parameters: each sourced
        profile must quote its Table II read/write mix exactly."""
        sourced = 0
        for profile in PROFILES.values():
            if profile.mix_source is None:
                continue
            reads, writes = TABLE2_MIXES[profile.mix_source]
            assert profile.read_fraction == reads / (reads + writes)
            sourced += 1
        assert sourced >= 3  # all three paper workloads represented


class TestInterferenceAttribution:
    def test_two_run_determinism(self):
        config = _small_config()
        first_system, first = _replay(config)
        second_system, second = _replay(config)
        assert first_system.stats.dump() == second_system.stats.dump()
        assert first.final_clock == second.final_clock

    def test_cross_process_tlb_attribution(self):
        config = _small_config(clients=12, processes=3, ops_per_client=400)
        system, result = _replay(config)
        assert result.context_switches > 1
        report = interference_report(system.stats)
        assert report["tlb"]["cross"] > 0
        # Pair counters decompose the cross total exactly.
        assert sum(report["tlb"]["pairs"].values()) == report["tlb"]["cross"]
        for pair in report["tlb"]["pairs"]:
            evictor, _, victim = pair.partition("_evicted_")
            assert evictor != victim

    def test_llc_thrash_profiles_cross_evict(self):
        """Four llc_thrash clients (combined working set 6 MiB) against
        the 2 MiB LLC on two processes must produce cross-process LLC
        evictions with a populated blame matrix."""
        config = _small_config(
            clients=4,
            processes=2,
            ops_per_client=12_000,
            unique_fraction=1.0,
            profile_mix=(("llc_thrash", 1.0),),
            sched_slices=8,
        )
        system, _ = _replay(config)
        report = interference_report(system.stats)
        assert report["llc"]["cross"] > 0
        assert report["llc"]["pairs"]
        assert (
            sum(report["llc"]["pairs"].values()) == report["llc"]["cross"]
        )

    def test_row_buffer_attribution_splits_by_channel(self):
        config = _small_config(clients=8, processes=2, ops_per_client=600)
        system, _ = _replay(config)
        report = interference_report(system.stats)
        # The default mix maps both DRAM and NVM windows, so both
        # channels see row switches with a previous bank owner.
        dram, nvm = report["row"]["dram"], report["row"]["nvm"]
        assert dram["self"] + dram["cross"] > 0
        assert nvm["self"] + nvm["cross"] > 0

    def test_run_result_splits_scalar_ops_by_fallback_reason(self):
        config = _small_config()
        _, result = _replay(config)
        assert tuple(result.fallbacks) == FALLBACK_REASONS
        assert sum(result.fallbacks.values()) == result.scalar_ops > 0
        # First touches of the freshly mapped client windows fault.
        assert result.fallbacks["fault"] > 0
        _, scalar = _replay(config, batch=False)
        assert scalar.fallbacks == {}

    def test_report_shapes_empty_stats(self):
        report = interference_report(Stats())
        assert report["llc"] == {"self": 0, "cross": 0, "pairs": {}}
        assert report["row"]["nvm"] == {"self": 0, "cross": 0, "pairs": {}}


class TestTimestampScheduler:
    def test_dispatch_same_process_is_free(self):
        from repro.gemos.scheduler import TimestampScheduler

        system = _booted_system()
        first = system.kernel.create_process("a", persistent=False)
        second = system.kernel.create_process("b", persistent=False)
        scheduler = TimestampScheduler(system.kernel)
        assert scheduler.dispatch(first) is True
        clock = system.machine.clock
        assert scheduler.dispatch(first) is False  # already current
        assert system.machine.clock == clock  # and free
        assert scheduler.dispatch(second) is True
        assert scheduler.switches == 2
        assert system.stats["sched.context_switches"] == 2


class TestCli:
    def test_traffic_cli_writes_report(self, tmp_path, capsys):
        from repro.harness.__main__ import main

        out = tmp_path / "BENCH_machine.json"
        code = main(
            [
                "traffic",
                "--smoke",
                "--clients",
                "6",
                "--processes",
                "2",
                "--traffic-ops",
                "1800",
                "-j",
                "1",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--trace-dir",
                str(tmp_path / "traces"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        section = report["traffic"]
        assert section["ops"] == 1800
        assert section["determinism"] == {"runs": 2, "verified": True}
        assert len(section["stats_sha256"]) == 64
        assert section["interference"]["tlb"]["cross"] > 0
        # Keyed by gemOS pid (the same identity the interference pair
        # counters blame), one entry per provisioned process.
        assert len(section["per_process_ops"]) == 2
        assert all(key.startswith("p") for key in section["per_process_ops"])
        assert sum(section["per_process_ops"].values()) == 1800
        split = section["op_split"]
        assert sum(split["fallbacks"].values()) == split["scalar"]
        assert (tmp_path / "traces" / "traffic_p0.bin").exists()
        assert report["schema"].startswith("bench_machine/")
        captured = capsys.readouterr()
        assert "interference.tlb" in captured.out
        assert "byte-identical" in captured.out
