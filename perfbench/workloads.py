"""The benchmark's workloads: paper code paths at a stated input size.

Every workload is a fixed amount of simulated work run to completion,
called in-process with no sweep engine (serial, one thread, no result
cache).  A workload splits into three steps:

``inputs(seed)``
    generate the program's inputs from the benchmark seed (set-up);
``ready(inputs)``
    build whatever must exist before the timed call (set-up);
``execute(inputs, state)``
    the timed call; returns an :class:`Execution`.

``imports`` names the simulator modules set-up imports; the result's
provenance stamp fingerprints their source.  ``seeded`` says whether
the inputs depend on the seed; an unseeded workload's outputs are
recorded once, for every seed.  Imports of the simulator
happen inside the functions, so they always resolve to the modules the
benchmark loaded last (set-up re-imports the simulator to time that
import too).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Execution:
    """What one timed execution did, read back from its systems."""

    elapsed_s: float
    systems: List = field(repr=False)
    #: Simulated user ops the inputs call for (checked against the
    #: dump); ``None`` where only the recorded digest pins the count.
    expected_ops: Optional[int]
    batched_ops: int = 0

    @property
    def stats_sha256(self) -> str:
        """sha256 over the stats dumps of every system, in boot order."""
        digest = hashlib.sha256()
        for index, system in enumerate(self.systems):
            digest.update(f"# system {index}\n{system.stats.dump()}\n".encode("utf-8"))
        return digest.hexdigest()

    @property
    def final_clock(self) -> List[int]:
        return [system.machine.clock for system in self.systems]

    def counter(self, name: str) -> int:
        return sum(system.stats[name] for system in self.systems)

    @property
    def sim_ops(self) -> int:
        return self.counter("ops.reads") + self.counter("ops.writes")

    @property
    def resident_frames(self) -> int:
        return sum(
            len(system.machine.physmem._frames)  # noqa: SLF001 - read-only probe
            for system in self.systems
        )


class _SystemRecorder:
    """Collects every HybridSystem booted while active (the paper cells
    build and shut down their own systems; the machines and their
    stats outlive the shutdown)."""

    def __enter__(self) -> List:
        from repro.platform import HybridSystem

        self._cls = HybridSystem
        self._boot = vars(HybridSystem)["boot"]
        booted = self.systems = []
        boot = self._boot

        def recording_boot(system):
            if system not in booted:
                booted.append(system)
            return boot(system)

        HybridSystem.boot = recording_boot
        return booted

    def __exit__(self, *exc) -> None:
        self._cls.boot = self._boot


class PersistChurn:
    """One Table IV grid point under both page-table schemes."""

    name = "persist_churn"
    seeded = False
    imports = ("repro.harness.experiments",)
    params: Dict[str, object] = {"churn_mb": 64, "interval_ms": 10.0, "scale": 0.0625}

    def inputs(self, seed: int) -> None:
        return None  # no random input: the seed is accepted and ignored

    def ready(self, inputs) -> None:
        return None  # the cell boots its own systems

    def execute(self, inputs, state) -> Execution:
        from repro.harness.experiments import table4_cell

        with _SystemRecorder() as systems:
            start = time.perf_counter()
            row = table4_cell(**self.params)
            elapsed = time.perf_counter() - start
        if not (row["persistent_ms"] > 0 and row["rebuild_ms"] > 0):
            raise AssertionError(f"table4 row has non-positive times: {row}")
        return Execution(elapsed, list(systems), None)


class HsccReplay:
    """One Fig. 6 grid point: the charged HSCC run plus the
    hardware-only baseline at the same pass count (``fig6_cell`` with
    the image generated in set-up)."""

    name = "hscc_replay"
    seeded = True
    imports = ("repro.harness.experiments",)
    params: Dict[str, object] = {
        "benchmark": "ycsb_mem",
        "threshold": 5,
        "total_ops": 20_000,
        "migration_interval_ms": 1.0,
        "pool_pages": 512,
        "target_ms": 5.0,
    }

    def inputs(self, seed: int):
        import repro.workloads.ycsb as ycsb

        return ycsb.generate_ycsb(total_ops=self.params["total_ops"], seed=seed)

    def ready(self, inputs) -> None:
        return None  # each run boots its own system

    def execute(self, image, state) -> Execution:
        from repro.harness.experiments import _run_hscc_once

        p = self.params
        with _SystemRecorder() as systems:
            start = time.perf_counter()
            charged = _run_hscc_once(
                image,
                p["threshold"],
                True,
                p["migration_interval_ms"],
                p["pool_pages"],
                target_ms=p["target_ms"],
            )
            hw_only = _run_hscc_once(
                image,
                p["threshold"],
                False,
                p["migration_interval_ms"],
                p["pool_pages"],
                repeats=charged["passes"],
            )
            elapsed = time.perf_counter() - start
        if not (charged["cycles"] > 0 and hw_only["cycles"] > 0):
            raise AssertionError("HSCC runs charged no cycles")
        expected = image.total_ops * 2 * charged["passes"]
        return Execution(elapsed, list(systems), expected)


class TrafficBatch:
    """A multi-process client population replayed through the batch
    engine with the interference monitor installed."""

    name = "traffic_batch"
    seeded = True
    imports = (
        "repro.workloads.traffic",
        "repro.arch.interference",
        "repro.platform",
        "repro.replay",
    )
    #: ``PopulationConfig`` defaults: 64 clients x 2,000 ops on 4
    #: processes, Poisson arrivals; the seed is the population seed.
    params: Dict[str, object] = {"clients": 64, "processes": 4, "ops_per_client": 2_000}

    def inputs(self, seed: int):
        from repro.workloads.traffic import ClientPopulation, PopulationConfig

        config = PopulationConfig(seed=seed, **self.params)
        return ClientPopulation(config).generate()

    def ready(self, schedule):
        from repro.arch.interference import InterferenceMonitor
        from repro.platform import HybridSystem
        from repro.workloads.traffic import TrafficScheduler

        system = HybridSystem(persistence=False)
        system.boot()
        system.machine.install_interference_monitor(InterferenceMonitor())
        scheduler = TrafficScheduler(system, schedule)
        scheduler.provision()
        return scheduler

    def execute(self, schedule, scheduler) -> Execution:
        start = time.perf_counter()
        result = scheduler.run(batch=True)
        elapsed = time.perf_counter() - start
        if result.batched_ops + result.scalar_ops != result.ops:
            raise AssertionError(f"op split does not add up: {result}")
        if result.final_clock != scheduler.system.machine.clock:
            raise AssertionError("run result and machine disagree on the clock")
        return Execution(elapsed, [scheduler.system], len(schedule), result.batched_ops)


WORKLOADS = {w.name: w for w in (PersistChurn(), HsccReplay(), TrafficBatch())}
