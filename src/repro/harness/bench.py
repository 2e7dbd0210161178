"""Replay-throughput benchmark: ``python -m repro.harness bench``.

The paper experiments replay 60-200k-operation traces across many
checkpoint/migration intervals, so simulator throughput (wall-clock
ops/sec of :meth:`Machine.access`) bounds experiment coverage.  This
harness replays calibrated synthetic traces through a freshly built
machine per scenario and records ops/sec so every PR leaves a perf
trajectory behind (``BENCH_machine.json``).

Scenarios
---------

``l1_resident``
    16 KiB working set, every access hits the L1 — the pure hot-path
    cost of ``access`` + ``translate`` + ``phys_line_access``.
``llc_resident``
    1 MiB working set: misses L1/L2, hits the LLC.
``nvm_miss_heavy``
    8 MiB working set in NVM, strided to defeat the LLC; exercises the
    controller, open-row model and NVM write buffer.
``fault_heavy``
    every op touches a brand-new page: TLB miss, failed walk, demand
    fault, re-walk, TLB fill/eviction.
``l1_extensions``
    the L1-resident trace with a no-op hardware extension attached, so
    the hook-dispatch overhead is tracked separately.
``traffic``
    a seeded multi-client traffic population (8 clients' interleaved
    streams, :mod:`repro.workloads.traffic`) replayed against one booted
    gemOS process with the interference monitor installed — prices the
    fault path, the monitor hooks and the mixed DRAM/NVM client mix
    together.

Output schema (``BENCH_machine.json``)
--------------------------------------

``schema``
    ``"bench_machine/v6"`` (v2 added ``host`` and ``sweep``; v3 added
    the optional ``batch`` section; v4 added the ``traffic`` scenario
    and the ``traffic`` section written by ``python -m repro.harness
    traffic`` — population config, interference attribution, op split,
    ``stats_sha256`` and determinism verdict for a fleet run; v5: the
    batch engine gained the vectorized miss-run kernel, so ``batch``
    rates on miss-heavy scenarios measure the LLC/row-buffer/
    controller path and the batched op fraction covers TLB-thrashing
    premapped traces; v6 added the ``plan`` section written by
    ``python -m repro.harness plan``).
``unit``
    always ``"simulated memory operations per wall-clock second"``.
``host``
    cpu count, python version and platform of the machine that produced
    the numbers — cross-machine comparisons are meaningless without it.
``baseline``
    the pre-optimisation (PR 1 seed) measurement this machine's numbers
    are compared against: ``{"label": ..., "ops_per_sec": {scenario: float}}``.
``current``
    this run: ``ops_per_sec``, ``elapsed_s``, ``ops`` and the simulated
    ``final_clock`` per scenario (the clock doubles as a fidelity
    anchor: optimisations must not change it).
``speedup_vs_baseline``
    ``current/baseline`` per scenario present in both.
``batch``
    present when the run was invoked with ``--batch``: every scenario
    replayed a second time through :class:`repro.replay.BatchReplayer`
    (trace packing happens outside the timed window).  Carries the
    batch-mode ``ops_per_sec``/``elapsed_s``, the batched/scalar op
    split (whose ``fallbacks`` count the scalar ops per fallback
    reason), ``speedup_vs_scalar``, and ``final_clock`` — which the
    harness asserts equal to the scalar run's clock before writing the
    report (cheap first line of the golden-equivalence defence).
``sweep``
    the sweep-engine measurement (:func:`measure_sweep`): wall-clock of
    a representative experiment sweep run serially, in parallel at
    ``workers`` jobs, and again warm from the result cache, plus the
    derived speedup / warm-over-cold ratio / cache-hit rate.  With
    fewer than two workers or CPUs there is no parallelism to measure:
    ``speedup`` is then ``null`` and ``speedup_reason`` says why.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch.hooks import HardwareExtension
from repro.arch.machine import Machine, WalkRecord
from repro.common.config import MachineConfig, small_machine_config
from repro.common.rng import derive_rng
from repro.common.units import CACHE_LINE, PAGE_SIZE
from repro.exec import SweepEngine, sweep
from repro.harness.compare import compute_speedups
from repro.mem.hybrid import MemType
from repro.prep.trace import PackedTrace
from repro.replay import BatchReplayer

#: One trace record: (vaddr, size, is_write).
Op = Tuple[int, int, bool]

#: v6 adds the ``plan`` section (``python -m repro.harness plan``:
#: blueprint ranking over a forecast/trace workload).
SCHEMA = "bench_machine/v6"

#: Seed-tree throughput measured before the PR 1 hot-path overhaul
#: (same scenarios, same op counts, best of 3 on the reference runner).
#: This is the denominator of ``speedup_vs_baseline`` — update it only
#: when re-baselining on purpose.
SEED_BASELINE = {
    "label": "seed tree (pre hot-path overhaul, PR 1), best of 3",
    "ops_per_sec": {
        "l1_resident": 539_420.4,
        "llc_resident": 92_814.7,
        "nvm_miss_heavy": 67_869.4,
        "fault_heavy": 63_616.2,
        "l1_extensions": 360_124.0,
        "traffic": 42_289.7,
    },
}

#: Default replayed ops per scenario (full run / --smoke run).
DEFAULT_OPS = {
    "l1_resident": 200_000,
    "llc_resident": 120_000,
    "nvm_miss_heavy": 60_000,
    "fault_heavy": 30_000,
    "l1_extensions": 120_000,
    "traffic": 60_000,
}
SMOKE_OPS = {name: 2_000 for name in DEFAULT_OPS}


class _NopExtension(HardwareExtension):
    """Attached by ``l1_extensions`` to price the hook-dispatch path."""


def _premapped_machine(
    config: Optional[MachineConfig] = None,
    nvm: bool = False,
    npages: int = 0,
) -> Tuple[Machine, Dict[int, Tuple[int, bool]]]:
    """A machine with ``npages`` identity-mapped pages and no fault path."""
    machine = Machine(config or small_machine_config())
    if nvm:
        base_pfn, _ = machine.layout.pfn_range(MemType.NVM)
    else:
        base_pfn, _ = machine.layout.pfn_range(MemType.DRAM)
    mapping: Dict[int, Tuple[int, bool]] = {
        vpn: (base_pfn + vpn, True) for vpn in range(npages)
    }

    def walker(vpn: int) -> WalkRecord:
        # Premapped: no page-table entries to read.
        return (), *mapping.get(vpn, (None, False))

    machine.install_context(1, walker, None)
    return machine, mapping


def _mixed_rw_trace(
    name: str, ops: int, nbytes: int, stride: int, write_every: int
) -> List[Op]:
    """Strided sweep over ``nbytes`` with every ``write_every``-th op a write."""
    rng = derive_rng(17, f"bench.{name}")
    lines = nbytes // CACHE_LINE
    trace: List[Op] = []
    line = 0
    for i in range(ops):
        line = (line + stride) % lines
        vaddr = line * CACHE_LINE + rng.randrange(0, CACHE_LINE - 8)
        trace.append((vaddr, 8, i % write_every == 0))
    return trace


def _build_l1_resident(ops: int, extensions: bool = False):
    nbytes = 16 * 1024
    machine, _ = _premapped_machine(npages=nbytes // PAGE_SIZE)
    if extensions:
        machine.attach_extension(_NopExtension())
    return machine, _mixed_rw_trace("l1", ops, nbytes, stride=1, write_every=4)


def _build_llc_resident(ops: int):
    nbytes = 1024 * 1024
    machine, _ = _premapped_machine(npages=nbytes // PAGE_SIZE)
    # Stride of 131 lines (coprime with the set counts) sweeps the whole
    # working set while defeating the L1/L2 but staying LLC-resident.
    return machine, _mixed_rw_trace("llc", ops, nbytes, stride=131, write_every=4)


def _build_nvm_miss_heavy(ops: int):
    nbytes = 8 * 1024 * 1024
    machine, _ = _premapped_machine(nvm=True, npages=nbytes // PAGE_SIZE)
    # A large coprime stride defeats the 2 MiB LLC: most ops miss all
    # the way to the NVM devices; 1 in 3 ops writes into the buffer.
    return machine, _mixed_rw_trace("nvm", ops, nbytes, stride=4099, write_every=3)


def _build_traffic(ops: int):
    """A small traffic population against one booted gemOS process.

    Unlike the premapped scenarios this boots the full platform: real
    page faults, the hybrid DRAM/NVM client mix and the interference
    monitor's hooks are all on the timed path.  Single-process so the
    replay loop (not the context-switch machinery) dominates.
    """
    from repro.arch.interference import InterferenceMonitor
    from repro.platform import HybridSystem
    from repro.workloads.traffic import (
        ClientPopulation,
        PopulationConfig,
        TrafficScheduler,
    )

    clients = 8
    config = PopulationConfig(
        seed=41,
        clients=clients,
        processes=1,
        ops_per_client=-(-ops // clients),
        arrival="poisson",
        period=1 << 20,
    )
    schedule = ClientPopulation(config).generate()
    system = HybridSystem(config=small_machine_config(), persistence=False)
    system.boot()
    system.machine.install_interference_monitor(InterferenceMonitor())
    scheduler = TrafficScheduler(system, schedule)
    scheduler.provision()
    system.kernel.switch_to(scheduler.processes[0])
    trace: List[Op] = [
        (int(vaddr), int(size), bool(write))
        for vaddr, size, write in zip(
            schedule.addr[:ops], schedule.size[:ops], schedule.write[:ops]
        )
    ]
    return system.machine, trace


def _build_fault_heavy(ops: int):
    machine = Machine(small_machine_config())
    npages = machine.layout.config.dram_bytes // PAGE_SIZE
    mapping: Dict[int, Tuple[int, bool]] = {}

    def walker(vpn: int) -> WalkRecord:
        return (), *mapping.get(vpn, (None, False))

    def fault_handler(vaddr: int, _is_write: bool) -> None:
        vpn = vaddr // PAGE_SIZE
        mapping[vpn] = (vpn % npages, True)

    machine.install_context(1, walker, fault_handler)
    rng = derive_rng(17, "bench.fault")
    trace: List[Op] = [
        (vpn * PAGE_SIZE + rng.randrange(0, PAGE_SIZE - 8), 8, vpn % 2 == 0)
        for vpn in range(ops)
    ]
    return machine, trace


#: scenario name -> builder(ops) -> (machine, trace).
SCENARIOS: Dict[str, Callable] = {
    "l1_resident": _build_l1_resident,
    "llc_resident": _build_llc_resident,
    "nvm_miss_heavy": _build_nvm_miss_heavy,
    "fault_heavy": _build_fault_heavy,
    "l1_extensions": lambda ops: _build_l1_resident(ops, extensions=True),
    "traffic": _build_traffic,
}


def _replay(machine: Machine, trace: List[Op]) -> float:
    """Replay ``trace`` and return elapsed wall-clock seconds."""
    access = machine.access
    start = time.perf_counter()  # repro: allow-nondet(bench measures wall-clock by design)
    for vaddr, size, is_write in trace:
        access(vaddr, size, is_write)
    return time.perf_counter() - start  # repro: allow-nondet(bench measures wall-clock by design)


def _replay_batched(
    machine: Machine, packed: PackedTrace
) -> Tuple[float, BatchReplayer]:
    """Replay a pre-packed trace in batch mode; returns (elapsed, replayer).

    The caller packs the trace outside the timed window: packing is a
    one-time preparation cost (and on-disk traces load already packed),
    not part of replay throughput.
    """
    replayer = BatchReplayer(machine)
    start = time.perf_counter()  # repro: allow-nondet(bench measures wall-clock by design)
    replayer.replay(packed)
    elapsed = time.perf_counter() - start  # repro: allow-nondet(bench measures wall-clock by design)
    return elapsed, replayer


def run_scenario(
    name: str, ops: int, repeats: int = 3, batch: bool = False
) -> Dict[str, float]:
    """Run one scenario ``repeats`` times on fresh machines; keep the best.

    A fresh machine per repeat keeps cache/TLB warm-up identical across
    repeats, so the best run measures interpreter speed, not state —
    and it also means every repeat must end on the *same* simulated
    clock.  A divergent clock is a nondeterminism canary (scenario
    builder leaking state, or replay touching wall-clock), so it fails
    loudly here rather than poisoning the trajectory file.  All
    reported numbers (``elapsed_s`` and ``ops_per_sec``) come from the
    single best repeat.
    """
    builder = SCENARIOS[name]
    best = float("inf")
    final_clock: Optional[int] = None
    batched_ops = scalar_ops = 0
    fallbacks: Dict[str, int] = {}
    for repeat in range(max(1, repeats)):
        machine, trace = builder(ops)
        if batch:
            packed = PackedTrace.from_ops(trace)
            elapsed, replayer = _replay_batched(machine, packed)
            batched_ops = replayer.batched_ops
            scalar_ops = replayer.scalar_ops
            fallbacks = replayer.fallbacks
        else:
            elapsed = _replay(machine, trace)
        if final_clock is None:
            final_clock = machine.clock
        elif machine.clock != final_clock:
            raise RuntimeError(
                f"bench[{name}]: repeat {repeat} ended at clock "
                f"{machine.clock}, previous repeats at {final_clock} — "
                "scenario replay is nondeterministic"
            )
        best = min(best, elapsed)
    result = {
        "ops": ops,
        "elapsed_s": best,
        "ops_per_sec": ops / best if best > 0 else float("inf"),
        "final_clock": final_clock,
    }
    if batch:
        result["batched_ops"] = batched_ops
        result["scalar_ops"] = scalar_ops
        result["fallbacks"] = fallbacks
    return result


def bench_cell(
    name: str, ops: int, repeats: int = 3, batch: bool = False
) -> Dict[str, float]:
    """Sweep-engine cell: one timed scenario (never cached — timings
    depend on the machine's wall-clock, not just code + kwargs)."""
    return run_scenario(name, ops, repeats=repeats, batch=batch)


def host_metadata() -> Dict[str, object]:
    """Who produced these numbers — without this, cross-machine
    comparisons of ops/sec (or sweep speedups) are meaningless."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def run_bench(
    smoke: bool = False,
    repeats: int = 3,
    scenarios: Optional[List[str]] = None,
    engine: Optional[SweepEngine] = None,
    batch: bool = False,
) -> Dict[str, object]:
    """Run all (or the selected) scenarios and assemble the report.

    With an ``engine``, scenarios dispatch as (uncacheable) sweep cells.
    Note that timing cells contend for cores when run concurrently —
    parallel bench runs finish sooner but report lower ops/sec; leave
    the engine serial (the default) for trajectory-quality numbers.

    With ``batch``, every scenario additionally replays through the
    batch engine and the report gains a ``batch`` section;
    the scalar numbers are measured exactly as before, so batch runs
    remain comparable with the existing trajectory.
    """
    budgets = SMOKE_OPS if smoke else DEFAULT_OPS
    names = scenarios or list(SCENARIOS)
    cells = [
        {
            "name": name,
            "ops": budgets[name],
            "repeats": 1 if smoke else repeats,
        }
        for name in names
    ]
    labels = [f"bench[{name}]" for name in names]
    if batch:
        cells += [dict(cell, batch=True) for cell in cells]
        labels += [f"bench-batch[{name}]" for name in names]
    results = sweep(
        engine,
        "repro.harness.bench:bench_cell",
        cells,
        labels=labels,
        cacheable=False,
    )
    current_ops_per_sec: Dict[str, float] = {}
    elapsed: Dict[str, float] = {}
    ops: Dict[str, int] = {}
    clocks: Dict[str, int] = {}
    for name, result in zip(names, results):
        current_ops_per_sec[name] = round(result["ops_per_sec"], 1)
        elapsed[name] = round(result["elapsed_s"], 4)
        ops[name] = result["ops"]
        clocks[name] = result["final_clock"]
    speedups, speedup_warnings = compute_speedups(
        current_ops_per_sec, SEED_BASELINE["ops_per_sec"]
    )
    for warning in speedup_warnings:
        print(f"bench: speedup_vs_baseline: {warning}")
    report: Dict[str, object] = {
        "schema": SCHEMA,
        "generated_by": "python -m repro.harness bench"
        + (" --smoke" if smoke else "")
        + (" --batch" if batch else ""),
        "unit": "simulated memory operations per wall-clock second",
        "smoke": smoke,
        "host": host_metadata(),
        "baseline": SEED_BASELINE,
        "current": {
            "ops_per_sec": current_ops_per_sec,
            "elapsed_s": elapsed,
            "ops": ops,
            "final_clock": clocks,
        },
        "speedup_vs_baseline": speedups,
    }
    if batch:
        batch_rates: Dict[str, float] = {}
        batch_elapsed: Dict[str, float] = {}
        batch_split: Dict[str, Dict[str, int]] = {}
        batch_clocks: Dict[str, int] = {}
        for name, result in zip(names, results[len(names):]):
            if result["final_clock"] != clocks[name]:
                raise RuntimeError(
                    f"bench[{name}]: batch replay ended at clock "
                    f"{result['final_clock']}, scalar at {clocks[name]} — "
                    "batch/scalar equivalence violated"
                )
            batch_rates[name] = round(result["ops_per_sec"], 1)
            batch_elapsed[name] = round(result["elapsed_s"], 4)
            batch_split[name] = {
                "batched": result["batched_ops"],
                "scalar": result["scalar_ops"],
                "fallbacks": result["fallbacks"],
            }
            batch_clocks[name] = result["final_clock"]
        batch_speedups, batch_warnings = compute_speedups(
            batch_rates, current_ops_per_sec
        )
        for warning in batch_warnings:
            print(f"bench: speedup_vs_scalar: {warning}")
        report["batch"] = {
            "ops_per_sec": batch_rates,
            "elapsed_s": batch_elapsed,
            "op_split": batch_split,
            "final_clock": batch_clocks,
            "speedup_vs_scalar": batch_speedups,
        }
    return report


# ----------------------------------------------------------------------
# sweep-engine measurement (the ``sweep`` section)
# ----------------------------------------------------------------------

#: Representative experiment sweep timed by :func:`measure_sweep`:
#: the Fig. 4a grid at reduced region scale (full run / --smoke run).
SWEEP_SIZES_MB = (64, 128, 256, 512)
SWEEP_SCALE = 0.125
SMOKE_SWEEP_SIZES_MB = (16, 32)
SMOKE_SWEEP_SCALE = 0.25


def measure_sweep(jobs: Optional[int] = None, smoke: bool = False) -> Dict:
    """Time a representative sweep serial vs parallel vs cache-warm.

    Three runs of the same Fig. 4a grid: the plain serial loop (no
    engine), a cold parallel run against a fresh cache, and a re-run
    against that now-warm cache.  Scratch cache directories live under
    a temp dir so measurement never touches ``artifacts/cache``.  The
    parallel speedup is recorded as not measured (``None`` plus a
    reason) when fewer than two workers or CPUs are available.
    """
    from repro.harness.experiments import run_fig4a

    sizes = SMOKE_SWEEP_SIZES_MB if smoke else SWEEP_SIZES_MB
    scale = SMOKE_SWEEP_SCALE if smoke else SWEEP_SCALE
    with tempfile.TemporaryDirectory(prefix="kindle-sweep-") as tmp:
        start = time.perf_counter()  # repro: allow-nondet(bench measures wall-clock by design)
        serial = run_fig4a(sizes_mb=sizes, scale=scale)
        serial_s = time.perf_counter() - start  # repro: allow-nondet(bench measures wall-clock by design)
        cold_engine = SweepEngine(jobs=jobs, cache_dir=Path(tmp) / "cache")
        start = time.perf_counter()  # repro: allow-nondet(bench measures wall-clock by design)
        parallel = run_fig4a(sizes_mb=sizes, scale=scale, engine=cold_engine)
        parallel_s = time.perf_counter() - start  # repro: allow-nondet(bench measures wall-clock by design)
        warm_engine = SweepEngine(
            jobs=cold_engine.jobs, cache_dir=Path(tmp) / "cache"
        )
        start = time.perf_counter()  # repro: allow-nondet(bench measures wall-clock by design)
        warm = run_fig4a(sizes_mb=sizes, scale=scale, engine=warm_engine)
        warm_s = time.perf_counter() - start  # repro: allow-nondet(bench measures wall-clock by design)
    cpus = os.cpu_count() or 1
    workers = cold_engine.jobs
    if min(workers, cpus) < 2:
        speedup = None
        reason = f"not measured: {workers} worker(s) on {cpus} CPU(s)"
    else:
        speedup = round(serial_s / parallel_s, 2) if parallel_s else 0.0
        reason = None
    return {
        "experiment": "fig4a",
        "sizes_mb": list(sizes),
        "scale": scale,
        "cells": warm_engine.cells,
        "workers": workers,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": speedup,
        "speedup_reason": reason,
        "warm_s": round(warm_s, 4),
        "warm_over_cold": round(warm_s / parallel_s, 4) if parallel_s else 0.0,
        "warm_cache_hit_rate": (
            round(warm_engine.cache_hits / warm_engine.cells, 4)
            if warm_engine.cells
            else 0.0
        ),
        "identical_output": serial == parallel == warm,
    }


def print_sweep(sweep_report: Dict) -> None:
    """Text summary of a :func:`measure_sweep` report."""
    speedup = sweep_report["speedup"]
    parallel_note = (
        sweep_report["speedup_reason"] if speedup is None else f"{speedup:.2f}x"
    )
    print(
        f"== sweep engine ({sweep_report['experiment']}, "
        f"{sweep_report['cells']} cells, {sweep_report['workers']} workers) =="
    )
    print(
        f"  serial {sweep_report['serial_s']:.2f}s  "
        f"parallel {sweep_report['parallel_s']:.2f}s ({parallel_note})  "
        f"warm-cache {sweep_report['warm_s']:.2f}s "
        f"({100 * sweep_report['warm_over_cold']:.1f}% of cold, "
        f"{100 * sweep_report['warm_cache_hit_rate']:.0f}% hits)"
    )


def bench_main(
    out_path: str,
    smoke: bool = False,
    repeats: int = 3,
    jobs: Optional[int] = None,
    batch: bool = False,
) -> int:
    """CLI entry: run, print a table, write the JSON trajectory file.

    ``jobs`` sizes the sweep-engine measurement's worker pool (default:
    ``os.cpu_count()``); the throughput scenarios themselves always run
    serially so the trajectory stays contention-free.
    """
    report = run_bench(smoke=smoke, repeats=repeats, batch=batch)
    current = report["current"]
    print(f"== replay throughput ({report['unit']}) ==")
    for name, rate in current["ops_per_sec"].items():
        base = report["baseline"]["ops_per_sec"].get(name, 0.0)
        speedup = f"  ({rate / base:.2f}x baseline)" if base > 0 else ""
        print(
            f"  {name:<16} {rate:>12,.0f} ops/s  "
            f"[{current['ops'][name]} ops in {current['elapsed_s'][name]:.3f}s]"
            f"{speedup}"
        )
    if batch:
        batch_section = report["batch"]
        print("== batch replay (same scenarios, miss-run kernel) ==")
        for name, rate in batch_section["ops_per_sec"].items():
            split = batch_section["op_split"][name]
            ratio = batch_section["speedup_vs_scalar"].get(name)
            vs = f"  ({ratio:.2f}x scalar)" if ratio is not None else ""
            print(
                f"  {name:<16} {rate:>12,.0f} ops/s  "
                f"[{split['batched']} batched / {split['scalar']} scalar]"
                f"{vs}"
            )
    sweep_report = measure_sweep(jobs=jobs, smoke=smoke)
    report["sweep"] = sweep_report
    print_sweep(sweep_report)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 0
