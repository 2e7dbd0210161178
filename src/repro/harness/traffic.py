"""Fleet traffic harness: ``python -m repro.harness traffic``.

Generates a seeded client population (:mod:`repro.workloads.traffic`),
provisions it across several gemOS processes, replays the merged
schedule through the batch engine (or the scalar loop with
``--scalar``), and records the run — including the cross-process
interference attribution the paper never measured — as a ``traffic``
section in ``BENCH_machine.json``.

Determinism is part of the contract: by default every invocation
replays the schedule **twice** on fresh systems and fails loudly unless
the two runs produce byte-identical stats dumps and final clocks.  The
report carries ``stats_sha256`` so two separate invocations (e.g. the
CI cold and warm runs) can also be compared byte-for-byte — and when
the out file already records a run of the same population config, the
new run must match its sha256/final clock or the harness raises (the
fidelity gate that keeps the batch engine's vectorized miss path honest
against the recorded scalar-equivalent history).

Generation itself runs through the sweep engine when ``-j``/caching is
requested: client ranges shard into content-addressed cells, so a
re-run with an unchanged population config comes straight from cache.
"""

from __future__ import annotations

import json
import time
from hashlib import sha256
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.arch.interference import InterferenceMonitor, interference_report
from repro.exec import SweepEngine
from repro.harness.bench import SCHEMA, host_metadata
from repro.platform import HybridSystem
from repro.workloads.traffic import (
    ClientPopulation,
    PopulationConfig,
    TrafficScheduler,
)

#: Full-run population: >= 10M ops across many processes (the ROADMAP
#: item 1 target).  39_063 * 256 = 10_000_128 ops.
FULL_CLIENTS = 256
FULL_PROCESSES = 8
FULL_TOTAL_OPS = 10_000_000

#: Smoke population for CI: same structure, ~48k ops.
SMOKE_CLIENTS = 24
SMOKE_PROCESSES = 4
SMOKE_TOTAL_OPS = 48_000


def population_config(
    smoke: bool = False,
    clients: Optional[int] = None,
    processes: Optional[int] = None,
    total_ops: Optional[int] = None,
    seed: int = 2024,
    arrival: str = "poisson",
) -> PopulationConfig:
    """Resolve CLI knobs into a :class:`PopulationConfig`."""
    clients = clients or (SMOKE_CLIENTS if smoke else FULL_CLIENTS)
    processes = processes or (SMOKE_PROCESSES if smoke else FULL_PROCESSES)
    total = total_ops or (SMOKE_TOTAL_OPS if smoke else FULL_TOTAL_OPS)
    return PopulationConfig(
        seed=seed,
        clients=clients,
        processes=processes,
        ops_per_client=-(-total // clients),
        arrival=arrival,
    )


def _one_run(
    schedule, batch: bool
) -> Tuple[HybridSystem, object, float]:
    """Fresh system, provision, replay; returns (system, result, secs)."""
    system = HybridSystem(persistence=False)
    system.boot()
    system.machine.install_interference_monitor(InterferenceMonitor())
    scheduler = TrafficScheduler(system, schedule)
    scheduler.provision()
    start = time.perf_counter()  # repro: allow-nondet(harness measures wall-clock by design)
    result = scheduler.run(batch=batch)
    elapsed = time.perf_counter() - start  # repro: allow-nondet(harness measures wall-clock by design)
    return system, result, elapsed


def run_traffic(
    config: PopulationConfig,
    batch: bool = True,
    engine: Optional[SweepEngine] = None,
    verify: bool = True,
    trace_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Generate, replay and summarize one traffic run.

    With ``verify`` (the default) the schedule replays twice on fresh
    systems; a divergent stats dump or final clock raises — the same
    nondeterminism-canary posture as the bench harness, applied to the
    whole multi-process OS + machine stack.
    """
    population = ClientPopulation(config)
    start = time.perf_counter()  # repro: allow-nondet(harness measures wall-clock by design)
    schedule = population.generate(engine=engine)
    generation_s = time.perf_counter() - start  # repro: allow-nondet(harness measures wall-clock by design)
    container_paths = (
        schedule.save_containers(trace_dir) if trace_dir else None
    )
    system, result, elapsed = _one_run(schedule, batch)
    dump = system.stats.dump()
    final_clock = system.machine.clock
    if verify:
        second_system, _, _ = _one_run(schedule, batch)
        if (
            second_system.stats.dump() != dump
            or second_system.machine.clock != final_clock
        ):
            raise RuntimeError(
                "traffic replay is nondeterministic: two runs of the same "
                "schedule diverged (stats dump or final clock)"
            )
    per_process = {
        name.rsplit(".", 1)[-1]: value
        for name, value in sorted(
            system.stats.with_prefix("traffic.ops.p").items()
        )
    }
    section: Dict[str, object] = {
        "population": config.to_dict(),
        "summary": population.summary(),
        "mode": result.mode,
        "ops": result.ops,
        "elapsed_s": round(elapsed, 4),
        "ops_per_sec": round(result.ops / elapsed, 1) if elapsed > 0 else 0.0,
        "generation_s": round(generation_s, 4),
        "final_clock": final_clock,
        "stats_sha256": sha256(dump.encode("utf-8")).hexdigest(),
        "determinism": {"runs": 2 if verify else 1, "verified": verify},
        "context_switches": result.context_switches,
        "op_split": {
            "batched": result.batched_ops,
            "scalar": result.scalar_ops,
            "fallbacks": result.fallbacks,
        },
        "per_process_ops": per_process,
        "interference": interference_report(system.stats),
    }
    if engine is not None:
        section["generation_sweep"] = engine.stats()
    if container_paths is not None:
        section["containers"] = {
            f"p{index}": str(path)
            for index, path in sorted(container_paths.items())
        }
    return section


def _check_recorded_traffic(
    recorded: Optional[Dict[str, object]], section: Dict[str, object]
) -> None:
    """Fidelity gate against the trajectory file's recorded run.

    When the out file already carries a ``traffic`` section for the
    *same* population config, the new run must reproduce its stats
    sha256 and final clock byte-for-byte — regardless of which engine
    (batch or ``--scalar``) produced either run.  This is what makes
    the vectorized miss path safe to wire in by default: a kernel that
    drifts from the scalar semantics trips this gate on the first
    re-run, not after the trajectory file has been silently poisoned.
    A config change is a legitimate re-record and skips the check.
    """
    if not isinstance(recorded, dict):
        return
    if recorded.get("population") != section["population"]:
        return
    mismatches = [
        f"{field}: recorded {recorded.get(field)!r} != new {section[field]!r}"
        for field in ("stats_sha256", "final_clock")
        if recorded.get(field) != section[field]
    ]
    if mismatches:
        raise RuntimeError(
            "traffic run diverged from the recorded section for the same "
            "population config (replay fidelity regression): "
            + "; ".join(mismatches)
        )


def traffic_main(
    out_path: str,
    smoke: bool = False,
    engine: Optional[SweepEngine] = None,
    clients: Optional[int] = None,
    processes: Optional[int] = None,
    total_ops: Optional[int] = None,
    seed: int = 2024,
    arrival: str = "poisson",
    scalar: bool = False,
    trace_dir: Optional[str] = None,
    verify: bool = True,
) -> int:
    """CLI entry: run, print a summary, merge into the trajectory file."""
    config = population_config(
        smoke=smoke,
        clients=clients,
        processes=processes,
        total_ops=total_ops,
        seed=seed,
        arrival=arrival,
    )
    section = run_traffic(
        config,
        batch=not scalar,
        engine=engine,
        verify=verify,
        trace_dir=trace_dir,
    )
    section["generated_by"] = "python -m repro.harness traffic" + (
        " --smoke" if smoke else ""
    )
    interference = section["interference"]
    print(
        f"== traffic: {section['ops']:,} ops, {config.clients} clients on "
        f"{config.processes} processes ({section['mode']} mode) =="
    )
    print(
        f"  {section['ops_per_sec']:,.0f} ops/s  "
        f"[{section['elapsed_s']:.2f}s replay, "
        f"{section['generation_s']:.2f}s generation]  "
        f"final clock {section['final_clock']:,}"
    )
    print(
        f"  context switches {section['context_switches']:,}; op split "
        f"{section['op_split']['batched']:,} batched / "
        f"{section['op_split']['scalar']:,} scalar"
    )
    for kind, leaf in (
        ("llc", interference["llc"]),
        ("tlb", interference["tlb"]),
        ("row.dram", interference["row"]["dram"]),
        ("row.nvm", interference["row"]["nvm"]),
    ):
        print(
            f"  interference.{kind:<8} self {leaf['self']:>10,}  "
            f"cross {leaf['cross']:>10,}  ({len(leaf['pairs'])} pairs)"
        )
    if section["determinism"]["verified"]:
        print(
            f"  determinism: 2 runs byte-identical "
            f"(stats sha256 {section['stats_sha256'][:16]}…)"
        )
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    report: Dict[str, object] = {}
    if out.exists():
        try:
            report = json.loads(out.read_text(encoding="utf-8"))
        except ValueError:
            report = {}
        if not isinstance(report, dict):
            report = {}
    _check_recorded_traffic(report.get("traffic"), section)
    report.setdefault(
        "unit", "simulated memory operations per wall-clock second"
    )
    report.setdefault("host", host_metadata())
    report["schema"] = SCHEMA
    report["traffic"] = section
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 0
