"""CLI: ``python -m repro.harness <experiment> [options]``.

Runs one paper experiment and prints its table.  ``--scale`` shrinks
region sizes and ``--ops`` shrinks workload lengths for quick runs;
defaults regenerate the paper-scale configuration.

Sweeps (the experiment drivers, ``crashtest`` and ``traffic``
population generation) execute through the
:mod:`repro.exec` engine: ``--jobs/-j`` sizes the worker pool (default
``os.cpu_count()``; ``-j 1`` forces the serial loop), finished cells
persist in a content-addressed cache under ``artifacts/cache/`` (skip
with ``--no-cache``, relocate with ``--cache-dir``), and ``--sweep-stats
PATH`` writes the engine's cells/cache-hits/elapsed counters as JSON —
CI uses it to assert warm-cache re-runs actually hit.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List

from repro.exec import SweepEngine
from repro.harness import experiments
from repro.harness.report import format_table


def _print_rows(result: Dict) -> None:
    rows: List[Dict] = result["rows"]
    if not rows:
        print("(no rows)")
        return
    headers = list(rows[0].keys())
    print(f"== {result['experiment']} ==")
    print(format_table(headers, [[row[h] for h in headers] for row in rows]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate Kindle paper tables/figures",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table2",
            "fig4a",
            "fig4b",
            "table3",
            "table4",
            "fig5",
            "fig6",
            "table5",
            "table6",
            "validate",
            "compare",
            "bench",
            "crashtest",
            "traffic",
            "plan",
        ],
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink persistence micro-benchmark region sizes (e.g. 0.125)",
    )
    parser.add_argument(
        "--ops",
        type=int,
        default=120_000,
        help="workload operation budget for fig5/fig6/table2/table5/table6",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="also render figure experiments as ASCII bar charts",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="bench/crashtest: reduced budgets for a CI smoke run",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        help="crashtest: restrict to a named scenario (repeatable)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="bench: timing repeats per scenario (best is kept)",
    )
    parser.add_argument(
        "--batch",
        action="store_true",
        help="bench: also replay every scenario through the batch "
        "engine and record a batch section in the report",
    )
    parser.add_argument(
        "--out",
        default="BENCH_machine.json",
        help="bench: output path for the throughput trajectory JSON",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=None,
        help="traffic: client population size (default 256, smoke 24)",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        help="traffic: gemOS process count (default 8, smoke 4)",
    )
    parser.add_argument(
        "--traffic-ops",
        type=int,
        default=None,
        help="traffic: total op budget, rounded up to a per-client "
        "multiple (default 10M, smoke 48k)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=2024,
        help="traffic: population master seed",
    )
    parser.add_argument(
        "--arrival",
        choices=["poisson", "diurnal"],
        default="poisson",
        help="traffic: arrival-time distribution",
    )
    parser.add_argument(
        "--scalar",
        action="store_true",
        help="traffic: replay through the scalar loop instead of the "
        "batch engine",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="traffic: also save per-process packed trace containers here; "
        "plan: score blueprints against the containers found here",
    )
    parser.add_argument(
        "--workload",
        choices=["traffic", "ycsb"],
        default="traffic",
        help="plan: workload to optimize for (traffic fits a forecast to "
        "an observed population; --trace-dir overrides)",
    )
    parser.add_argument(
        "--objective",
        default=None,
        metavar="SPEC",
        help="plan: ranking weights, e.g. 'cycles=1,wear=0.3,recovery=0.2' "
        "(omitted axes keep defaults)",
    )
    parser.add_argument(
        "--grid",
        choices=["star", "grid"],
        default="star",
        help="plan: candidate enumeration shape (star = one axis at a "
        "time; grid = full cartesian product)",
    )
    parser.add_argument(
        "--max-candidates",
        type=int,
        default=None,
        help="plan: cap the candidate count (drops are reported, never "
        "silent; the paper default is always kept)",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="traffic: skip the second determinism-verification replay",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        help="sweep worker processes (default: cpu count; 1 = serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every sweep cell, ignore artifacts/cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="sweep result cache location (default: artifacts/cache)",
    )
    parser.add_argument(
        "--sweep-stats",
        default=None,
        metavar="PATH",
        help="write sweep-engine stats (cells, cache hits, elapsed) as JSON",
    )
    args = parser.parse_args(argv)

    engine = SweepEngine(
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        progress=True,
    )

    def _write_sweep_stats() -> None:
        if args.sweep_stats:
            engine.write_stats(args.sweep_stats)

    if args.experiment == "bench":
        from repro.harness.bench import bench_main

        return bench_main(
            args.out,
            smoke=args.smoke,
            repeats=args.repeats,
            jobs=args.jobs,
            batch=args.batch,
        )
    if args.experiment == "traffic":
        from repro.harness.traffic import traffic_main

        code = traffic_main(
            args.out,
            smoke=args.smoke,
            engine=engine,
            clients=args.clients,
            processes=args.processes,
            total_ops=args.traffic_ops,
            seed=args.seed,
            arrival=args.arrival,
            scalar=args.scalar,
            trace_dir=args.trace_dir,
            verify=not args.no_verify,
        )
        _write_sweep_stats()
        return code
    if args.experiment == "plan":
        from repro.harness.plan import plan_main

        code = plan_main(
            args.out,
            workload=args.workload,
            smoke=args.smoke,
            engine=engine,
            objective_spec=args.objective,
            trace_dir=args.trace_dir,
            seed=args.seed,
            grid_mode=args.grid,
            max_candidates=args.max_candidates,
        )
        _write_sweep_stats()
        return code
    if args.experiment == "crashtest":
        from repro.harness.crashtest import crashtest_main

        code = crashtest_main(
            smoke=args.smoke, scenario_names=args.scenario, engine=engine
        )
        _write_sweep_stats()
        return code
    if args.experiment == "compare":
        from pathlib import Path

        from repro.harness.compare import compare_results

        # Resolve relative to the repository checkout when run from it.
        repo = Path.cwd()
        results = repo / "benchmarks" / "results"
        expected = repo / "artifacts" / "expected"
        report = compare_results(results, expected)
        print(
            f"compared {report.compared} tables; "
            f"missing={len(report.missing)} mismatches={len(report.mismatches)}"
        )
        for item in report.missing:
            print(f"  missing: {item}")
        for item in report.mismatches:
            print(f"  mismatch: {item}")
        return 0 if report.passed else 1
    if args.experiment == "validate":
        from repro.harness.validate import validate_persistence

        rows = []
        for scheme in ("rebuild", "persistent"):
            report = validate_persistence(scheme=scheme)
            rows.append(
                {
                    "scheme": scheme,
                    "crash_cycles": report.cycles,
                    "recoveries": report.recoveries,
                    "rollback_ops": report.total_rollback_ops,
                    "result": "PASS" if report.passed else "FAIL",
                }
            )
            for failure in report.failures:
                print(f"  !! {scheme}: {failure}")
        _print_rows({"experiment": "validate (Section V-A)", "rows": rows})
        return 0 if all(r["result"] == "PASS" for r in rows) else 1
    if args.experiment == "table2":
        result = experiments.run_table2(total_ops=args.ops, engine=engine)
    elif args.experiment == "fig4a":
        result = experiments.run_fig4a(scale=args.scale, engine=engine)
    elif args.experiment == "fig4b":
        result = experiments.run_fig4b(engine=engine)
    elif args.experiment == "table3":
        result = experiments.run_table3(scale=args.scale, engine=engine)
    elif args.experiment == "table4":
        result = experiments.run_table4(scale=args.scale, engine=engine)
    elif args.experiment == "fig5":
        result = experiments.run_fig5(total_ops=args.ops, engine=engine)
    else:  # fig6 / table5 / table6 share one runner
        result = experiments.run_fig6(total_ops=args.ops, engine=engine)
    _write_sweep_stats()
    _print_rows(result)
    if args.plot and result["experiment"].startswith("fig"):
        from repro.harness.plots import render_figure

        print()
        print(render_figure(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
