"""Record the outputs the benchmark checks against.

Runs one untraced execution per seed and stores its stats-dump sha256
and final clocks in ``manifest.json``; a workload whose inputs take no
seed is stored once, under ``"*"`` (every seed)::

    python3 perfbench/record.py --workload hscc_replay --seed 13 --seed 7

Record only from a tree whose outputs are known good: the benchmark
fails every later run that disagrees with what is stored here.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.bench_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    workload = run.bench_workloads.WORKLOADS[args.workload]
    manifest = json.loads(run.MANIFEST.read_text())
    expected = manifest["workloads"][workload.name]["expected"]
    for seed in args.seed:
        _, inputs, state = run.set_up(workload, seed)
        execution = workload.execute(inputs, state)
        if execution.expected_ops not in (None, execution.sim_ops):
            raise SystemExit(f"seed {seed}: op count check failed")
        key = str(seed) if workload.seeded else "*"
        expected[key] = {
            "stats_sha256": execution.stats_sha256,
            "final_clock": execution.final_clock,
        }
        print(f"{workload.name} seed {key}: {expected[key]}")
    run.MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
