"""Kindle benchmark: the paper's code paths, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload hscc_replay --seed 13 --seconds 10 --trace 0

Workloads (see ``workloads.py`` and ``manifest.json``):
``persist_churn`` (Table IV cell), ``hscc_replay`` (Fig. 6 cell) and
``traffic_batch`` (batch-replayed client population).

``--trace 0`` measures the end-to-end metrics with no tracing:

* ``sim_ops_per_s`` -- simulated user memory ops (``ops.reads +
  ops.writes`` from the stats dump) per host second of one execution,
  the median over the executions of the timed window;
* ``setup_s`` -- host seconds of set-up (a fresh import of the
  simulator, input generation from the seed, boot/provisioning), the
  median of several set-ups;
* ``peak_rss_mib`` -- the process's peak resident memory.

``--trace 1`` alternates untraced and traced executions and reports,
per layer boundary (``boundaries.py``), ``<boundary>.calls`` and
``<boundary>.self_s`` medians, the simulator's exact per-layer counts
from its stats dump, and the tracing overhead.  Spans are written to
``perfbench/out/`` when the run ends.

Every execution is checked: its stats-dump sha256 and final clocks
must equal the values recorded in ``manifest.json`` for the workload
and its input seed and those of the run's first execution, and its
simulated op count must equal what the inputs call for.  A raised
exception or any mismatch counts the execution as failed; the error
rate is ``failed / attempted`` of the last output line.

So that every run has a recorded outcome to meet, the benchmark seed
picks the input seed from the seeds recorded for the workload: a
recorded seed is used as it is, any other seed ``n`` selects the
recorded seed at position ``n`` modulo their number (in ascending
order).  A workload whose inputs take no seed is recorded once, under
``"*"``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MANIFEST = HERE / "manifest.json"
SPAN_DIR = HERE / "out"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import workloads as bench_workloads  # noqa: E402
from boundaries import BOUNDARY_NAMES, Tracer  # noqa: E402

END_TO_END_UNITS = {"sim_ops_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}

#: Exact simulated counts: (metric, unit, numerator counters,
#: denominator counters or None).  Ratios carry their base as a
#: separate count metric.
SIM_COUNTS = (
    ("arch.tlb.lookups", "count", ("tlb.hit", "tlb.miss"), None),
    ("arch.tlb.hit_ratio", "ratio", ("tlb.hit",), ("tlb.hit", "tlb.miss")),
    ("arch.l1.accesses", "count", ("l1.hit", "l1.miss"), None),
    ("arch.l1.hit_ratio", "ratio", ("l1.hit",), ("l1.hit", "l1.miss")),
    ("arch.llc.accesses", "count", ("llc.hit", "llc.miss"), None),
    ("arch.llc.hit_ratio", "ratio", ("llc.hit",), ("llc.hit", "llc.miss")),
    ("gemos.walk.attempts", "count", ("walk.completed", "walk.aborted"), None),
    ("gemos.walk.completed", "count", ("walk.completed",), None),
    (
        "gemos.walk.abort_ratio",
        "ratio",
        ("walk.aborted",),
        ("walk.completed", "walk.aborted"),
    ),
    ("gemos.fault.demand", "count", ("fault.demand",), None),
    ("mem.dram.reads", "count", ("dram.reads",), None),
    ("mem.nvm.reads", "count", ("nvm.reads",), None),
    ("persist.checkpoint.taken", "count", ("checkpoint.taken",), None),
    ("hscc.pages_migrated", "count", ("hscc.pages_migrated",), None),
    ("sim.ops", "count", ("ops.reads", "ops.writes"), None),
    ("sim.cycles.user", "cycles", ("cycles.user",), None),
    ("sim.cycles.os", "cycles", ("cycles.os.total",), None),
)


def load_simulator(modules) -> None:
    """Import the simulator afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]
    for module in modules:
        importlib.import_module(module)
    location = Path(sys.modules["repro"].__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"repro imported from {location}, not from {SRC}")


def set_up(workload, seed: int):
    """One timed set-up; returns ``(seconds, inputs, state)``."""
    gc.collect()  # the previous set-up's garbage is not this one's cost
    start = time.perf_counter()
    load_simulator(workload.imports)
    inputs = workload.inputs(seed)
    state = workload.ready(inputs)
    return time.perf_counter() - start, inputs, state


class Checker:
    """Holds one run's output check and its attempted/failed tally."""

    def __init__(self, recorded: Dict) -> None:
        self.recorded = recorded
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def run(self, workload, inputs, state):
        """Execute once and check; returns the execution or ``None``."""
        gc.collect()  # start every execution from the same heap
        self.attempted += 1
        try:
            execution = workload.execute(inputs, state)
            problems = self.problems(execution)
        except Exception:  # every failure of the program counts, then the run goes on
            traceback.print_exc()
            self.failed += 1
            return None
        if problems:
            print("output check failed: " + "; ".join(problems), file=sys.stderr)
            self.failed += 1
        return execution

    def problems(self, execution) -> List[str]:
        found = []
        if execution.expected_ops is not None and execution.sim_ops != execution.expected_ops:
            found.append(
                f"{execution.sim_ops} simulated ops, inputs call for {execution.expected_ops}"
            )
        outcome = {
            "stats_sha256": execution.stats_sha256,
            "final_clock": execution.final_clock,
        }
        for label, expected in (("recorded", self.recorded), ("first", self.reference)):
            if expected is not None and expected != outcome:
                found.append(f"{outcome} differs from the {label} outcome {expected}")
        if self.reference is None:
            self.reference = outcome
        return found


def recorded_outcome(manifest: Dict, workload, seed: int) -> Tuple[int, Dict]:
    """The input seed for benchmark seed ``seed`` and its recorded outcome."""
    expected = manifest["workloads"][workload.name]["expected"]
    if not workload.seeded:
        return seed, expected["*"]
    recorded = sorted(int(key) for key in expected)
    if seed not in recorded:
        seed = recorded[seed % len(recorded)]
    return seed, expected[str(seed)]


def measure(workload, seed: int, seconds: float, checker: Checker) -> Dict:
    """End-to-end metrics, in reference seconds (see ``probe.py``);
    host-second figures are kept for the human-readable lines."""
    speed = probe.HostSpeed()
    setups, host_setups = [], []
    for _ in range(SETUP_REPEATS):
        inputs = state = None  # one set-up's inputs alive at a time
        elapsed, inputs, state = set_up(workload, seed)
        setups.append(elapsed * speed.scale())
        host_setups.append(elapsed)
    checker.run(workload, inputs, state)  # warm-up, not timed
    del state
    speed = probe.HostSpeed()
    rates, host_rates = [], []
    window = time.perf_counter()
    while True:
        execution = checker.run(workload, inputs, workload.ready(inputs))
        scale = speed.scale()
        if execution is not None:
            host_rates.append(execution.sim_ops / execution.elapsed_s)
            rates.append(host_rates[-1] / scale)
        del execution  # one execution's systems alive at a time
        if time.perf_counter() - window >= seconds:
            break
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "sim_ops_per_s": (median(rates), len(rates), median(host_rates)),
        "setup_s": (median(setups), len(setups), median(host_setups)),
        "peak_rss_mib": (peak_mib, 1, None),
    }


def median(values) -> float:
    """Median, or 0 when every execution failed (the run is then not correct)."""
    return statistics.median(values) if values else 0.0


def sim_counts(execution) -> Dict:
    """The exact per-layer counts of one execution (zeros if it failed)."""
    if execution is None:
        names = [(name, unit) for name, unit, _, _ in SIM_COUNTS]
        names += [("mem.resident_frames", "count"), ("replay.batched_frac", "ratio")]
        return {name: (0, unit) for name, unit in names}
    metrics = {}
    for name, unit, numerator, denominator in SIM_COUNTS:
        value = sum(execution.counter(key) for key in numerator)
        if denominator is not None:
            base = sum(execution.counter(key) for key in denominator)
            value = value / base if base else 0.0
        metrics[name] = (value, unit)
    metrics["mem.resident_frames"] = (execution.resident_frames, "count")
    ops = execution.sim_ops
    metrics["replay.batched_frac"] = (execution.batched_ops / ops if ops else 0.0, "ratio")
    return metrics


def measure_traced(workload, seed: int, seconds: float, checker: Checker):
    """Pairs of untraced and traced executions for ``seconds``."""
    _, inputs, state = set_up(workload, seed)
    reference = checker.run(workload, inputs, state)  # warm-up and count source
    metrics = sim_counts(reference)
    del reference, state
    untraced, traced, tracers = [], [], []
    window = time.perf_counter()
    while True:
        execution = checker.run(workload, inputs, workload.ready(inputs))
        if execution is not None:
            untraced.append(execution.elapsed_s)
        del execution
        tracer = Tracer()
        with tracer:
            start = time.perf_counter()
            traced_inputs = workload.inputs(seed)
            execution = checker.run(workload, traced_inputs, workload.ready(traced_inputs))
            wall = time.perf_counter() - start
        if execution is not None:
            traced.append(execution.elapsed_s)
            tracers.append((tracer, wall))
        del execution, traced_inputs
        if time.perf_counter() - window >= seconds:
            break
    for name in BOUNDARY_NAMES:
        metrics[f"{name}.calls"] = (int(median([t.calls(name) for t, _ in tracers])), "count")
        metrics[f"{name}.self_s"] = (median([t.self_s(name) for t, _ in tracers]), "s")
    overhead = median(traced) / median(untraced) if untraced else 0.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.covered_ratio"] = (median([t.covered_s / wall for t, wall in tracers]), "ratio")
    return metrics, [t.spans for t, _ in tracers]


def provenance(workload, seed: int, input_seed: int, trace: bool) -> Dict:
    from repro.exec.fingerprint import code_fingerprint

    return {
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workload": workload.name,
        "seed": seed,
        "input_seed": input_seed if workload.seeded else None,
        "params": workload.params,
        "trace": trace,
        "code_fingerprint": {module: code_fingerprint(module) for module in workload.imports},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"simulator source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = bench_workloads.WORKLOADS[args.workload]
    manifest = json.loads(MANIFEST.read_text())
    input_seed, recorded = recorded_outcome(manifest, workload, args.seed)
    checker = Checker(recorded)

    if args.trace:
        values, spans = measure_traced(workload, input_seed, args.seconds, checker)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
        samples = {}
    else:
        values = measure(workload, input_seed, args.seconds, checker)
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, (value, _, _) in values.items()
        }
        samples = {name: (count, host) for name, (_, count, host) in values.items()}
    stamp = provenance(workload, args.seed, input_seed, bool(args.trace))
    if args.trace:
        SPAN_DIR.mkdir(exist_ok=True)
        out = SPAN_DIR / f"{workload.name}-seed{args.seed}-spans.json"
        fields = ["id", "parent", "boundary", "start_s", "end_s"]
        out.write_text(json.dumps({"provenance": stamp, "fields": fields, "executions": spans}))
        print(f"spans: {out.relative_to(ROOT)}")

    print("provenance: " + json.dumps(stamp, sort_keys=True))
    for name, metric in metrics.items():
        note = ""
        if name in samples:
            count, host = samples[name]
            note = f"  (median of {count}"
            note += f"; {host:.6g} in host seconds)" if host is not None else ")"
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}{note}")
    error_rate = checker.failed / checker.attempted
    print(f"{'error_rate':32s} {error_rate:.6g} share ({checker.failed} of {checker.attempted} executions)")
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
