"""Fleet-scale traffic populations over the machine model.

The paper's experiments replay fixed single-process loops; the ROADMAP
north-star is a system serving traffic from *populations* of simulated
users.  This module grows the workload layer in that direction, modeled
on the seeded ``WorkloadGenerator``/``QueryScheduler`` design from
towards-steady-db-workloads and brad's forecastable ``Workload``
(period + per-query arrival counts), transplanted from SQL queries to
memory operations:

* :class:`ClientPopulation` — a seeded generator of per-client op
  streams: each client draws a *unique-op pool* (offsets within its own
  VMA window, sized/mixed by its profile), repeats pool entries with a
  Zipf/skew coefficient, and receives arrival timestamps from a Poisson
  or diurnal-curve distribution over one logical period.  Client
  profiles reuse the Table II read/write mixes of the existing
  ycsb/gapbs/graph500 generators.
* :class:`TrafficSchedule` — the merged, timestamp-sorted population
  stream as column arrays, exportable as packed ``repro.prep`` trace
  containers (one per gemOS process) so runs feed both the scalar
  ``Machine.access`` loop and the batched ``BatchReplayer``.
* :class:`TrafficScheduler` — provisions one VMA window per client
  across several gemOS processes (demand paging interleaves their
  frames, creating real cross-process cache/row/TLB contention) and
  replays the schedule, dispatching processes per scheduling slice
  through :class:`repro.gemos.scheduler.TimestampScheduler`.

Generation is deterministic per (seed, config): every client stream is
derived from its own sha256-split substream, so the merged schedule is
byte-identical whether generated serially, through ``-j N`` sweep-engine
sharding, or from the warm content-addressed cache (the cell payloads
are JSON/base64, lossless for the column bytes).
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import KindleError
from repro.common.units import GiB, KiB, PAGE_SIZE
from repro.exec import SweepEngine, sweep
from repro.gemos.vma import MAP_NVM, PROT_READ, PROT_WRITE
from repro.prep.trace import PackedTrace, save_trace_binary

#: Base virtual address of the first client window.  Sits well above
#: the kernel's default mmap placement area so explicitly-hinted client
#: windows never collide with other VMAs, and the same window layout is
#: reused in every process (distinct address spaces; the asid-tagged
#: TLB disambiguates — and contends, which is the point).
TRAFFIC_BASE = 8 * GiB

#: Default 24-"hour" diurnal load curve (relative per-bin weights):
#: a quiet night, a morning ramp, a mid-day plateau, an evening peak.
DEFAULT_DIURNAL_CURVE = (
    2.0, 1.0, 1.0, 1.0, 2.0, 4.0, 7.0, 9.0, 10.0, 9.0, 8.0, 7.0,
    6.0, 6.0, 7.0, 8.0, 9.0, 10.0, 10.0, 9.0, 7.0, 5.0, 4.0, 3.0,
)


@dataclass(frozen=True)
class ClientProfile:
    """One client archetype: op mix, working-set size and skew.

    ``read_fraction`` values come straight from the Table II read/write
    mixes of the corresponding workload generator (``mix_source`` names
    the ``TABLE2_MIXES`` entry; tests pin the correspondence).
    """

    name: str
    read_fraction: float
    working_set_bytes: int
    zipf_theta: float
    op_size: int
    nvm: bool
    mix_source: Optional[str] = None


#: The client archetypes a population can mix.  ``llc_thrash`` is not
#: part of the default mix: it exists for interference stress configs
#: whose combined working set must exceed the 2 MiB LLC.
PROFILES: Dict[str, ClientProfile] = {
    "ycsb_point": ClientProfile(
        name="ycsb_point",
        read_fraction=0.71,  # Table II ycsb_mem 71/29
        working_set_bytes=64 * KiB,
        zipf_theta=0.99,
        op_size=8,
        nvm=True,
        mix_source="ycsb_mem",
    ),
    "gapbs_scan": ClientProfile(
        name="gapbs_scan",
        read_fraction=0.77,  # Table II gapbs_pr 77/23
        working_set_bytes=256 * KiB,
        zipf_theta=0.2,
        op_size=64,
        nvm=False,
        mix_source="gapbs_pr",
    ),
    "g500_frontier": ClientProfile(
        name="g500_frontier",
        read_fraction=0.68,  # Table II g500_sssp 68/32
        working_set_bytes=128 * KiB,
        zipf_theta=0.6,
        op_size=8,
        nvm=True,
        mix_source="g500_sssp",
    ),
    "llc_thrash": ClientProfile(
        name="llc_thrash",
        read_fraction=0.5,
        working_set_bytes=1536 * KiB,
        zipf_theta=0.0,
        op_size=64,
        nvm=False,
    ),
}

DEFAULT_PROFILE_MIX = (
    ("ycsb_point", 6.0),
    ("gapbs_scan", 3.0),
    ("g500_frontier", 1.0),
)

ARRIVALS = ("poisson", "diurnal")


@dataclass(frozen=True)
class PopulationConfig:
    """Everything that determines a population, and nothing else.

    Two configs with equal fields produce byte-identical schedules; the
    config also round-trips through JSON (:meth:`to_dict` /
    :meth:`from_dict`) so sweep-engine cells can carry it.
    """

    seed: int = 2024
    clients: int = 64
    processes: int = 4
    ops_per_client: int = 2_000
    #: Fraction of each client's ops drawn fresh from its unique pool;
    #: the rest are Zipf-weighted repetitions of pool entries.  The
    #: pool size follows an explicit floor rule (see
    #: :func:`unique_pool_size`): ``floor(ops_per_client *
    #: unique_fraction)`` clamped to ``[1, ops_per_client]`` — *not*
    #: ``round()``, whose banker's rounding made products landing
    #: exactly on .5 shift the pool size with the magnitude of the op
    #: count (``round(2.5) == 2`` but ``round(3.5) == 4``).
    unique_fraction: float = 0.25
    arrival: str = "poisson"
    #: Logical timestamp span of one load period (arbitrary units;
    #: becomes the packed containers' ``period`` column).
    period: int = 1 << 30
    diurnal_curve: Tuple[float, ...] = DEFAULT_DIURNAL_CURVE
    #: Phase shift as a fraction of the period — shifts the diurnal
    #: curve, wrapping timestamps at the period boundary.
    diurnal_phase: float = 0.0
    profile_mix: Tuple[Tuple[str, float], ...] = DEFAULT_PROFILE_MIX
    #: Scheduling slices per period: within one slice each process runs
    #: its due ops as one contiguous segment (a real scheduler grants
    #: quanta; it does not context-switch per memory reference).
    sched_slices: int = 256

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.clients < 1:
            raise KindleError(f"population needs >=1 client: {self.clients}")
        if self.processes < 1:
            raise KindleError(f"population needs >=1 process: {self.processes}")
        if self.ops_per_client < 1:
            raise KindleError(
                f"population needs >=1 op per client: {self.ops_per_client}"
            )
        if not 0.0 <= self.unique_fraction <= 1.0:
            raise KindleError(
                f"unique_fraction outside [0, 1]: {self.unique_fraction}"
            )
        if self.arrival not in ARRIVALS:
            raise KindleError(f"unknown arrival distribution {self.arrival!r}")
        if self.period < 1:
            raise KindleError(f"period must be positive: {self.period}")
        if self.sched_slices < 1:
            raise KindleError(f"sched_slices must be >=1: {self.sched_slices}")
        if not 0.0 <= self.diurnal_phase < 1.0:
            raise KindleError(
                f"diurnal_phase outside [0, 1): {self.diurnal_phase}"
            )
        if self.arrival == "diurnal":
            if not self.diurnal_curve:
                raise KindleError("diurnal curve has no bins")
            total = 0.0
            for weight in self.diurnal_curve:
                if not np.isfinite(weight) or weight < 0:
                    raise KindleError(f"bad diurnal bin weight {weight!r}")
                total += weight
            if total <= 0:
                raise KindleError("diurnal curve weights sum to zero")
            if self.period < len(self.diurnal_curve):
                raise KindleError(
                    f"period {self.period} shorter than the "
                    f"{len(self.diurnal_curve)}-bin diurnal curve"
                )
        if not self.profile_mix:
            raise KindleError("profile mix is empty")
        for name, weight in self.profile_mix:
            if name not in PROFILES:
                raise KindleError(f"unknown client profile {name!r}")
            if not np.isfinite(weight) or weight <= 0:
                raise KindleError(f"bad profile weight {weight!r} for {name}")

    @property
    def total_ops(self) -> int:
        return self.clients * self.ops_per_client

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "clients": self.clients,
            "processes": self.processes,
            "ops_per_client": self.ops_per_client,
            "unique_fraction": self.unique_fraction,
            "arrival": self.arrival,
            "period": self.period,
            "diurnal_curve": [float(w) for w in self.diurnal_curve],
            "diurnal_phase": self.diurnal_phase,
            "profile_mix": [[name, float(w)] for name, w in self.profile_mix],
            "sched_slices": self.sched_slices,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PopulationConfig":
        fields = dict(data)
        if "diurnal_curve" in fields:
            fields["diurnal_curve"] = tuple(
                float(w) for w in fields["diurnal_curve"]
            )
        if "profile_mix" in fields:
            fields["profile_mix"] = tuple(
                (str(name), float(weight))
                for name, weight in fields["profile_mix"]
            )
        return cls(**fields)


# ----------------------------------------------------------------------
# deterministic generation
# ----------------------------------------------------------------------


def unique_pool_size(ops: int, unique_fraction: float) -> int:
    """Unique-op pool size: ``floor(ops * unique_fraction)``, clamped
    to ``[1, ops]``.

    The rule is an explicit floor, not ``round()``: banker's rounding
    sends .5-exact products to the nearest *even* integer, so the same
    ``unique_fraction`` produced different repetition structures
    depending on the magnitude of ``ops`` (``round(2.5) == 2`` while
    ``round(3.5) == 4``).  ``floor`` is monotone in ``ops`` and
    magnitude-independent at every boundary.
    """
    if ops < 1:
        raise KindleError(f"pool needs >=1 op: {ops}")
    if not 0.0 <= unique_fraction <= 1.0:
        raise KindleError(
            f"unique_fraction outside [0, 1]: {unique_fraction}"
        )
    return max(1, min(ops, math.floor(ops * unique_fraction)))


def _derive_seed(master_seed: int, label: str) -> int:
    """Independent numpy substream seed (sha256 split, like
    :func:`repro.common.rng.derive_rng` but for ``default_rng``)."""
    digest = sha256(f"{master_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def profile_assignment(config: PopulationConfig) -> List[str]:
    """Profile name per client index (one draw from the mix weights)."""
    names = [name for name, _ in config.profile_mix]
    weights = np.asarray([w for _, w in config.profile_mix], dtype=float)
    rng = np.random.default_rng(_derive_seed(config.seed, "traffic.profiles"))
    picks = rng.choice(len(names), size=config.clients, p=weights / weights.sum())
    return [names[i] for i in picks]


def client_window_span(config: PopulationConfig) -> int:
    """Page-aligned per-client window stride (fits every mixed profile)."""
    largest = max(
        PROFILES[name].working_set_bytes for name, _ in config.profile_mix
    )
    return -(-largest // PAGE_SIZE) * PAGE_SIZE


def client_base_vaddr(config: PopulationConfig, client: int) -> int:
    """Deterministic VMA base of ``client``'s window *within its
    process* — clients sharing a process get disjoint windows; the same
    window addresses recur across processes (separate address spaces)."""
    window = client // config.processes
    return TRAFFIC_BASE + window * client_window_span(config)


def _assign_timestamps(
    config: PopulationConfig, rng: np.random.Generator, ops: int
) -> np.ndarray:
    """Arrival timestamps in ``[0, period)`` as u8 integers."""
    if config.arrival == "poisson":
        # Order statistics of a uniform scatter over the period == the
        # arrival times of a homogeneous Poisson process conditioned on
        # its total count (sorting happens at the stream merge).
        ts = rng.random(ops) * config.period
    else:
        curve = np.asarray(config.diurnal_curve, dtype=float)
        weights = curve / curve.sum()
        nbins = len(curve)
        width = config.period / nbins
        bins = rng.choice(nbins, size=ops, p=weights)
        ts = (bins + rng.random(ops)) * width
        # The phase shift wraps at the period boundary: an evening-peak
        # curve shifted by half a period peaks across the wrap.
        ts = (ts + config.diurnal_phase * config.period) % config.period
    out = np.floor(ts).astype(np.uint64)
    return np.minimum(out, np.uint64(config.period - 1))


def _client_columns(
    config: PopulationConfig, client: int, profile: ClientProfile
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One client's stream, ts-sorted: (ts u8, addr u8, size u4, write u1).

    Addresses are final virtual addresses (window base + pool offset):
    the window layout is part of the config, so the packed containers
    are fully determined before any kernel exists.
    """
    rng = np.random.default_rng(
        _derive_seed(config.seed, f"traffic.client.{client}")
    )
    ops = config.ops_per_client
    n_unique = unique_pool_size(ops, config.unique_fraction)
    slots = max(1, profile.working_set_bytes // profile.op_size)
    offsets = rng.integers(0, slots, size=n_unique, dtype=np.int64)
    offsets *= profile.op_size
    writes = (rng.random(n_unique) >= profile.read_fraction).astype(np.uint8)
    repeats = ops - n_unique
    if repeats > 0:
        if profile.zipf_theta > 0.0:
            ranks = np.arange(1, n_unique + 1, dtype=float)
            zipf = ranks ** -profile.zipf_theta
            draws = rng.choice(n_unique, size=repeats, p=zipf / zipf.sum())
        else:
            draws = rng.integers(0, n_unique, size=repeats, dtype=np.int64)
        pool_index = np.concatenate(
            [np.arange(n_unique, dtype=np.int64), draws.astype(np.int64)]
        )
    else:
        pool_index = np.arange(n_unique, dtype=np.int64)
    pool_index = pool_index[rng.permutation(ops)]
    ts = _assign_timestamps(config, rng, ops)
    order = np.argsort(ts, kind="stable")
    picked = pool_index[order]
    base = np.uint64(client_base_vaddr(config, client))
    addr = base + offsets[picked].astype(np.uint64)
    size = np.full(ops, profile.op_size, dtype=np.uint32)
    return ts[order], addr, size, writes[picked]


def _columns_for_range(
    config: PopulationConfig, lo: int, hi: int
) -> Dict[str, np.ndarray]:
    """Concatenated client columns for clients ``[lo, hi)`` (client
    order), plus per-op ``client`` id and within-client ``seq``."""
    assignment = profile_assignment(config)
    ts_parts: List[np.ndarray] = []
    addr_parts: List[np.ndarray] = []
    size_parts: List[np.ndarray] = []
    write_parts: List[np.ndarray] = []
    client_parts: List[np.ndarray] = []
    seq_parts: List[np.ndarray] = []
    for client in range(lo, hi):
        profile = PROFILES[assignment[client]]
        ts, addr, size, write = _client_columns(config, client, profile)
        ts_parts.append(ts)
        addr_parts.append(addr)
        size_parts.append(size)
        write_parts.append(write)
        client_parts.append(np.full(len(ts), client, dtype=np.uint32))
        seq_parts.append(np.arange(len(ts), dtype=np.uint32))
    return {
        "ts": np.concatenate(ts_parts),
        "addr": np.concatenate(addr_parts),
        "size": np.concatenate(size_parts),
        "write": np.concatenate(write_parts),
        "client": np.concatenate(client_parts),
        "seq": np.concatenate(seq_parts),
    }


_PAYLOAD_DTYPES = {
    "ts": "<u8",
    "addr": "<u8",
    "size": "<u4",
    "write": "u1",
    "client": "<u4",
    "seq": "<u4",
}


def _encode_columns(columns: Dict[str, np.ndarray]) -> Dict[str, object]:
    payload: Dict[str, object] = {"count": int(len(columns["ts"]))}
    for key, dtype in _PAYLOAD_DTYPES.items():
        data = np.ascontiguousarray(columns[key].astype(dtype))
        payload[key] = base64.b64encode(data.tobytes()).decode("ascii")
    return payload


def _decode_columns(payload: Dict[str, object]) -> Dict[str, np.ndarray]:
    columns: Dict[str, np.ndarray] = {}
    for key, dtype in _PAYLOAD_DTYPES.items():
        raw = base64.b64decode(payload[key])
        columns[key] = np.frombuffer(raw, dtype=dtype).copy()
    if any(len(col) != payload["count"] for col in columns.values()):
        raise KindleError("traffic cell payload column lengths disagree")
    return columns


def traffic_population_cell(
    config: Dict[str, object], lo: int, hi: int
) -> Dict[str, object]:
    """Sweep-engine cell: generate clients ``[lo, hi)`` of a population.

    The return value is JSON-stable (base64 column bytes), so serial,
    ``-j N`` and warm-cache runs hand back identical payloads and the
    merged schedule is byte-identical regardless of sharding.
    """
    columns = _columns_for_range(PopulationConfig.from_dict(config), lo, hi)
    return _encode_columns(columns)


# ----------------------------------------------------------------------
# the merged schedule
# ----------------------------------------------------------------------


@dataclass
class TrafficPlan:
    """Execution-ordered view of a schedule: columns plus contiguous
    ``(process_index, start, end)`` segments."""

    ts: np.ndarray
    addr: np.ndarray
    size: np.ndarray
    write: np.ndarray
    segments: List[Tuple[int, int, int]]


@dataclass
class TrafficSchedule:
    """The merged population stream, globally timestamp-sorted.

    ``client`` is the originating client index; a client's process is
    ``client % config.processes``.  The tie-break order (ts, client,
    seq) makes the merge independent of generation sharding.
    """

    config: PopulationConfig
    ts: np.ndarray  # u8
    addr: np.ndarray  # u8
    size: np.ndarray  # u4
    write: np.ndarray  # bool
    client: np.ndarray  # u4

    def __len__(self) -> int:
        return len(self.ts)

    def process_index(self) -> np.ndarray:
        return self.client % np.uint32(self.config.processes)

    def execution_order(self) -> np.ndarray:
        """Dispatch order: scheduling slice, then process, then client,
        then time.

        Within one slice each process's due ops run as one contiguous
        segment (a scheduler grants quanta, it does not context-switch
        per memory reference), and inside the segment the process
        drains each client's due ops back to back (a server works
        through per-connection request batches, it does not ping-pong
        between sockets per request).  Across slices processes
        interleave.  Keeping consecutive ops inside one client window
        is also what lets the batch-replay engine engage: interleaving
        dozens of windows per op thrashes the TLB and forces every op
        down the scalar path.
        """
        quantum = max(1, self.config.period // self.config.sched_slices)
        slices = self.ts // np.uint64(quantum)
        position = np.arange(len(self.ts), dtype=np.uint64)
        return np.lexsort(
            (position, self.client, self.process_index(), slices)
        )

    def plan(self) -> TrafficPlan:
        order = self.execution_order()
        proc = self.process_index()[order].astype(np.int64)
        if len(proc) == 0:
            segments: List[Tuple[int, int, int]] = []
        else:
            cuts = np.flatnonzero(np.diff(proc)) + 1
            starts = np.concatenate(([0], cuts))
            ends = np.concatenate((cuts, [len(proc)]))
            segments = [
                (int(proc[s]), int(s), int(e)) for s, e in zip(starts, ends)
            ]
        return TrafficPlan(
            ts=self.ts[order],
            addr=self.addr[order],
            size=self.size[order],
            write=self.write[order],
            segments=segments,
        )

    def packed_trace_for_process(self, index: int) -> PackedTrace:
        """This process's stream (ts-ordered) as a packed container."""
        mask = self.process_index() == index
        return PackedTrace(
            period=self.ts[mask],
            addr=self.addr[mask],
            size=self.size[mask],
            is_write=self.write[mask],
        )

    def packed_traces(self) -> Dict[int, PackedTrace]:
        return {
            index: self.packed_trace_for_process(index)
            for index in range(self.config.processes)
        }

    def save_containers(self, directory) -> Dict[int, Path]:
        """Write one ``repro.prep`` binary container per process."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths: Dict[int, Path] = {}
        for index, packed in self.packed_traces().items():
            path = directory / f"traffic_p{index}.bin"
            save_trace_binary(packed, path)
            paths[index] = path
        return paths


class ClientPopulation:
    """Deterministic population generator (see module docstring)."""

    def __init__(self, config: PopulationConfig) -> None:
        config.validate()
        self.config = config
        self.profiles = profile_assignment(config)

    def generate(self, engine: Optional[SweepEngine] = None) -> TrafficSchedule:
        """Generate and merge every client stream.

        With an ``engine``, client ranges shard across workers as
        cacheable sweep cells; the merge (concatenate in client order,
        then a total-order lexsort) is sharding-independent, so ``-j 1``
        and ``-j 4`` produce byte-identical schedules.
        """
        config = self.config
        if engine is None:
            parts = [_columns_for_range(config, 0, config.clients)]
        else:
            shards = max(1, min(engine.jobs, config.clients))
            edges = [config.clients * i // shards for i in range(shards + 1)]
            ranges = [
                (lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo
            ]
            payloads = sweep(
                engine,
                "repro.workloads.traffic:traffic_population_cell",
                [
                    {"config": config.to_dict(), "lo": lo, "hi": hi}
                    for lo, hi in ranges
                ],
                labels=[f"traffic-gen[{lo}:{hi}]" for lo, hi in ranges],
            )
            parts = [_decode_columns(payload) for payload in payloads]
        merged = {
            key: np.concatenate([part[key] for part in parts])
            for key in _PAYLOAD_DTYPES
        }
        order = np.lexsort((merged["seq"], merged["client"], merged["ts"]))
        return TrafficSchedule(
            config=config,
            ts=merged["ts"][order],
            addr=merged["addr"][order],
            size=merged["size"][order],
            write=merged["write"][order].astype(bool),
            client=merged["client"][order],
        )

    def summary(self) -> Dict[str, object]:
        """Population-level rates; every value is finite by
        construction (validated period/weights guard the divisions),
        including the single-client and zero-repetition degenerate
        cases."""
        config = self.config
        counts: Dict[str, int] = {}
        for name in self.profiles:
            counts[name] = counts.get(name, 0) + 1
        ops = config.ops_per_client
        n_unique = unique_pool_size(ops, config.unique_fraction)
        out: Dict[str, object] = {
            "clients": config.clients,
            "processes": config.processes,
            "total_ops": config.total_ops,
            "arrival": config.arrival,
            "repetition_coefficient": 1.0 - n_unique / ops,
            "arrival_rate_ops_per_tick": config.total_ops / config.period,
            "profile_counts": dict(sorted(counts.items())),
        }
        if config.arrival == "diurnal":
            weights = np.asarray(config.diurnal_curve, dtype=float)
            share = weights / weights.sum()
            width = config.period / len(weights)
            out["bin_rates_ops_per_tick"] = [
                float(config.total_ops * s / width) for s in share
            ]
        return out


# ----------------------------------------------------------------------
# forecast fitting (the planner hand-off)
# ----------------------------------------------------------------------


def fit_forecast(
    schedule: TrafficSchedule,
    seed: Optional[int] = None,
    bins: int = 24,
    diurnal_ratio: float = 2.0,
) -> PopulationConfig:
    """Fit a forecastable population model to an observed schedule.

    This is the arrival/mix fit the configuration planner consumes: it
    reads only the *observable* columns (timestamps, client ids,
    addresses) plus the deployment constants the operator knows anyway
    (period, process count, profile mix), and returns a fresh
    :class:`PopulationConfig` whose generated schedule forecasts the
    next load period:

    * client/process/op counts come straight from the observed stream;
    * ``unique_fraction`` is estimated as the mean per-client fraction
      of distinct addresses (a lower bound on the pool fraction — the
      Zipf repetitions revisit pool entries);
    * the arrival model is chosen from the observed timestamp
      histogram over ``bins`` bins: a peak-to-trough ratio at most
      ``diurnal_ratio`` reads as a homogeneous Poisson process, a more
      skewed curve is fit as a ``diurnal`` arrival whose curve *is*
      the normalized histogram (phase folded into the curve).

    ``seed`` defaults to a sha256-derived forecast substream of the
    observed config's seed, so forecasted populations never replay the
    exact observed streams but stay deterministic per observation.
    """
    if len(schedule) == 0:
        raise KindleError("cannot fit a forecast to an empty schedule")
    if bins < 1:
        raise KindleError(f"need >=1 histogram bin: {bins}")
    if diurnal_ratio < 1.0:
        raise KindleError(
            f"diurnal ratio threshold must be >= 1: {diurnal_ratio}"
        )
    observed = schedule.config
    client_ids = np.unique(schedule.client)
    clients = int(client_ids.size)
    ops_per_client = max(1, len(schedule) // clients)
    fractions = []
    for client in client_ids:
        mask = schedule.client == client
        ops = int(np.count_nonzero(mask))
        distinct = int(np.unique(schedule.addr[mask]).size)
        fractions.append(distinct / ops)
    unique_fraction = min(1.0, max(0.0, float(np.mean(fractions))))
    counts, _edges = np.histogram(
        schedule.ts.astype(np.float64), bins=bins, range=(0.0, observed.period)
    )
    trough = max(1, int(counts.min()))
    peak = max(1, int(counts.max()))
    if peak / trough <= diurnal_ratio:
        arrival = "poisson"
        curve = observed.diurnal_curve
        phase = observed.diurnal_phase
    else:
        arrival = "diurnal"
        total = int(counts.sum())
        curve = tuple(float(c) / total for c in counts.tolist())
        phase = 0.0
    if seed is None:
        seed = _derive_seed(observed.seed, "traffic.forecast")
    return PopulationConfig(
        seed=seed,
        clients=clients,
        processes=observed.processes,
        ops_per_client=ops_per_client,
        unique_fraction=unique_fraction,
        arrival=arrival,
        period=observed.period,
        diurnal_curve=curve,
        diurnal_phase=phase,
        profile_mix=observed.profile_mix,
        sched_slices=observed.sched_slices,
    )


# ----------------------------------------------------------------------
# scheduling onto gemOS processes
# ----------------------------------------------------------------------


@dataclass
class TrafficRunResult:
    """What one replayed schedule did."""

    ops: int
    mode: str
    context_switches: int
    batched_ops: int
    scalar_ops: int
    final_clock: int
    #: Batch mode: ``scalar_ops`` split by fallback reason (see
    #: :data:`repro.replay.batch.FALLBACK_REASONS`); empty in scalar mode.
    fallbacks: Dict[str, int]


class TrafficScheduler:
    """Provision a population across gemOS processes and replay it.

    Every client gets its own VMA window (``sys_mmap`` at the
    config-determined base; NVM-profile clients map ``MAP_NVM``), so
    demand paging interleaves frames from many processes and the
    machine sees genuine cross-process LLC/row-buffer/TLB contention.
    Replay follows :meth:`TrafficSchedule.plan`: per segment the
    :class:`~repro.gemos.scheduler.TimestampScheduler` dispatches the
    owning process (charging the standard context-switch cost), then
    the segment runs either through the scalar ``Machine.access`` loop
    or the batched :class:`~repro.replay.BatchReplayer` — both paths
    execute the identical op sequence, so stats/clock/physmem are
    byte-identical (gated by the golden-equivalence suite).
    """

    def __init__(self, system, schedule: TrafficSchedule) -> None:
        self.system = system
        self.schedule = schedule
        self.processes: List = []

    def provision(self) -> List:
        """Create the gemOS processes and map every client window."""
        if self.system.kernel is None:
            self.system.boot()
        kernel = self.system.kernel
        config = self.schedule.config
        assignment = profile_assignment(config)
        self.processes = [
            kernel.create_process(f"traffic{index}", persistent=False)
            for index in range(config.processes)
        ]
        for client in range(config.clients):
            profile = PROFILES[assignment[client]]
            process = self.processes[client % config.processes]
            base = client_base_vaddr(config, client)
            length = -(-profile.working_set_bytes // PAGE_SIZE) * PAGE_SIZE
            flags = MAP_NVM if profile.nvm else 0
            placed = kernel.sys_mmap(
                process,
                base,
                length,
                PROT_READ | PROT_WRITE,
                flags,
                name=f"client{client}",
            )
            if placed != base:
                raise KindleError(
                    f"client {client} window landed at {placed:#x}, "
                    f"expected {base:#x} — address layout drifted"
                )
        return self.processes

    def run(self, batch: bool = True) -> TrafficRunResult:
        """Replay the whole schedule; returns the run summary."""
        from repro.gemos.scheduler import TimestampScheduler
        from repro.replay import BatchReplayer

        if not self.processes:
            self.provision()
        kernel = self.system.kernel
        machine = self.system.machine
        stats = machine.stats
        schedule = self.schedule
        config = schedule.config
        counts = np.bincount(
            schedule.process_index(), minlength=config.processes
        )
        for index, process in enumerate(self.processes):
            if counts[index]:
                stats.add(f"traffic.ops.p{process.pid}", int(counts[index]))
        stats.add("traffic.ops", len(schedule))
        plan = schedule.plan()
        dispatcher = TimestampScheduler(kernel)
        replayer = BatchReplayer(machine) if batch else None
        scalar_ops = 0
        for proc_index, start, end in plan.segments:
            dispatcher.dispatch(self.processes[proc_index])
            if replayer is not None:
                replayer.replay(
                    PackedTrace(
                        period=plan.ts[start:end],
                        addr=plan.addr[start:end],
                        size=plan.size[start:end],
                        is_write=plan.write[start:end],
                    )
                )
            else:
                access = machine.access
                for vaddr, size, is_write in zip(
                    plan.addr[start:end].tolist(),
                    plan.size[start:end].tolist(),
                    plan.write[start:end].tolist(),
                ):
                    access(vaddr, size, is_write)
                scalar_ops += end - start
        return TrafficRunResult(
            ops=len(schedule),
            mode="batch" if batch else "scalar",
            context_switches=dispatcher.switches,
            batched_ops=replayer.batched_ops if replayer is not None else 0,
            scalar_ops=(
                replayer.scalar_ops if replayer is not None else scalar_ops
            ),
            final_clock=machine.clock,
            fallbacks=dict(replayer.fallbacks) if replayer is not None else {},
        )
