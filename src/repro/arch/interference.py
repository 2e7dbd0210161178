"""Cross-process interference attribution (who evicted whom).

The paper measures OS-architecture interplay for one process at a time;
multi-process traffic runs raise questions it never answers: whose
lines get evicted from the shared LLC, who forces row-buffer switches
on the memory channels, and whose TLB entries are displaced.  The
:class:`InterferenceMonitor` answers them with per-process attribution
counters in the ordinary stats registry:

``interference.llc.self`` / ``interference.llc.cross``
    LLC capacity evictions where the evicting process (the machine's
    current ``asid``) equals / differs from the victim line's last
    owner; cross evictions additionally tick a per-pair counter
    ``interference.llc.p<evictor>_evicted_p<victim>``.
``interference.tlb.self`` / ``.cross`` / per-pair
    the same attribution for TLB capacity evictions (the victim's
    owner is the entry's own asid — TLB entries are tagged — which is
    all :meth:`~InterferenceMonitor.note_tlb_evict` receives).
``interference.row.{dram,nvm}.self`` / ``.cross`` / per-pair
    row-buffer switches blamed on the last process to use that bank:
    when a device access misses the open row, the previous bank user
    forced the switch (``interference.row.<chan>.p<current>_evicted_p<prev>``
    reads "current's access row-missed because prev owned the bank").

The monitor is a **pure observer**: it never charges cycles, never
touches cache/TLB/device state, and is *not* a
:class:`~repro.arch.hooks.HardwareExtension` (attaching one disables
the replay fast path; the monitor must not).  Its hooks sit only on
miss paths — LLC victim fills, device accesses, TLB capacity evictions.
The batch engine's miss-run kernel executes them too: its lines go
through the machine's own line path, which calls these hooks, and it
notes its staged TLB evictions at the scalar points with the victim's asid (a staged fill needs no real entry for
that), so batch and scalar replays produce identical interference
counters (the golden-equivalence suite compares them per pair key).

Known approximation: LLC line ownership is recorded at fill time and
dropped at eviction; lines invalidated behind the monitor's back (page
teardown) leave a stale owner that the next eviction of that line
blames.  Traffic runs never invalidate mapped lines, and a power
failure clears the owner maps (:meth:`power_cycle`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


class InterferenceMonitor:
    """Attribution observer; install with
    :meth:`repro.arch.machine.Machine.install_interference_monitor`."""

    def __init__(self) -> None:
        self.machine = None
        self._counters: Optional[Dict[str, int]] = None
        #: LLC line -> pid that filled it.
        self._llc_owner: Dict[int, int] = {}
        #: (is_nvm, bank) -> pid that last touched the bank.
        self._bank_owner: Dict[Tuple[bool, int], int] = {}
        #: (kind, evictor, victim) -> formatted stats key (pair keys
        #: are dynamic, so they are formatted once and cached instead
        #: of precomputed like the static ``*_key`` attributes).
        self._pair_keys: Dict[Tuple[str, int, int], str] = {}

    def bind(self, machine) -> None:
        """Wire the monitor to ``machine`` (called by the installer)."""
        self.machine = machine
        self._counters = machine.stats.counters
        self._llc_self_key = "interference.llc.self"
        self._llc_cross_key = "interference.llc.cross"
        self._tlb_self_key = "interference.tlb.self"
        self._tlb_cross_key = "interference.tlb.cross"
        self._row_dram_self_key = "interference.row.dram.self"
        self._row_dram_cross_key = "interference.row.dram.cross"
        self._row_nvm_self_key = "interference.row.nvm.self"
        self._row_nvm_cross_key = "interference.row.nvm.cross"
        dram = machine.controller.dram
        nvm = machine.controller.nvm
        self._dram_channel = dram
        self._nvm_channel = nvm
        self._dram_row_size = dram._row_size  # noqa: SLF001 - geometry
        self._nvm_row_size = nvm._row_size  # noqa: SLF001 - geometry
        self._dram_banks = dram.banks
        self._nvm_banks = nvm.banks

    def _pair_key(self, kind: str, evictor: int, victim: int) -> str:
        key = self._pair_keys.get((kind, evictor, victim))
        if key is None:
            key = f"interference.{kind}.p{evictor}_evicted_p{victim}"
            self._pair_keys[(kind, evictor, victim)] = key
        return key

    # ------------------------------------------------------------------
    # machine hooks (miss paths only)
    # ------------------------------------------------------------------

    def note_llc_fill(self, line: int, victim_line: Optional[int]) -> None:
        """An LLC fill happened; ``victim_line`` was evicted (or None)."""
        pid = self.machine.asid
        owners = self._llc_owner
        if victim_line is not None:
            previous = owners.pop(victim_line, None)
            if previous is not None:
                counters = self._counters
                if previous == pid:
                    counters[self._llc_self_key] += 1
                else:
                    counters[self._llc_cross_key] += 1
                    pair_key = self._pair_key("llc", pid, previous)
                    counters[pair_key] += 1
        owners[line] = pid

    def note_device(self, addr: int, is_nvm: bool) -> None:
        """A device read/write completed; blame row switches."""
        pid = self.machine.asid
        if is_nvm:
            channel = self._nvm_channel
            bank = (addr // self._nvm_row_size) % self._nvm_banks
            kind = "row.nvm"
            self_key = self._row_nvm_self_key
            cross_key = self._row_nvm_cross_key
        else:
            channel = self._dram_channel
            bank = (addr // self._dram_row_size) % self._dram_banks
            kind = "row.dram"
            self_key = self._row_dram_self_key
            cross_key = self._row_dram_cross_key
        owners = self._bank_owner
        previous = owners.get((is_nvm, bank))
        owners[(is_nvm, bank)] = pid
        if channel.last_row_hit or previous is None:
            return
        counters = self._counters
        if previous == pid:
            counters[self_key] += 1
        else:
            counters[cross_key] += 1
            pair_key = self._pair_key(kind, pid, previous)
            counters[pair_key] += 1

    def note_tlb_evict(self, victim_asid: int) -> None:
        """A TLB capacity eviction displaced an entry of ``victim_asid``."""
        pid = self.machine.asid
        counters = self._counters
        if victim_asid == pid:
            counters[self._tlb_self_key] += 1
        else:
            counters[self._tlb_cross_key] += 1
            pair_key = self._pair_key("tlb", pid, victim_asid)
            counters[pair_key] += 1

    def power_cycle(self) -> None:
        """Power failure: every tracked volatile structure emptied, so
        ownership history is gone too (the counters survive in stats,
        like every other counter)."""
        self._llc_owner.clear()
        self._bank_owner.clear()


def interference_report(stats) -> Dict[str, object]:
    """Structure the ``interference.*`` counters for a JSON report.

    Returns ``{"llc": {...}, "tlb": {...}, "row": {"dram": ..., "nvm":
    ...}}`` where each leaf carries ``self``, ``cross`` and a ``pairs``
    dict of per-(evictor, victim) counts.
    """

    def leaf() -> Dict[str, object]:
        return {"self": 0, "cross": 0, "pairs": {}}

    report: Dict[str, object] = {
        "llc": leaf(),
        "tlb": leaf(),
        "row": {"dram": leaf(), "nvm": leaf()},
    }
    for name, value in sorted(stats.with_prefix("interference.").items()):
        parts = name.split(".")[1:]  # drop "interference"
        if parts[0] == "row":
            section = report["row"][parts[1]]
            tail = parts[2]
        else:
            section = report[parts[0]]
            tail = parts[1]
        if tail in ("self", "cross"):
            section[tail] = value
        else:
            section["pairs"][tail] = value
    return report
