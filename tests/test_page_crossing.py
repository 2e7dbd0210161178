"""Regression tests: page-crossing stores/loads must respect the v2p map.

The seed code translated only the *first* page of a store/load and then
moved ``len(data)`` physically contiguous bytes, so an access crossing
into a non-contiguously-mapped page silently corrupted (or leaked) the
frame physically adjacent to the first page — exactly the class of
value-fidelity bug the framework exists to catch.
"""

from typing import Dict, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.machine import Machine, WalkRecord
from repro.common.config import small_machine_config
from repro.common.units import PAGE_SIZE


def _machine_with_mapping(mapping: Dict[int, Tuple[int, bool]]) -> Machine:
    machine = Machine(small_machine_config())

    def walker(vpn: int) -> WalkRecord:
        return (), *mapping.get(vpn, (None, False))

    machine.install_context(1, walker, None)
    return machine


class TestPageCrossingStore:
    def test_tail_lands_in_mapped_frame_not_adjacent_one(self):
        # vpn 0 -> pfn 5, vpn 1 -> pfn 99: *not* physically contiguous.
        machine = _machine_with_mapping({0: (5, True), 1: (99, True)})
        data = bytes(range(1, 33))
        machine.store(PAGE_SIZE - 16, data)
        # Head: last 16 bytes of frame 5.
        assert machine.physmem.read(5 * PAGE_SIZE + PAGE_SIZE - 16, 16) == data[:16]
        # Tail: first 16 bytes of frame 99 (the mapped frame) ...
        assert machine.physmem.read(99 * PAGE_SIZE, 16) == data[16:]
        # ... and the physically adjacent frame 6 was never even
        # materialized, let alone written.
        assert machine.physmem.page_snapshot(6) is None

    def test_load_reads_mapped_frames_not_adjacent_one(self):
        machine = _machine_with_mapping({0: (5, True), 1: (99, True)})
        machine.physmem.write(5 * PAGE_SIZE + PAGE_SIZE - 8, b"headdata")
        machine.physmem.write(99 * PAGE_SIZE, b"taildata")
        # Poison the physically adjacent frame: the seed code read this.
        machine.physmem.write(6 * PAGE_SIZE, b"XXXXXXXX")
        assert machine.load(PAGE_SIZE - 8, 16) == b"headdatataildata"

    def test_round_trip_across_three_pages(self):
        mapping = {0: (30, True), 1: (11, True), 2: (25, True)}
        machine = _machine_with_mapping(mapping)
        data = bytes((i * 7 + 3) % 256 for i in range(2 * PAGE_SIZE))
        machine.store(PAGE_SIZE // 2, data)
        assert machine.load(PAGE_SIZE // 2, len(data)) == data

    def test_single_page_store_unaffected(self):
        machine = _machine_with_mapping({0: (7, True)})
        machine.store(128, b"value")
        assert machine.physmem.read(7 * PAGE_SIZE + 128, 5) == b"value"
        assert machine.load(128, 5) == b"value"


@settings(max_examples=40, deadline=None)
@given(
    pfns=st.permutations(list(range(1, 9))),
    start=st.integers(min_value=0, max_value=PAGE_SIZE - 1),
    size=st.integers(min_value=1, max_value=3 * PAGE_SIZE),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_multipage_stores_never_touch_unmapped_frames(pfns, start, size, seed):
    """Property: stores only ever land in frames named by the v2p map."""
    import random

    npages = (start + size + PAGE_SIZE - 1) // PAGE_SIZE
    mapping = {vpn: (pfns[vpn % len(pfns)] * 3, True) for vpn in range(npages)}
    mapped_frames = {pfn for pfn, _ in mapping.values()}
    machine = _machine_with_mapping(mapping)
    data = bytes(random.Random(seed).randrange(1, 256) for _ in range(size))
    machine.store(start, data)
    touched = set(machine.physmem._frames)  # noqa: SLF001 - inspecting state
    assert touched <= mapped_frames
    assert machine.load(start, size) == data
