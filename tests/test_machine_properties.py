"""Property-based invariants on the machine model itself."""

from hypothesis import given, settings, strategies as st

from repro.arch.machine import Machine
from repro.arch.tlb import Tlb, TlbEntry
from repro.common.config import TlbConfig, small_machine_config
from repro.common.stats import Stats
from repro.common.units import PAGE_SIZE

# ----------------------------------------------------------------------
# cycle attribution
# ----------------------------------------------------------------------

mode_ops = st.lists(
    st.one_of(
        st.tuples(st.just("user"), st.integers(1, 1000)),
        st.tuples(st.sampled_from(["fault", "checkpoint", "hscc.copy"]),
                  st.integers(1, 1000)),
    ),
    max_size=40,
)


class TestAttributionProperties:
    @given(ops=mode_ops)
    @settings(max_examples=60, deadline=None)
    def test_clock_equals_sum_of_attributed_cycles(self, ops):
        machine = Machine(small_machine_config())
        for category, cycles in ops:
            if category == "user":
                machine.advance(cycles)
            else:
                with machine.os_region(category):
                    machine.advance(cycles)
        attributed = machine.stats["cycles.user"] + machine.stats[
            "cycles.os.total"
        ]
        assert attributed == machine.clock

    @given(ops=mode_ops)
    @settings(max_examples=40, deadline=None)
    def test_uncharged_regions_never_move_the_clock(self, ops):
        machine = Machine(small_machine_config())
        for category, cycles in ops:
            with machine.os_region(category or "x", charge=False):
                machine.advance(cycles)
        assert machine.clock == 0


# ----------------------------------------------------------------------
# translation determinism and monotonicity
# ----------------------------------------------------------------------

access_lists = st.lists(
    st.tuples(st.integers(0, 63), st.booleans()), min_size=1, max_size=200
)


def flat_machine(pages=64):
    machine = Machine(small_machine_config())
    machine.install_context(
        1, lambda vpn: ((), vpn, True) if vpn < pages else ((), None, False), None
    )
    return machine


class TestAccessProperties:
    @given(ops=access_lists)
    @settings(max_examples=50, deadline=None)
    def test_clock_is_strictly_monotonic(self, ops):
        machine = flat_machine()
        last = machine.clock
        for page, is_write in ops:
            machine.access(page * PAGE_SIZE, 8, is_write)
            assert machine.clock > last
            last = machine.clock

    @given(ops=access_lists)
    @settings(max_examples=40, deadline=None)
    def test_same_trace_same_clock(self, ops):
        def run():
            machine = flat_machine()
            for page, is_write in ops:
                machine.access(page * PAGE_SIZE, 8, is_write)
            return machine.clock

        assert run() == run()

    @given(ops=access_lists)
    @settings(max_examples=40, deadline=None)
    def test_op_counters_match_trace(self, ops):
        machine = flat_machine()
        for page, is_write in ops:
            machine.access(page * PAGE_SIZE, 8, is_write)
        reads = sum(1 for _p, w in ops if not w)
        writes = len(ops) - reads
        assert machine.stats["ops.reads"] == reads
        assert machine.stats["ops.writes"] == writes


# ----------------------------------------------------------------------
# TLB model equivalence
# ----------------------------------------------------------------------

tlb_ops = st.lists(
    st.tuples(st.sampled_from(["insert", "lookup", "invalidate"]),
              st.integers(0, 30)),
    max_size=120,
)


class TestTlbModelEquivalence:
    @given(ops=tlb_ops)
    @settings(max_examples=60, deadline=None)
    def test_behaves_like_bounded_lru_dict(self, ops):
        capacity = 8
        tlb = Tlb(TlbConfig(entries=capacity), Stats())
        model = {}  # vpn -> pfn, dict order = LRU order

        for op, vpn in ops:
            if op == "insert":
                if vpn in model:
                    del model[vpn]
                elif len(model) >= capacity:
                    oldest = next(iter(model))
                    del model[oldest]
                model[vpn] = vpn + 100
                tlb.insert(TlbEntry(vpn=vpn, pfn=vpn + 100, asid=0))
            elif op == "lookup":
                entry = tlb.lookup(0, vpn)
                if vpn in model:
                    model[vpn] = model.pop(vpn)  # refresh LRU
                    assert entry is not None and entry.pfn == model[vpn]
                else:
                    assert entry is None
            else:
                tlb.invalidate(0, vpn)
                model.pop(vpn, None)

        resident = {e.vpn: e.pfn for e in tlb.entries()}
        assert resident == model
        assert [e.vpn for e in tlb.entries()] == list(model)
