"""Property-based crash-consistency testing.

Drives a random sequence of mmap/store/munmap/checkpoint operations,
crashes at an arbitrary point, recovers, and asserts the paper's
guarantees *exactly*: the recovered layout equals the committed layout,
and every committed page reads a single predicted byte.

With epoch-based frame reclamation (:mod:`repro.persist.reclaim`) the
old "acceptable set" model collapses to a function:

* a page whose translation was committed (it had a frame at checkpoint
  time) reads the last byte ever written through that frame generation,
  under BOTH schemes — post-checkpoint unmaps park the frame instead of
  freeing it, and recovery resurrects the translation;
* a committed page that had no frame yet (never faulted before the
  checkpoint) reads 0 under the rebuild scheme (no v2p entry, so it
  refaults a zero frame); under the persistent scheme it reads through
  whatever frame the NVM-resident live table held at crash, because
  that table survives and is reattached.

A stateful machine (one per scheme) additionally interleaves mremap
and mid-sequence crash/recover cycles, carrying the model across
recoveries.
"""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.common.config import small_machine_config
from repro.common.units import PAGE_SIZE
from repro.gemos.vma import MAP_NVM, PROT_READ, PROT_WRITE
from repro.platform import HybridSystem

RW = PROT_READ | PROT_WRITE

BASE = 1 << 36


class Model:
    """Exact shadow model with per-mapping frame generations.

    A *generation* is created when a page is mapped and identifies the
    frame that mapping faults in.  ``content[gen]`` is the last byte
    stored through it (frames are zero-filled, so the default is 0);
    ``frames`` holds generations that actually faulted a frame in.
    """

    def __init__(self):
        self._next_gen = 0
        self.live = {}  # page index -> generation
        self.frames = set()  # generations with an allocated frame
        self.content = {}  # generation -> last stored byte
        self.committed = None  # page -> (generation, frame_at_commit)

    def map_pages(self, pages):
        for page in pages:
            self.live[page] = self._next_gen
            self._next_gen += 1

    def unmap_pages(self, pages):
        for page in pages:
            self.live.pop(page, None)

    def move_pages(self, old_start, new_start, count):
        gens = [self.live.pop(old_start + i, None) for i in range(count)]
        for i, gen in enumerate(gens):
            if gen is not None:
                self.live[new_start + i] = gen

    def store(self, page, value):
        gen = self.live[page]
        self.frames.add(gen)
        self.content[gen] = value

    def commit(self):
        self.committed = {
            page: (gen, gen in self.frames) for page, gen in self.live.items()
        }

    def expected_read(self, page, scheme, live_at_crash):
        """The single byte a committed page must read after recovery."""
        gen, frame_committed = self.committed[page]
        if frame_committed:
            # Parked + resurrected (or still mapped): the frame's final
            # content, whichever scheme.
            return self.content.get(gen, 0)
        if scheme == "rebuild":
            return 0  # no v2p entry: refaults a zero frame
        live_gen = live_at_crash.get(page)
        if live_gen is not None and live_gen in self.frames:
            return self.content.get(live_gen, 0)
        return 0

    def reset_after_recovery(self, scheme, live_at_crash):
        """Re-derive the live state the verification loads left behind.

        Under the persistent scheme, a frame the reattached live table
        supplied is part of the recovered table, which recovery makes
        the reclaimer's committed snapshot: a later unmap parks it and
        the next recovery resurrects it, so it now counts as committed.
        """
        assert self.committed is not None
        new_live = {}
        for page, (gen, frame_committed) in list(self.committed.items()):
            if frame_committed:
                new_live[page] = gen
            elif scheme == "persistent" and live_at_crash.get(page) in self.frames:
                new_live[page] = live_at_crash[page]
                self.committed[page] = (live_at_crash[page], True)
            else:
                # The verification load faulted a fresh zero frame.
                new_live[page] = self._next_gen
                self.frames.add(self._next_gen)
                self.content[self._next_gen] = 0
                self._next_gen += 1
        self.live = new_live


operations = st.lists(
    st.one_of(
        st.tuples(st.just("mmap"), st.integers(0, 15), st.integers(1, 4)),
        st.tuples(st.just("store"), st.integers(0, 15), st.integers(0, 255)),
        st.tuples(st.just("munmap"), st.integers(0, 15), st.integers(1, 4)),
        st.tuples(st.just("checkpoint"), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=25,
)


def _apply(system, process, model, op, arg1, arg2):
    kernel = system.kernel
    if op == "mmap":
        pages = range(arg1, arg1 + arg2)
        if not any(p in model.live for p in pages):
            kernel.sys_mmap(process, BASE + arg1 * PAGE_SIZE, arg2 * PAGE_SIZE, RW, MAP_NVM)
            model.map_pages(pages)
    elif op == "store":
        if arg1 in model.live:
            system.machine.store(BASE + arg1 * PAGE_SIZE, bytes([arg2]))
            model.store(arg1, arg2)
    elif op == "munmap":
        kernel.sys_munmap(process, BASE + arg1 * PAGE_SIZE, arg2 * PAGE_SIZE)
        model.unmap_pages(range(arg1, arg1 + arg2))
    else:  # checkpoint
        system.checkpoint()
        model.commit()


def _verify_recovery(system, proc, model, scheme, live_at_crash):
    system.kernel.switch_to(proc)
    for page, (gen, _fc) in sorted(model.committed.items()):
        addr = BASE + page * PAGE_SIZE
        assert proc.address_space.find(addr) is not None, (
            f"committed page {page} lost ({scheme})"
        )
        expected = model.expected_read(page, scheme, live_at_crash)
        data = system.machine.load(addr, 1)[0]
        assert data == expected, (
            f"page {page} gen {gen}: read {data}, expected {expected} ({scheme})"
        )
    for page in live_at_crash:
        if page not in model.committed:
            assert proc.address_space.find(BASE + page * PAGE_SIZE) is None, (
                f"uncommitted page {page} survived recovery ({scheme})"
            )


@given(ops=operations, scheme=st.sampled_from(["rebuild", "persistent"]))
@settings(max_examples=25, deadline=None)
def test_recovery_matches_last_checkpoint(ops, scheme):
    system = HybridSystem(
        config=small_machine_config(), scheme=scheme, checkpoint_interval_ms=10_000
    )
    system.boot()
    process = system.spawn("prop")
    model = Model()
    for op, a, b in ops:
        _apply(system, process, model, op, a, b)
    live_at_crash = dict(model.live)
    system.crash()
    recovered = system.boot()

    if model.committed is None:
        # Never checkpointed: the process must not come back.
        assert recovered == []
        return

    (proc,) = recovered
    _verify_recovery(system, proc, model, scheme, live_at_crash)


def test_recovered_live_table_frame_survives_unmap_and_second_crash():
    """Persistent scheme: a frame faulted after the checkpoint comes back
    through the reattached live table, and recovery makes the recovered
    table the reclaimer's committed snapshot — so an unmap before the
    next crash parks the frame and the second recovery resurrects it
    (the case the stateful model below carries across recoveries)."""
    system = HybridSystem(
        config=small_machine_config(),
        scheme="persistent",
        checkpoint_interval_ms=10_000,
    )
    system.boot()
    process = system.spawn("rebase")
    system.kernel.sys_mmap(process, BASE, 3 * PAGE_SIZE, RW, MAP_NVM)
    system.checkpoint()
    system.machine.store(BASE + PAGE_SIZE, bytes([7]))
    system.crash()
    (process,) = system.boot()
    system.kernel.switch_to(process)
    assert system.machine.load(BASE + PAGE_SIZE, 1) == bytes([7])
    system.kernel.sys_munmap(process, BASE + PAGE_SIZE, PAGE_SIZE)
    system.crash()
    (process,) = system.boot()
    system.kernel.switch_to(process)
    assert system.machine.load(BASE + PAGE_SIZE, 1) == bytes([7])
    assert system.stats["recovery.resurrected_mappings"] == 1


class _ReclaimMachine(RuleBasedStateMachine):
    """Interleaves mmap/store/munmap/mremap/checkpoint/crash/recover.

    The crash rule verifies the exact model, then re-derives the model
    the recovered system satisfies and keeps going — recoveries compose.
    """

    scheme = ""

    def __init__(self):
        super().__init__()
        self.system = HybridSystem(
            config=small_machine_config(),
            scheme=self.scheme,
            checkpoint_interval_ms=10_000,
        )
        self.system.boot()
        self.process = self.system.spawn("state")
        self.model = Model()

    @rule(page=st.integers(0, 11), count=st.integers(1, 3))
    def do_mmap(self, page, count):
        pages = range(page, page + count)
        if any(p in self.model.live for p in pages):
            return
        self.system.kernel.sys_mmap(
            self.process, BASE + page * PAGE_SIZE, count * PAGE_SIZE, RW, MAP_NVM
        )
        self.model.map_pages(pages)

    @rule(data=st.data(), value=st.integers(1, 255))
    def do_store(self, data, value):
        if not self.model.live:
            return
        page = data.draw(st.sampled_from(sorted(self.model.live)))
        self.system.kernel.switch_to(self.process)
        self.system.machine.store(BASE + page * PAGE_SIZE, bytes([value]))
        self.model.store(page, value)

    @rule(page=st.integers(0, 11), count=st.integers(1, 3))
    def do_munmap(self, page, count):
        self.system.kernel.sys_munmap(
            self.process, BASE + page * PAGE_SIZE, count * PAGE_SIZE
        )
        self.model.unmap_pages(range(page, page + count))

    def _vmas(self, min_pages):
        return [
            v
            for v in self.process.address_space
            if v.start >= BASE and (v.end - v.start) >= min_pages * PAGE_SIZE
        ]

    @rule(data=st.data())
    def do_mremap_shrink(self, data):
        vmas = self._vmas(min_pages=2)
        if not vmas:
            return
        vma = data.draw(st.sampled_from(vmas))
        old_pages = (vma.end - vma.start) // PAGE_SIZE
        new_pages = data.draw(st.integers(1, old_pages - 1))
        self.system.kernel.sys_mremap(
            self.process, vma.start, vma.end - vma.start, new_pages * PAGE_SIZE
        )
        start = (vma.start - BASE) // PAGE_SIZE
        self.model.unmap_pages(range(start + new_pages, start + old_pages))

    @rule(data=st.data())
    def do_mremap_grow(self, data):
        vmas = self._vmas(min_pages=1)
        if not vmas:
            return
        vma = data.draw(st.sampled_from(vmas))
        old_len = vma.end - vma.start
        old_pages = old_len // PAGE_SIZE
        new_addr = self.system.kernel.sys_mremap(
            self.process, vma.start, old_len, old_len + PAGE_SIZE
        )
        old_start = (vma.start - BASE) // PAGE_SIZE
        new_start = (new_addr - BASE) // PAGE_SIZE
        if new_addr != vma.start:
            # Forced move: generations travel with their frames.
            self.model.move_pages(old_start, new_start, old_pages)
        self.model.map_pages([new_start + old_pages])

    @rule()
    def do_checkpoint(self):
        self.system.checkpoint()
        self.model.commit()

    @rule()
    def do_crash_recover(self):
        live_at_crash = dict(self.model.live)
        self.system.crash()
        recovered = self.system.boot()
        if self.model.committed is None:
            assert recovered == []
            self.process = self.system.spawn("state")
            self.model = Model()
            return
        (proc,) = recovered
        self.process = proc
        _verify_recovery(self.system, proc, self.model, self.scheme, live_at_crash)
        self.model.reset_after_recovery(self.scheme, live_at_crash)


class _RebuildMachine(_ReclaimMachine):
    scheme = "rebuild"


class _PersistentMachine(_ReclaimMachine):
    scheme = "persistent"


_RebuildMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None
)
_PersistentMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None
)

TestReclaimStatefulRebuild = _RebuildMachine.TestCase
TestReclaimStatefulPersistent = _PersistentMachine.TestCase
