"""Unit tests for the batch-replay engine.

The byte-identical batch-vs-scalar gating lives in
``test_golden_equivalence.py``; these tests pin the engine's contract
details — input handling, fallback triggers, interleaving with direct
``Machine.access`` calls — and the ``detach_extension`` bookkeeping the
engine's fallback logic relies on.
"""

import pytest

import repro.replay.batch as batch_module
from repro.arch.hooks import HardwareExtension
from repro.arch.machine import Machine
from repro.common.config import small_machine_config
from repro.harness.bench import SCENARIOS
from repro.prep.trace import PackedTrace
from repro.replay import BatchReplayer, replay_batch


def _fingerprint(machine: Machine):
    return machine.stats.dump(), machine.clock


class TestBatchReplayer:
    def test_accepts_ops_and_packed_traces(self):
        machine_a, trace = SCENARIOS["l1_resident"](1500)
        replay_batch(machine_a, trace)
        machine_b, trace = SCENARIOS["l1_resident"](1500)
        replay_batch(machine_b, PackedTrace.from_ops(trace))
        assert _fingerprint(machine_a) == _fingerprint(machine_b)

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        reference = None
        for chunk in (1, 7, 512, 100_000):
            monkeypatch.setattr(batch_module, "DEFAULT_CHUNK", chunk)
            machine, trace = SCENARIOS["l1_resident"](1500)
            replay_batch(machine, trace)
            fingerprint = _fingerprint(machine)
            if reference is None:
                reference = fingerprint
            else:
                assert fingerprint == reference, f"chunk={chunk}"

    def test_op_split_accounts_for_every_op(self):
        machine, trace = SCENARIOS["l1_resident"](2000)
        replayer = replay_batch(machine, trace)
        assert replayer.batched_ops + replayer.scalar_ops == len(trace)
        assert replayer.batched_ops > 0

    def test_extension_forces_scalar_fallback(self):
        machine, trace = SCENARIOS["l1_extensions"](1000)
        replayer = replay_batch(machine, trace)
        assert replayer.batched_ops == 0
        assert replayer.scalar_ops == 1000

    def test_disabled_fast_path_forces_scalar_fallback(self):
        machine, trace = SCENARIOS["l1_resident"](1000)
        machine.set_fast_path(False)
        replayer = replay_batch(machine, trace)
        assert replayer.batched_ops == 0

    def test_os_mode_forces_scalar_fallback(self):
        machine, trace = SCENARIOS["l1_resident"](1000)
        with machine.os_region("pinned"):
            replayer = replay_batch(machine, trace)
        assert replayer.batched_ops == 0

    def test_interleaves_with_direct_access(self):
        """The replayer owns no state: mixing batch replay with direct
        scalar calls on the same machine must match an all-scalar run."""
        scalar_machine, trace = SCENARIOS["l1_resident"](3000)
        for vaddr, size, is_write in trace:
            scalar_machine.access(vaddr, size, is_write)

        mixed_machine, trace = SCENARIOS["l1_resident"](3000)
        replayer = BatchReplayer(mixed_machine)
        replayer.replay(trace[:1000])
        for vaddr, size, is_write in trace[1000:1100]:
            mixed_machine.access(vaddr, size, is_write)
        replayer.replay(trace[1100:])
        assert _fingerprint(mixed_machine) == _fingerprint(scalar_machine)

    def test_zero_size_op_raises_like_scalar(self):
        machine, _ = SCENARIOS["l1_resident"](10)
        with pytest.raises(ValueError):
            machine.access(0, 0, False)
        machine, _ = SCENARIOS["l1_resident"](10)
        with pytest.raises(Exception):
            replay_batch(machine, [(0, 0, False)])


class TestDetachExtension:
    def test_detach_restores_fast_path(self):
        machine = Machine(small_machine_config())
        machine.set_fast_path(True)
        extension = HardwareExtension()
        machine.attach_extension(extension)
        assert not machine._fast_ok  # noqa: SLF001
        machine.detach_extension(extension)
        assert machine._fast_ok  # noqa: SLF001
        assert machine.extensions == []

    def test_detach_keeps_fast_path_off_when_others_remain(self):
        machine = Machine(small_machine_config())
        machine.set_fast_path(True)
        first, second = HardwareExtension(), HardwareExtension()
        machine.attach_extension(first)
        machine.attach_extension(second)
        machine.detach_extension(first)
        assert not machine._fast_ok  # noqa: SLF001
        machine.detach_extension(second)
        assert machine._fast_ok  # noqa: SLF001

    def test_order_independent_with_set_fast_path(self):
        """set_fast_path before or after the attach/detach cycle must
        land on the same state."""
        extension = HardwareExtension()

        before = Machine(small_machine_config())
        before.set_fast_path(True)
        before.attach_extension(extension)
        before.detach_extension(extension)

        after = Machine(small_machine_config())
        after.attach_extension(extension)
        after.set_fast_path(True)
        after.detach_extension(extension)

        assert before._fast_ok and after._fast_ok  # noqa: SLF001

    def test_detach_respects_disabled_fast_path(self):
        machine = Machine(small_machine_config())
        machine.set_fast_path(False)
        extension = HardwareExtension()
        machine.attach_extension(extension)
        machine.detach_extension(extension)
        assert not machine._fast_ok  # noqa: SLF001

    def test_detach_unattached_raises(self):
        machine = Machine(small_machine_config())
        with pytest.raises(ValueError, match="not attached"):
            machine.detach_extension(HardwareExtension())

    def test_batch_replay_resumes_after_detach(self):
        """Attach → scalar fallback; detach → batching resumes, and the
        result still matches an all-scalar machine doing the same."""
        extension = HardwareExtension()

        def run(machine, trace, batch):
            half = len(trace) // 2
            machine.attach_extension(extension)
            if batch:
                replayer = BatchReplayer(machine)
                replayer.replay(trace[:half])
                machine.detach_extension(extension)
                replayer.replay(trace[half:])
                return replayer
            for vaddr, size, is_write in trace[:half]:
                machine.access(vaddr, size, is_write)
            machine.detach_extension(extension)
            for vaddr, size, is_write in trace[half:]:
                machine.access(vaddr, size, is_write)
            return None

        scalar_machine, trace = SCENARIOS["l1_resident"](2000)
        run(scalar_machine, trace, batch=False)
        batch_machine, trace = SCENARIOS["l1_resident"](2000)
        replayer = run(batch_machine, trace, batch=True)
        assert replayer.scalar_ops >= 1000  # attached half fell back
        assert replayer.batched_ops > 0  # detached half re-engaged
        assert _fingerprint(batch_machine) == _fingerprint(scalar_machine)
