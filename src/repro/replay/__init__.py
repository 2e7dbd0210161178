"""Batched replay of memory-access traces.

The scalar replay loop (``for op in trace: machine.access(*op)``) pays
Python dispatch per operation; :class:`BatchReplayer` replays the same
trace through one miss-run kernel that runs whole stretches of ops in
a single Python loop.  Every line goes through the machine's own
:meth:`~repro.arch.machine.Machine.phys_line_access`; only TLB staging
and the per-run counts are batched.  The kernel is its own probe: it
refuses on entry while extensions are attached, in os mode or while a
persist hook is installed, and breaks to the scalar
:meth:`~repro.arch.machine.Machine.access` path at every fault,
protection upgrade and multi-line access.  Observable behavior (stats
dump, clock, physical memory) is byte-identical to the scalar loop by
construction, and the golden-equivalence suite holds both paths
against each other.
"""

from repro.replay.batch import DEFAULT_CHUNK, BatchReplayer, replay_batch

__all__ = ["BatchReplayer", "replay_batch", "DEFAULT_CHUNK"]
