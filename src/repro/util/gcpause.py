"""Pausing the cyclic GC around allocation-heavy simulator phases.

Planning, simulating and auditing a large fleet allocates millions of
short-lived, acyclic objects (tasks, heap entries, partials, trace
tuples) that CPython's reference counting reclaims on its own.  With
the cyclic collector left at its defaults, every allocation burst also
triggers generational passes whose gen-2 sweeps rescan the *entire live*
plan and topology graph — an O(fleet) cost paid O(fleet) times, which
turned both planning and the event loop superlinear at 1024+ devices.
Pausing collection for the bounded duration of one plan/run/audit keeps
per-event cost size-independent.

The pause is only free while the guarded code makes no reference
cycles: a cycle created inside the block survives until the guard
re-enables the collector, so its memory is held for the whole run.  The
event loop keeps to that (``tests/test_loop_garbage.py`` asserts a
planned, run and audited model leaves nothing for the collector).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def paused_gc():
    """Disable cyclic collection inside the block.

    Nesting-safe: when the collector is already off (an enclosing guard,
    or the embedding application's choice), the guard is a no-op and the
    outermost holder re-enables.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
