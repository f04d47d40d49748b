"""Sweep execution and crash safety (``repro.supervisor``).

Every sweep-shaped piece of work — CLI sweeps, the tuner's probes,
fault-sweep cells, benchmark sections, server jobs — runs through one
:class:`Supervisor`, the only owner of a process pool in the package.
It runs tasks inline when there is nothing to fan out and nothing asks
for crash isolation, and otherwise over a worker pool with the same
checkpoint/restart discipline the simulated cluster practices
(``repro.faults``) applied to the harness itself:

* :class:`Supervisor` — watchdog timeouts, retry with exponential
  backoff + deterministic jitter, pool respawn on worker death, and
  poison-spec quarantine (:class:`~repro.errors.PoisonedSpecError`);
* :mod:`~repro.supervisor.journal` — the append-only, fsync'd JSONL
  write-ahead ledger behind ``--journal``, torn-tail tolerant;
* :class:`~repro.supervisor.policy.RetryPolicy` — the knobs;
* :class:`~repro.supervisor.report.SupervisorReport` — what happened,
  attached to every supervised sweep and printed by the CLI.

Quickstart::

    from repro.supervisor import Supervisor, RetryPolicy

    sup = Supervisor(jobs=4, journal="sweep.jsonl",
                     policy=RetryPolicy(max_attempts=3, timeout=120.0))
    results = sup.run_specs(specs, return_exceptions=True)
    print(sup.report.render())

Re-running the same sweep with the same journal replays completed
specs and executes only the remainder — byte-identical to an
uninterrupted run.  ``python -m repro resume --journal PATH`` does the
same from the command line.
"""

from repro.supervisor.journal import (
    DONE,
    FAILED,
    POISONED,
    JournalState,
    JournalWriter,
    Outcome,
    load_journal,
)
from repro.supervisor.policy import RetryPolicy
from repro.supervisor.report import SupervisorReport
from repro.supervisor.supervisor import Supervisor, Task, drain_on_signals

__all__ = [
    "Supervisor",
    "Task",
    "drain_on_signals",
    "RetryPolicy",
    "SupervisorReport",
    "JournalWriter",
    "JournalState",
    "Outcome",
    "load_journal",
    "DONE",
    "FAILED",
    "POISONED",
]
