"""The supervisor's failure/recovery accounting.

A :class:`SupervisorReport` is attached to every supervised sweep
(``Supervisor.report``) and printed by the CLI after the sweep's own
output.  Every rendered line starts with ``supervisor:`` so callers
comparing sweep output for byte-identity (the resume determinism
check) can filter the report out with a prefix match — the report is
*about* the execution, not part of the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SupervisorReport:
    """Counters for one supervised sweep (cumulative across batches)."""

    #: Specs handed to the supervisor.
    tasks: int = 0
    #: Slots served by re-executing nothing: journal replays and run-
    #: cache hits.
    replayed: int = 0
    cache_hits: int = 0
    #: Specs that actually reached a worker at least once this process.
    executed: int = 0
    #: Submissions, including retries (``attempts - executed`` first
    #: submissions were free of any failure).
    attempts: int = 0
    #: Re-submissions after a retryable failure.
    retries: int = 0
    #: Process pools recycled (worker crash or watchdog kill).
    respawns: int = 0
    #: Watchdog expiries.
    timeouts: int = 0
    #: Deterministic domain failures (infeasible specs etc.) — these
    #: are results, not recovery events.
    failures: int = 0
    #: Tasks never started because the supervisor was drained
    #: (:meth:`~repro.supervisor.Supervisor.request_drain`); their
    #: slots carry :class:`~repro.errors.DrainedError` and they are not
    #: journaled, so a resume executes them.
    drained: int = 0
    #: Labels of quarantined specs, submission order.
    quarantined: tuple[str, ...] = ()
    #: Wall-clock seconds spent on attempts that had to be thrown away,
    #: plus pool teardown/respawn time.
    recovery_wall_sec: float = 0.0
    journal_path: str | None = None
    #: Per-spec failure history lines, for forensics.
    history: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when no recovery machinery fired at all."""
        return (
            self.retries == 0
            and self.respawns == 0
            and self.timeouts == 0
            and not self.quarantined
        )

    def render(self) -> str:
        lines = [
            (
                f"supervisor: {self.tasks} task(s): "
                f"{self.executed} executed, "
                f"{self.replayed} replayed from journal, "
                f"{self.cache_hits} cache hit(s), "
                f"{self.failures} failed, "
                f"{len(self.quarantined)} quarantined"
            ),
            (
                f"supervisor: {self.attempts} attempt(s), "
                f"{self.retries} retrie(s), "
                f"{self.respawns} pool respawn(s), "
                f"{self.timeouts} timeout(s); "
                f"{self.recovery_wall_sec:.2f}s lost to recovery"
            ),
        ]
        if self.drained:
            lines.append(
                f"supervisor: {self.drained} task(s) drained (not "
                f"started; a resume with the same journal executes them)"
            )
        for label in self.quarantined:
            history = self.history.get(label, ())
            tail = f" ({history[-1]})" if history else ""
            lines.append(f"supervisor: quarantined: {label}{tail}")
        if self.journal_path is not None:
            lines.append(f"supervisor: journal: {self.journal_path}")
        return "\n".join(lines)
