"""Post-run audit: run every physical-consistency invariant.

Usage, after any simulation::

    from repro.validate import audit_run

    report = audit_run(result, topology, plan)
    report.raise_if_failed()          # or render(report.table())

The executor runs this automatically when ``ExecOptions.audit`` is set,
and the CLI exposes it as ``python -m repro audit``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hardware.topology import Topology
from repro.sim.plan import Plan
from repro.sim.result import RunResult
from repro.util.gcpause import paused_gc
from repro.validate.invariants import (
    _BYTE_TOL,
    _TIME_TOL,
    TraceIndex,
    _close,
    check_compute_events,
    check_compute_exclusivity,
    check_conservation,
    check_dependency_order,
    check_event_sanity,
    check_link_feasibility,
    check_memory_profile,
    check_retry_ledger,
    check_samples,
    check_task_coverage,
)
from repro.validate.violations import AuditReport, AuditViolation, ViolationKind

if TYPE_CHECKING:
    from repro.faults.report import FaultReport


def audit_run(
    result: RunResult,
    topology: Topology,
    plan: Plan,
    iterations: int = 1,
    partial: bool = False,
) -> AuditReport:
    """Audit one finished run against every physical invariant.

    ``iterations`` must match the ``ExecOptions.iterations`` the run
    used — a replayed plan legitimately traces each task that many
    times.

    ``partial`` audits a run a device loss aborted mid-flight: the
    conservation, exclusivity, ordering, and memory invariants must
    still hold on everything that *was* traced, but completeness checks
    (task coverage, sample counts) and link feasibility are skipped —
    in-flight transfers hold link reservations past the abort instant,
    so busy time legitimately exceeds the truncated makespan.

    Compressed periodic traces (steady-state fast-forward, see
    :mod:`repro.steady`) are audited on their expanded-on-demand view:
    every invariant below runs against the full logical event stream,
    bit-for-bit the one full simulation would have traced.  Expansion
    costs O(events x iterations) — auditing deliberately forgoes the
    fast-forward saving.
    """
    if result.trace.is_compressed:
        from dataclasses import replace

        result = replace(result, trace=result.trace.expanded())
    report = AuditReport(label=result.label)
    # Paused GC as around plan and run: the checks allocate O(events)
    # acyclic records, and collector passes would rescan the run's
    # whole live graph many times over.
    with paused_gc():
        index = TraceIndex(result.trace.events)
        checks = [
            ("event_sanity", check_event_sanity, (result, topology)),
            ("compute_exclusivity", check_compute_exclusivity, (result,)),
            ("memory_profile", check_memory_profile, (result,)),
            ("conservation", check_conservation, (result, index)),
            ("retry_ledger", check_retry_ledger, (result,)),
            ("dependency_order", check_dependency_order, (result, plan, index)),
        ]
        if not partial:
            checks += [
                ("link_feasibility", check_link_feasibility, (result, topology)),
                (
                    "task_coverage",
                    check_task_coverage,
                    (result, plan, iterations, index),
                ),
                ("samples", check_samples, (result, plan, iterations)),
            ]
        for name, check, args in checks:
            report.checks.append(name)
            report.extend(check(*args))
    return report


def audit_resilient(fault_report: "FaultReport") -> AuditReport:
    """Audit a resilient (fault-injected) run, segment by segment plus
    the cross-segment invariants a re-planning runner could break:

    * every segment passes :func:`audit_run` (aborted segments in
      ``partial`` mode);
    * compute exclusivity holds on the *merged* trace — segments shifted
      to global time must never overlap on one device, even across a
      re-plan onto a different topology;
    * the report's retried bytes equal the sum of its segments' retry
      ledgers;
    * the report's wall clock reconciles: segment durations plus
      checkpoint, recovery, and grace-window stalls add up to the
      total makespan;
    * credited samples never exceed what completed segments produced
      (equal when no iteration was rolled back).
    """
    label = (
        fault_report.segments[0].result.label
        if fault_report.segments
        else "resilient"
    )
    report = AuditReport(label=f"{label}+faults")
    for segment in fault_report.segments:
        sub = audit_run(
            segment.result, segment.topology, segment.plan,
            iterations=1, partial=segment.aborted,
        )
        for name in sub.checks:
            check = f"{name}[segment {segment.index}]"
            report.checks.append(check)
        report.extend(sub.violations)

    report.checks.append("cross_segment_exclusivity")
    merged = [
        event._replace(
            start=event.start + segment.started_at,
            end=event.end + segment.started_at,
        )
        for segment in fault_report.segments
        for event in segment.result.trace.events
        if event.category in ("compute", "allreduce")
    ]
    report.extend(check_compute_events(merged))

    report.checks.append("fault_accounting")
    report.extend(_check_fault_accounting(fault_report))
    return report


def _check_fault_accounting(fr: "FaultReport") -> list[AuditViolation]:
    violations: list[AuditViolation] = []
    segment_retries = sum(
        s.result.stats.retried_volume() for s in fr.segments
    )
    if not _close(fr.retried_bytes, segment_retries, _BYTE_TOL):
        violations.append(
            AuditViolation(
                ViolationKind.RETRY_CONSERVATION,
                f"fault report claims {fr.retried_bytes:.6g} B retried but "
                f"segment ledgers sum to {segment_retries:.6g} B",
                subject="retried_bytes",
                expected=segment_retries,
                actual=fr.retried_bytes,
            )
        )

    accounted = (
        sum(s.duration for s in fr.segments)
        + fr.checkpoint_seconds
        + fr.recovery_seconds
        + fr.stall_seconds
    )
    if not _close(fr.total_makespan, accounted, _TIME_TOL):
        violations.append(
            AuditViolation(
                ViolationKind.FAULT_ACCOUNTING,
                f"total makespan {fr.total_makespan:.6g}s != segments + "
                f"checkpoints + recoveries + stalls ({accounted:.6g}s)",
                subject="total_makespan",
                expected=accounted,
                actual=fr.total_makespan,
            )
        )

    produced = sum(s.result.samples for s in fr.segments if s.completed)
    credited_ok = (
        fr.samples == produced
        if fr.iterations_redone == 0
        else fr.samples <= produced
    )
    if not credited_ok:
        violations.append(
            AuditViolation(
                ViolationKind.FAULT_ACCOUNTING,
                f"{fr.samples} credited samples vs {produced} produced by "
                f"completed segments ({fr.iterations_redone} redone)",
                subject="samples",
                expected=float(produced),
                actual=float(fr.samples),
            )
        )
    return violations
