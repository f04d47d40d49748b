"""Sweep points and the worker entry point that simulates one.

A sweep is a list of :class:`RunSpec` — independent ``(model,
topology, config)`` points.  :meth:`repro.supervisor.Supervisor.run_specs`
evaluates them: cache first (keyed by :func:`spec_key`), misses inline
or across the supervisor's process pool, results **in submission
order** regardless of completion order — the determinism rule that
makes ``--jobs 4`` output byte-identical to ``--jobs 1``.

Workers re-raise nothing: :func:`_execute_spec` returns either the
result, the :class:`~repro.errors.ReproError` the simulation raised
(a deterministic answer, e.g. an infeasible scheme), or — for an
unexpected non-domain exception — a picklable
:class:`~repro.errors.WorkerError` wrapping it, which the supervisor
retries and eventually quarantines.  One buggy spec therefore can
never tear down the pool or lose the rest of the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import HarmonyConfig
from repro.errors import ReproError, WorkerError
from repro.hardware.topology import Topology
from repro.models.graph import ModelGraph
from repro.perf.fingerprint import fingerprint
from repro.sim.result import RunResult


@dataclass
class RunSpec:
    """One point of a sweep."""

    model: ModelGraph
    topology: Topology
    config: HarmonyConfig = field(default_factory=HarmonyConfig)
    label: str = ""


def spec_key(spec: RunSpec) -> str | None:
    """The run-cache/journal key for ``spec``, or ``None`` when the spec
    has no canonical content address (uncacheable)."""
    try:
        return "result:" + fingerprint(spec.model, spec.topology, spec.config)
    except Exception:
        # A FingerprintError, or a malformed spec (wrong types smuggled
        # into the dataclass): no address; let the worker report the
        # real failure.
        return None


def _execute_spec(spec: RunSpec) -> RunResult | ReproError:
    """Worker entry point: simulate one spec, returning (never raising)
    domain errors so one infeasible point cannot poison the pool.

    Unexpected non-domain exceptions are wrapped in a picklable
    :class:`~repro.errors.WorkerError` rather than re-raised: a raw
    third-party exception may not survive the pickle trip back to the
    parent, and an unpicklable one aborts the entire pool.
    """
    # Imported here, not at module top: workers import this module by
    # name, and the session layer pulls in the full scheduler stack.
    from repro.core.session import HarmonySession

    try:
        return HarmonySession(spec.model, spec.topology, spec.config).run()
    except ReproError as exc:
        return exc
    except Exception as exc:  # noqa: BLE001 — the wrap is the point
        return WorkerError.from_exception(spec.label, exc)
