"""The recovery-policy zoo: what to do once a device is confirmed dead.

Mirrors the scheduler zoo's registry discipline: every policy is a
small strategy object registered in :data:`RECOVERY_REGISTRY`, and the
CLI, MTTR sweep, bench section, and tests enumerate the registry
rather than hardcoding names.  Policies decide *what world to recover
onto*; the Harmony/baseline asymmetry (are checkpoints usable after a
world change? is the reload partial or full?) stays in
:class:`~repro.faults.resilience.ResiliencePolicy` and composes with
every policy here.

``restart-replan``
    Today's behavior, extracted: roll back to the last usable
    checkpoint and re-plan onto the survivors.  Elastic upward too —
    a later :class:`DeviceReturn` rejoins the world (one more re-plan).
``wait-rejoin``
    Hold the (stalled — pipelined training wedges on a dead stage)
    world for ``policy.grace_window`` seconds.  If the device returns
    within grace, resume with the *full* world: the plan is unchanged
    and the world never changed size, so the last checkpoint stays
    usable even for the rigid baselines — only the rejoiner's state
    reload and the stall are paid.  If it does not, the full grace
    window was wasted waiting and the policy falls through to
    shrinking onto the survivors.
``spare-substitute``
    Swap a :class:`SpareDevice` into the dead device's position
    (:meth:`Topology.substitute`), reload the lost shard onto it, and
    re-plan.  The world keeps its size and shape, so checkpoints stay
    usable for every scheme.  No spare left -> fall through to shrink.
``degrade-continue``
    Shrink the world permanently — the current Harmony path.  Returns
    and spares are ignored: degradation is accepted, not repaired.

Each hook returns ``False`` when recovery is impossible (the runner
ends the run with ``recovered=False``); ``on_return`` returning
``True`` without touching the world simply consumes the event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.model import DeviceReturn
from repro.util.registry import lookup

if TYPE_CHECKING:
    from repro.faults.runner import _ResilientRun


class RecoveryPolicy:
    """Base strategy: hooks the resilient runner dispatches through.

    ``on_loss`` runs after the loss is *confirmed* (detection latency
    already charged); ``on_return`` runs when a ``DeviceReturn`` for a
    currently-lost device comes due between segments.
    """

    name = "abstract"

    def on_loss(self, run: "_ResilientRun", device: str, at: float) -> bool:
        raise NotImplementedError

    def on_return(self, run: "_ResilientRun", ret: DeviceReturn) -> bool:
        return True  # default: consume the event, change nothing


class RestartReplan(RecoveryPolicy):
    """Restart from the last usable checkpoint, re-plan on the current
    world — shrinking on a loss, growing back on a return."""

    name = "restart-replan"

    def on_loss(self, run: "_ResilientRun", device: str, at: float) -> bool:
        return run.shrink(device, at)

    def on_return(self, run: "_ResilientRun", ret: DeviceReturn) -> bool:
        return run.rejoin(ret.device, ret.at)


class WaitRejoin(RecoveryPolicy):
    """Hold for the grace window; resume the full world on a return,
    else fall through to the shrink path."""

    name = "wait-rejoin"

    def on_loss(self, run: "_ResilientRun", device: str, at: float) -> bool:
        ret = run.claim_return(device, deadline=at + run.policy.grace_window)
        if ret is not None:
            run.charge_stall(max(0.0, ret.at - run.offset))
            return run.resume_full(device)
        # Nobody came: the whole grace window was spent waiting before
        # the runtime gave up and shrank.
        run.charge_stall(run.policy.grace_window)
        return run.shrink(device, at)

    def on_return(self, run: "_ResilientRun", ret: DeviceReturn) -> bool:
        # A return past its grace window: the world already shrank, but
        # a usable device is a usable device — rejoin elastically.
        return run.rejoin(ret.device, ret.at)


class SpareSubstitute(RecoveryPolicy):
    """Swap in a cold standby; the world keeps its size and shape."""

    name = "spare-substitute"

    def on_loss(self, run: "_ResilientRun", device: str, at: float) -> bool:
        spare = run.claim_spare()
        if spare is not None:
            return run.substitute(device, spare)
        return run.shrink(device, at)

    def on_return(self, run: "_ResilientRun", ret: DeviceReturn) -> bool:
        # The dead device's slot is (or will be) filled by spares;
        # late returns are surplus hardware, not a recovery path.
        return True


class DegradeContinue(RecoveryPolicy):
    """Shrink permanently; ignore returns and spares."""

    name = "degrade-continue"

    def on_loss(self, run: "_ResilientRun", device: str, at: float) -> bool:
        return run.shrink(device, at)

    def on_return(self, run: "_ResilientRun", ret: DeviceReturn) -> bool:
        return True


#: Policy name -> class, in canonical presentation order (tables, CLI
#: choices, bench sections all iterate this).
RECOVERY_REGISTRY: dict[str, type[RecoveryPolicy]] = {
    RestartReplan.name: RestartReplan,
    WaitRejoin.name: WaitRejoin,
    SpareSubstitute.name: SpareSubstitute,
    DegradeContinue.name: DegradeContinue,
}


def recovery_names() -> tuple[str, ...]:
    """Every registered recovery policy, in presentation order."""
    return tuple(RECOVERY_REGISTRY)


def build_recovery(name: str) -> RecoveryPolicy:
    return lookup(RECOVERY_REGISTRY, name, "recovery policy")()
