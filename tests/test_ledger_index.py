"""The swap ledger's per-device index and the audit's linear cost.

:class:`~repro.memory.stats.SwapStats` answers per-device queries
through a per-device index of its keys instead of scanning the whole
flat ledger.  The contract is bitwise: every query adds the same values
in the same order as a filtered scan of the flat ledger, so the tests
compare against a brute-force scan written here, with ``==`` on floats,
never ``approx``.  They cover the three ways a ledger is filled: a live
run, a steady-state fast-forward (which folds keys in place) and a
prefix-checkpoint restore (which replaces the ledger wholesale); plus a
fault-injected run for the retry ledger.

The audit's cost is checked with a deterministic count of executed
source lines (a loop iteration counts as a line, so a filtered scan
inside a generator shows): at four times the fleet and events, the
audit may execute at most about four times the lines.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.config import HarmonyConfig
from repro.core.session import HarmonySession
from repro.faults import FaultInjector, FaultPlan, ResiliencePolicy
from repro.faults import TransientTransferError
from repro.hardware import presets
from repro.memory.stats import Direction
from repro.models import zoo
from repro.perf.incremental import CheckpointStore
from repro.schedulers import build_scheduler
from repro.schedulers.base import BatchConfig
from repro.sim.executor import ExecOptions, Executor
from repro.tensors.tensor import TensorKind
from repro.units import GB, MB
from repro.validate import audit_run, check_dependency_order

from tests.conftest import tight_server


def model():
    return zoo.synthetic_uniform(
        num_layers=4, param_bytes_per_layer=100 * MB, activation_bytes=25 * MB
    )


def session(scheme="harmony-pp", iterations=1, steady="off", store=None):
    config = HarmonyConfig(
        scheme, batch=BatchConfig(1, 2), iterations=iterations,
        steady_state=steady,
    )
    return HarmonySession(
        model(), tight_server(2, 550 * MB), config, checkpoints=store
    )


# -- brute-force reference: filtered scans of the flat ledgers --------------


def scan(ledger: dict, device=None, kind=None, direction=None):
    return sum(
        v
        for (d, k, dr), v in ledger.items()
        if (device is None or d == device)
        and (kind is None or k == kind)
        and (direction is None or dr == direction)
    )


def scan_directions(stats, device=None) -> dict:
    out = {d: 0.0 for d in Direction}
    for (dev, _, dr), v in stats._volume.items():
        if device is None or dev == device:
            out[dr] += v
    return out


def scan_summary(stats) -> str:
    per_dir: dict = {}
    for (dev, _, dr), v in stats._volume.items():
        per_dir[(dev, dr)] = per_dir.get((dev, dr), 0.0) + v
    per_retried: dict = {}
    for (dev, _, _), v in stats._retried.items():
        per_retried[dev] = per_retried.get(dev, 0.0) + v
    lines = ["swap stats (GB):"]
    for device in sorted({d for d, _, _ in stats._volume}):
        parts = [
            f"{dr.value}={per_dir[(device, dr)] / GB:.2f}"
            for dr in Direction
            if per_dir.get((device, dr), 0.0)
        ]
        if per_retried.get(device, 0.0):
            parts.append(f"retried={per_retried[device] / GB:.2f}")
        lines.append(f"  {device}: " + (", ".join(parts) or "none"))
    return "\n".join(lines)


def assert_index_matches_scan(stats) -> None:
    devices = sorted({d for d, _, _ in stats._volume})
    assert stats.devices() == devices
    for device in (None, *devices, "no-such-device"):
        assert stats.direction_volumes(device) == scan_directions(stats, device)
        for kind in (None, *TensorKind):
            for direction in (None, *Direction):
                args = (device, kind, direction)
                assert stats.volume(*args) == scan(stats._volume, *args)
                assert stats.events(*args) == scan(stats._events, *args)
                assert stats.retried_volume(*args) == scan(stats._retried, *args)
                assert stats.retry_events(*args) == scan(
                    stats._retry_events, *args
                )
    assert stats.summary() == scan_summary(stats)


class TestIndexMatchesFlatScan:
    def test_golden_fig4_run(self):
        result = session("harmony-pp").run()
        assert result.stats.devices()
        assert_index_matches_scan(result.stats)

    @pytest.mark.parametrize("scheme", ["harmony-pp", "harmony-dp"])
    def test_steady_fast_forwarded_run(self, scheme):
        result = session(scheme, iterations=8, steady="auto").run()
        assert result.steady.skipped > 0  # apply_fast_forward folded keys
        assert_index_matches_scan(result.stats)

    def test_checkpoint_restored_run(self):
        store = CheckpointStore()
        session(iterations=4, store=store).run()
        restored = session(iterations=4, store=store).run()
        assert store.counters()["hits"] == 1
        assert_index_matches_scan(restored.stats)

    def test_fault_injected_run_with_retries(self):
        topo = tight_server(2)
        plan = build_scheduler(
            "harmony-dp", model(), topo, BatchConfig(1, 2)
        ).plan()
        injector = FaultInjector(
            FaultPlan(seed=1, faults=(TransientTransferError(0.3),)),
            ResiliencePolicy(),
        )
        result = Executor(
            topo, plan, options=ExecOptions(injector=injector)
        ).run()
        assert result.stats.retried_volume() > 0
        assert_index_matches_scan(result.stats)

    def test_device_reports_read_the_ledger(self):
        result = session("harmony-dp").run()
        stats = result.stats
        for name, report in result.devices.items():
            assert report.swap_in_bytes == scan(
                stats._volume, name, None, Direction.SWAP_IN
            )
            assert report.swap_out_bytes == scan(
                stats._volume, name, None, Direction.SWAP_OUT
            )


# -- audit cost: deterministic line counts ------------------------------------


def fleet_run(num_gpus: int):
    model = zoo.synthetic_uniform(
        num_layers=4, param_bytes_per_layer=10 * MB, activation_bytes=2 * MB
    )
    topology = presets.commodity_server(num_gpus=num_gpus)
    s = HarmonySession(
        model, topology,
        HarmonyConfig("harmony-dp", batch=BatchConfig(1, 2)),
    )
    return s.run(), topology, s.plan()


def lines(fn, *args) -> int:
    """Source lines ``fn(*args)`` executes, loop iterations included."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return tracer

    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return count


class TestAuditIsLinear:
    SMALL, LARGE = 16, 64

    @pytest.fixture(scope="class")
    def runs(self):
        return fleet_run(self.SMALL), fleet_run(self.LARGE)

    def growth(self, runs, check) -> tuple[float, float]:
        (small, *small_args), (large, *large_args) = runs
        events = len(large.trace.events) / len(small.trace.events)
        work = lines(check, large, *large_args) / lines(check, small, *small_args)
        return work, events

    def test_audit_work_grows_with_events(self, runs):
        work, events = self.growth(runs, audit_run)
        assert work <= 1.25 * events, (work, events)

    def test_dependency_order_work_grows_with_events(self, runs):
        def dependency_order(result, topology, plan):
            return check_dependency_order(result, plan)

        work, events = self.growth(runs, dependency_order)
        assert work <= 1.25 * events, (work, events)
