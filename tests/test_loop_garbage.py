"""A finished run is freed by reference counting alone.

Planning, the event loop and the audit all run with the cyclic garbage
collector paused (:mod:`repro.util.gcpause`), so a reference cycle
created there lives until the collector next runs — for a rack-scale
run, tens of thousands of chains, memory ops and continuations held
past their use.  The event loop therefore keeps one rule: continuations
are bound methods of slotted objects, and no closure refers to itself
(see docs/INTERNALS.md, "The live event loop").

Each test plans, runs and audits a 4-GPU model with the collector off,
drops the result, and asserts that a collection then finds nothing
unreachable.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.config import HarmonyConfig
from repro.core.session import HarmonySession
from repro.models import zoo
from repro.perf.incremental import CheckpointStore
from repro.schedulers import scheme_names
from repro.schedulers.base import BatchConfig
from repro.units import MB

from tests.conftest import tight_server

SCHEMES = scheme_names()


def spec(scheme: str, iterations: int = 1, steady: str = "off"):
    model = zoo.synthetic_uniform(
        num_layers=4, param_bytes_per_layer=100 * MB, activation_bytes=25 * MB
    )
    config = HarmonyConfig(
        scheme,
        batch=BatchConfig(1, 2),
        iterations=iterations,
        steady_state=steady,
        audit=True,
    )
    return model, tight_server(4, 550 * MB), config


def unreachable_after(run) -> int:
    """Objects a collection finds unreachable after ``run()`` executed
    with the collector off.  One untimed call first, so lazy imports
    and first-use caches are not counted as the run's garbage."""
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def plan_run_audit(model, topology, config, checkpoints=None) -> None:
    session = HarmonySession(model, topology, config, checkpoints=checkpoints)
    session.plan()
    result = session.run()
    assert result.audit is not None and result.audit.passed


@pytest.mark.parametrize("scheme", SCHEMES)
def test_single_iteration_leaves_no_cycles(scheme):
    model, topology, config = spec(scheme)
    assert unreachable_after(lambda: plan_run_audit(model, topology, config)) == 0


@pytest.mark.parametrize("steady", ["auto", "off"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_cycle_path_leaves_no_cycles(scheme, steady):
    model, topology, config = spec(scheme, iterations=3, steady=steady)
    assert unreachable_after(lambda: plan_run_audit(model, topology, config)) == 0


def test_checkpoint_restored_run_leaves_no_cycles():
    model, topology, config = spec("harmony-pp", iterations=3)
    store = CheckpointStore()
    # The first (untimed) call is the donor; the measured one restores.
    assert unreachable_after(
        lambda: plan_run_audit(model, topology, config, store)
    ) == 0
    assert store.counters()["hits"] == 1
