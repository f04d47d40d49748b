"""Schedulers: baseline, Harmony, and contemporary training schedules.

Every scheduler turns a model + topology + batching configuration into
a :class:`~repro.sim.Plan`.  The baselines reproduce how today's
frameworks behave with per-GPU memory virtualization bolted on
(the paper's Fig. 2 measurements); the Harmony schedulers implement the
paper's four optimizations — input-batch grouping, just-in-time
update scheduling, p2p transfers, and task packing — as individually
toggleable options, so the ablation benchmarks can attribute the win.
The zoo also carries the paper's contemporaries as comparison points:
PipeDream's 1F1B schedule and DAPPLE's early-backward hybrid schedule.

The registry below is the single source of truth for scheme names:
the session, CLI, differential cross-checker, golden traces, and the
property/steady/fault test suites all enumerate it rather than keeping
their own lists, so a newly registered scheduler is exercised by the
whole stack for free.
"""

from typing import Callable

from repro.schedulers.base import Scheduler, BatchConfig
from repro.schedulers.single import SingleGpuScheduler
from repro.schedulers.dp_baseline import DataParallelBaseline
from repro.schedulers.pp_baseline import PipelineBaseline
from repro.schedulers.harmony_dp import HarmonyDP
from repro.schedulers.harmony_pp import HarmonyPP
from repro.schedulers.harmony_tp import HarmonyTP
from repro.schedulers.pipedream_1f1b import PipeDream1F1B
from repro.schedulers.dapple import DappleScheduler
from repro.schedulers.options import HarmonyOptions
from repro.util.registry import lookup

#: scheme name -> factory(model, topology, batch, options).  Baseline
#: schemes honor only the ``pack_size`` option; Harmony schemes take the
#: full :class:`HarmonyOptions`; the contemporary pipeline schedules
#: (pipedream-1f1b, dapple) partition whole layers into stages and take
#: no options.  Insertion order is the canonical presentation order
#: (``compare`` tables, differential reports, golden-trace file sets).
SCHEDULER_REGISTRY: dict[str, Callable[..., Scheduler]] = {
    "single": lambda model, topology, batch, options: SingleGpuScheduler(
        model, topology, batch, pack_size=options.pack_size
    ),
    "dp-baseline": lambda model, topology, batch, options: DataParallelBaseline(
        model, topology, batch, pack_size=options.pack_size
    ),
    "pp-baseline": lambda model, topology, batch, options: PipelineBaseline(
        model, topology, batch
    ),
    "harmony-dp": lambda model, topology, batch, options: HarmonyDP(
        model, topology, batch, options=options
    ),
    "harmony-pp": lambda model, topology, batch, options: HarmonyPP(
        model, topology, batch, options=options
    ),
    "harmony-tp": lambda model, topology, batch, options: HarmonyTP(
        model, topology, batch, options=options
    ),
    "pipedream-1f1b": lambda model, topology, batch, options: PipeDream1F1B(
        model, topology, batch
    ),
    "dapple": lambda model, topology, batch, options: DappleScheduler(
        model, topology, batch
    ),
}


def scheme_names() -> tuple[str, ...]:
    """Every registered scheme name, in canonical presentation order."""
    return tuple(SCHEDULER_REGISTRY)


def build_scheduler(
    scheme: str,
    model,
    topology,
    batch: BatchConfig,
    options: HarmonyOptions | None = None,
) -> Scheduler:
    """Construct the scheduler for a scheme name (the single registry
    the session, CLI, and differential cross-checker all share)."""
    options = options if options is not None else HarmonyOptions()
    factory = lookup(SCHEDULER_REGISTRY, scheme, "scheme")
    return factory(model, topology, batch, options)


__all__ = [
    "Scheduler",
    "BatchConfig",
    "SingleGpuScheduler",
    "DataParallelBaseline",
    "PipelineBaseline",
    "HarmonyDP",
    "HarmonyPP",
    "HarmonyTP",
    "PipeDream1F1B",
    "DappleScheduler",
    "HarmonyOptions",
    "SCHEDULER_REGISTRY",
    "scheme_names",
    "build_scheduler",
]
