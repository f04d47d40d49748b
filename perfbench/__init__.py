"""The repository's benchmark: cold CLI, audited rack-scale fleet and
open-loop serve workloads, measured from outside the ``repro`` package.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``perfbench/README.md``.
"""
