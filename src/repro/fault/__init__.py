"""Fault injection and crash-consistency verification.

Three layers, used together by the ``repro.harness crash`` CLI and the
CI crash matrix (see ``docs/recovery.md`` and ``docs/cluster.md``):

* :mod:`repro.fault.plan` — named crash points (device-side and
  cluster-coordinator-side) and the one power-loss injector that cuts
  a device or a whole rack at one of them.
* :mod:`repro.fault.flashfault` — seeded transient program/erase
  failures the logs must retry around.
* :mod:`repro.fault.shadow` / :mod:`repro.fault.harness` — the
  host-side shadow model and the one workload/crash/recover/verify
  engine, driving a single device or a sharded cluster (cross-shard 2PC
  atomicity checked through exclusive key groups) through the same
  target surface.
"""

from repro.fault.flashfault import FlashFaultInjector
from repro.fault.harness import default_config, pick_hit, run_matrix, run_scenario
from repro.fault.plan import (
    ALL_CRASH_POINTS,
    CLUSTER_CRASH_POINTS,
    CRASH_POINTS,
    FaultPlan,
    PowerLossInjector,
)
from repro.fault.shadow import ShadowModel, ShadowOp

__all__ = [
    "ALL_CRASH_POINTS",
    "CLUSTER_CRASH_POINTS",
    "CRASH_POINTS",
    "FaultPlan",
    "FlashFaultInjector",
    "PowerLossInjector",
    "ShadowModel",
    "ShadowOp",
    "default_config",
    "pick_hit",
    "run_matrix",
    "run_scenario",
]
