"""Workloads from the paper's evaluation (Section V): microbenchmarks,
TPC-B, a TPC-C subset (NewOrder + Payment), and YCSB A/B/C/D/F."""

from repro.workloads.keydist import (
    AliasZipfianChooser,
    LatestChooser,
    UniformChooser,
    ZipfianChooser,
)
from repro.workloads.adapters import KamlAdapter, ShoreAdapter
from repro.workloads.micro import (
    MicroResult,
    run_closed_loop,
    kaml_fetch,
    kaml_update,
    kaml_insert,
    block_fetch,
    block_update,
    block_insert,
)
from repro.workloads.tpcb import TpcB
from repro.workloads.tpcc import TpcC
from repro.workloads.ycsb import Ycsb, YCSB_MIXES
from repro.workloads.multitenant import (
    DEFAULT_TENANTS,
    MultiTenantWorkload,
    TenantResult,
    TenantSpec,
    run_multitenant,
)
from repro.workloads.catalogue import (
    SIM_WORKLOADS,
    fresh_namespace,
    mixed,
    prepare_workload,
    ycsb_b,
)
from repro.workloads.replay import (
    ReplayError,
    ReplayIssue,
    journal_to_issues,
    prepare_namespaces,
    replay_journal,
    synth_hotkey,
)

__all__ = [
    "AliasZipfianChooser",
    "SIM_WORKLOADS",
    "UniformChooser",
    "ZipfianChooser",
    "LatestChooser",
    "KamlAdapter",
    "ShoreAdapter",
    "MicroResult",
    "run_closed_loop",
    "kaml_fetch",
    "kaml_update",
    "kaml_insert",
    "block_fetch",
    "block_update",
    "block_insert",
    "TpcB",
    "TpcC",
    "Ycsb",
    "YCSB_MIXES",
    "DEFAULT_TENANTS",
    "MultiTenantWorkload",
    "TenantResult",
    "TenantSpec",
    "run_multitenant",
    "ReplayError",
    "ReplayIssue",
    "fresh_namespace",
    "journal_to_issues",
    "mixed",
    "prepare_workload",
    "prepare_namespaces",
    "replay_journal",
    "synth_hotkey",
    "ycsb_b",
]
