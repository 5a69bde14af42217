"""The seeded store workloads every harness command drives.

One definition each of the ``mixed`` Get/Put workload, ``ycsb-b`` and
the "namespace at 75 % of capacity" rig that ``obs`` / ``prof`` /
``record`` and the figure experiments share.  Seeds, sizes and thread
counts are arguments, so two callers given the same values replay the
same history — the sim-event count test pins the ``sim_events`` and
``prof`` the breakdown fractions of one and the same run.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.kaml import NamespaceAttributes
from repro.workloads.adapters import KamlAdapter
from repro.workloads.oltp import drive
from repro.workloads.ycsb import Ycsb

#: The simulated workloads a ``--workload`` flag can name.
SIM_WORKLOADS = ("ycsb-b", "mixed")


def fresh_namespace(env: Any, ssd: Any, capacity: int) -> int:
    """A new namespace whose index reaches its 75 % target load at
    three quarters of ``capacity`` keys."""
    attributes = NamespaceAttributes(
        expected_keys=int(capacity * 0.75), target_load=0.75
    )
    return drive(env, ssd.create_namespace(attributes))


def mixed(
    env: Any,
    store: Any,
    namespace_id: int,
    *,
    seed: int,
    ops: int,
    threads: int,
    key_space: int,
    value_bytes: int = 512,
    write_fraction: float = 0.5,
) -> Any:
    """Spawn the Get/Put mix through the store; returns the event that
    fires when every worker is done.  ``ops`` is the total, split evenly;
    worker ``t`` draws from ``Random(seed + 997 * t)``: key, then coin."""

    def worker(rng: random.Random):
        for _ in range(max(1, ops // threads)):
            key = rng.randrange(key_space)
            if rng.random() < write_fraction:
                yield from store.put(namespace_id, key, ("mixed", key), value_bytes)
            else:
                yield from store.get(namespace_id, key)

    return env.all_of(
        [env.process(worker(random.Random(seed + 997 * t))) for t in range(threads)]
    )


def ycsb_b(env: Any, store: Any, *, seed: int, records: int) -> Ycsb:
    """YCSB B (95 % read, zipfian) through the caching layer — the
    Figure 10 stack — with its table loaded."""
    ycsb = Ycsb(env, KamlAdapter(store), records=records, workload="b", seed=seed)
    ycsb.setup()
    return ycsb


def prepare_workload(
    name: str,
    env: Any,
    ssd: Any,
    store: Any,
    *,
    seed: int,
    ops: int,
    threads: int,
    key_space: int = 512,
    records: int = 1000,
) -> Callable[[], Any]:
    """Set one of :data:`SIM_WORKLOADS` up (``key_space`` sizes the
    ``mixed`` namespace, ``records`` the ``ycsb-b`` table) and return the
    callable that runs its measured phase to completion — a caller can
    clear recorders or snapshot counters in between."""
    if name == "mixed":
        namespace_id = fresh_namespace(env, ssd, key_space)
        return lambda: env.run_until(
            mixed(
                env, store, namespace_id,
                seed=seed, ops=ops, threads=threads, key_space=key_space,
            )
        )
    if name != "ycsb-b":
        raise ValueError(f"unknown workload {name!r}; choose from {SIM_WORKLOADS}")
    ycsb = ycsb_b(env, store, seed=seed, records=records)
    return lambda: ycsb.run(threads=threads, ops_per_thread=max(1, ops // threads))
