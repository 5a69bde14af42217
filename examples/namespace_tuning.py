#!/usr/bin/env python
"""Namespace/log tuning: buying write bandwidth with logs (Section IV-B).

Two tenants share one KAML SSD.  First both namespaces use the default
policy (all logs shared); then the latency-sensitive tenant is given
dedicated logs while the batch tenant is pinned to a small set — showing
how the namespace-to-log mapping controls bandwidth allocation, and that
the mapping can be changed at runtime.

Run:  python examples/namespace_tuning.py
"""

from dataclasses import replace

from repro.config import ReproConfig
from repro.harness import build_kaml_ssd, format_table
from repro.kaml import (
    AllLogsPolicy,
    DedicatedLogsPolicy,
    ExplicitLogsPolicy,
    NamespaceAttributes,
    PutItem,
)

VALUE_SIZE = 2048
OPS = 1600
THREADS = 16


def make_ssd():
    """An SSD whose NVRAM is small enough that sustained Put bandwidth is
    bounded by how fast the assigned logs drain to flash."""
    config = ReproConfig()
    config = config.with_(
        resources=replace(config.resources, nvram_bytes=1 << 20)
    )
    return build_kaml_ssd(config=config)


def measure_put_bandwidth(env, ssd, namespace_id, tag):
    """Sustained Put bandwidth for one tenant (MB/s)."""
    done = []

    def worker(thread_id):
        for i in range(OPS // THREADS):
            key = thread_id * 10_000 + i
            yield from ssd.put([PutItem(namespace_id, key, (tag, i), VALUE_SIZE)])

    start = env.now
    procs = [env.process(worker(t)) for t in range(THREADS)]
    finish = env.all_of(procs)
    finish.add_callback(lambda _e: done.append(env.now))
    env.run()
    elapsed = done[0] - start
    return OPS * VALUE_SIZE / elapsed  # B/us == MB/s


def main() -> None:
    rows = []

    # Scenario 1: both tenants share every log (the default).
    env, ssd = make_ssd()

    def create_shared():
        a = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=4096))
        b = yield from ssd.create_namespace(NamespaceAttributes(expected_keys=4096))
        return a, b

    proc = env.process(create_shared())
    env.run()
    tenant_a, tenant_b = proc.value
    rows.append(["shared (default)", "tenant A",
                 len(ssd.namespaces[tenant_a].log_ids),
                 measure_put_bandwidth(env, ssd, tenant_a, "a")])

    # Scenario 2: tenant A gets 56 dedicated logs, tenant B is pinned to
    # the remaining 8 — and the change happens at runtime.
    env, ssd = make_ssd()

    def create_tuned():
        a = yield from ssd.create_namespace(
            NamespaceAttributes(expected_keys=4096, log_policy=DedicatedLogsPolicy(56))
        )
        b = yield from ssd.create_namespace(
            NamespaceAttributes(expected_keys=4096, log_policy=AllLogsPolicy())
        )
        return a, b

    proc = env.process(create_tuned())
    env.run()
    tenant_a, tenant_b = proc.value
    leftover = sorted(
        set(log.log_id for log in ssd.logs) - set(ssd.namespaces[tenant_a].log_ids)
    )
    ssd.retarget_namespace(tenant_b, ExplicitLogsPolicy(leftover))
    rows.append(["dedicated 56 logs", "tenant A",
                 len(ssd.namespaces[tenant_a].log_ids),
                 measure_put_bandwidth(env, ssd, tenant_a, "a")])
    rows.append(["pinned to 8 logs", "tenant B",
                 len(ssd.namespaces[tenant_b].log_ids),
                 measure_put_bandwidth(env, ssd, tenant_b, "b")])

    print(format_table(
        "Write bandwidth vs log assignment",
        ["policy", "tenant", "logs", "Put MB/s"],
        rows,
    ))
    assert [row[2] for row in rows] == [64, 56, 8]
    assert rows[2][3] < rows[1][3], "8 logs should drain slower than 56"
    print("\nMore logs per namespace -> more flash targets appending in "
          "parallel (Figure 8 sweeps this from 16 to 64).")


if __name__ == "__main__":
    main()
