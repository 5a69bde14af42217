"""Multi-tenant cluster workload (serving-tier evaluation driver).

Drives a :class:`repro.cluster.KamlCluster` with several tenants, each
carrying its own latency budget, key space, and operation mix.  Every
tenant gets one hashed namespace; workers partition the tenant's key
space so each key has a single serial writer, which keeps the
host-side verification model exact (last write wins per key, no
cross-worker races).  A slice of each tenant's puts are multi-key
batches over consecutive keys — in a hashed namespace those straddle
shards and exercise the host-side 2PC path.

Used by ``repro.harness cluster`` and the cluster CI matrix; see
docs/cluster.md.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from random import Random
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster import AdmissionError, KamlCluster, TenantPolicy
from repro.sim import Environment

#: Spread between a tenant's smallest and largest record.
DEFAULT_VALUE_SIZES = (160, 480, 1200)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's shape: QoS budget plus workload mix."""

    name: str
    latency_budget_us: float
    workers: int = 2
    ops_per_worker: int = 60
    key_space: int = 96
    value_sizes: Tuple[int, ...] = DEFAULT_VALUE_SIZES
    #: Fractions of the op mix; the remainder is Get.
    put_fraction: float = 0.45
    group_fraction: float = 0.15  # multi-key put (cross-shard 2PC)
    delete_fraction: float = 0.05
    group_size: int = 3
    #: Closed-loop think time range between ops, microseconds.
    think_us: Tuple[float, float] = (40.0, 320.0)

    def namespace(self) -> str:
        return f"{self.name}-data"


#: Three-tier default population: a latency-sensitive tenant, a bulk
#: writer, and a background scanner-ish reader.
DEFAULT_TENANTS: Tuple[TenantSpec, ...] = (
    TenantSpec("gold", latency_budget_us=20_000.0, put_fraction=0.35,
               group_fraction=0.10, think_us=(40.0, 160.0)),
    TenantSpec("silver", latency_budget_us=50_000.0, put_fraction=0.55,
               group_fraction=0.20, think_us=(80.0, 320.0)),
    TenantSpec("bronze", latency_budget_us=120_000.0, put_fraction=0.25,
               group_fraction=0.05, delete_fraction=0.10,
               think_us=(160.0, 640.0)),
)


@dataclass
class TenantResult:
    """Per-tenant aggregate outcome of one run."""

    name: str
    ops: int = 0
    puts: int = 0
    group_puts: int = 0
    gets: int = 0
    deletes: int = 0
    sheds: int = 0
    latencies_us: List[float] = field(default_factory=list)

    @property
    def mean_latency_us(self) -> float:
        if not self.latencies_us:
            return 0.0
        return sum(self.latencies_us) / len(self.latencies_us)

    @property
    def p99_latency_us(self) -> float:
        if not self.latencies_us:
            return 0.0
        ordered = sorted(self.latencies_us)
        return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]

    def to_builtin(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "ops": self.ops,
            "puts": self.puts,
            "group_puts": self.group_puts,
            "gets": self.gets,
            "deletes": self.deletes,
            "sheds": self.sheds,
            "mean_latency_us": round(self.mean_latency_us, 3),
            "p99_latency_us": round(self.p99_latency_us, 3),
        }


class MultiTenantWorkload:
    """Setup / run / verify cycle for one cluster instance.

    The host-side model (``self.expected``) mirrors every acknowledged
    write; :meth:`verify` reads each touched key back through the
    serving tier and reports mismatches.  Because workers partition the
    key space, the model needs no versioning — ack order per key is
    program order.
    """

    def __init__(
        self,
        env: Environment,
        cluster: KamlCluster,
        tenants: Tuple[TenantSpec, ...] = DEFAULT_TENANTS,
        seed: int = 0,
    ):
        self.env = env
        self.cluster = cluster
        self.tenants = tenants
        self.seed = seed
        #: (namespace, key) -> expected value, or None for deleted.
        self.expected: Dict[Tuple[str, int], Optional[Any]] = {}
        self.results = {spec.name: TenantResult(spec.name) for spec in tenants}
        self.start_us = 0.0
        self.elapsed_us = 0.0

    def setup(self) -> Any:
        for spec in self.tenants:
            self.cluster.register_tenant(
                TenantPolicy(spec.name, latency_budget_us=spec.latency_budget_us)
            )
            yield from self.cluster.create_namespace(
                spec.namespace(), tenant=spec.name, mode="hashed"
            )

    def run(self) -> Any:
        """Drive every tenant's workers to completion; returns results."""
        self.start_us = self.env.now
        procs = []
        for spec in self.tenants:
            for widx in range(spec.workers):
                procs.append(self.env.process(self._worker(spec, widx)))
        yield self.env.all_of(procs)
        self.elapsed_us = self.env.now - self.start_us
        return self.results

    def _worker(self, spec: TenantSpec, widx: int) -> Any:
        rng = Random(
            self.seed * 1_000_003
            + zlib.crc32(spec.name.encode()) % 65_536
            + widx * 7919
        )
        namespace = spec.namespace()
        result = self.results[spec.name]
        # This worker's exclusive slice of the tenant key space.
        my_keys = [
            key for key in range(spec.key_space)
            if key % spec.workers == widx
        ]
        for _ in range(spec.ops_per_worker):
            think_us = rng.uniform(*spec.think_us)
            self.env.try_advance(think_us) or (yield self.env.timeout(think_us))
            roll = rng.random()
            started = self.env.now
            try:
                if roll < spec.group_fraction:
                    base = rng.randrange(max(1, len(my_keys) - spec.group_size))
                    keys = my_keys[base:base + spec.group_size]
                    items = [
                        (key, (spec.name, widx, key, result.ops), rng.choice(spec.value_sizes))
                        for key in keys
                    ]
                    yield from self.cluster.put(namespace, items)
                    for key, value, _size in items:
                        self.expected[(namespace, key)] = value
                    result.group_puts += 1
                elif roll < spec.group_fraction + spec.put_fraction:
                    key = rng.choice(my_keys)
                    value = (spec.name, widx, key, result.ops)
                    yield from self.cluster.put(
                        namespace, [(key, value, rng.choice(spec.value_sizes))]
                    )
                    self.expected[(namespace, key)] = value
                    result.puts += 1
                elif roll < spec.group_fraction + spec.put_fraction + spec.delete_fraction:
                    key = rng.choice(my_keys)
                    yield from self.cluster.delete(namespace, key)
                    self.expected[(namespace, key)] = None
                    result.deletes += 1
                else:
                    key = rng.choice(my_keys)
                    yield from self.cluster.get(namespace, key)
                    result.gets += 1
            except AdmissionError:
                result.sheds += 1
                continue
            result.ops += 1
            result.latencies_us.append(self.env.now - started)

    def verify(self) -> Any:
        """Read back every key the model touched; returns mismatch list."""
        failures: List[str] = []
        for (namespace, key) in sorted(self.expected):
            expected = self.expected[(namespace, key)]
            observed = yield from self.cluster.get(namespace, key)
            if observed != expected:
                failures.append(
                    f"{namespace}[{key}]: expected {expected!r}, got {observed!r}"
                )
        return failures

    def summary(self) -> Dict[str, Any]:
        total_ops = sum(r.ops for r in self.results.values())
        ops_per_sec = (
            total_ops * 1e6 / self.elapsed_us if self.elapsed_us > 0 else 0.0
        )
        return {
            "seed": self.seed,
            "elapsed_us": round(self.elapsed_us, 3),
            "total_ops": total_ops,
            "ops_per_sec": round(ops_per_sec, 3),
            "total_sheds": sum(r.sheds for r in self.results.values()),
            "tenants": [
                self.results[spec.name].to_builtin() for spec in self.tenants
            ],
        }


def run_multitenant(
    env: Environment,
    cluster: KamlCluster,
    tenants: Tuple[TenantSpec, ...] = DEFAULT_TENANTS,
    seed: int = 0,
    verify: bool = True,
) -> Dict[str, Any]:
    """Convenience wrapper: setup, run, drain, verify, summarize."""
    workload = MultiTenantWorkload(env, cluster, tenants, seed)

    def drive() -> Any:
        yield from workload.setup()
        yield from workload.run()
        yield from cluster.drain()
        failures: List[str] = []
        if verify:
            failures = yield from workload.verify()
        return failures

    proc = env.process(drive())
    env.run_until(proc)
    failures = proc.value or []
    result = workload.summary()
    result["ok"] = not failures
    result["failures"] = failures
    return result
