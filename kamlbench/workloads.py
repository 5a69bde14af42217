"""The four workloads: rigs, loads, and how one op becomes API calls.

Everything here reaches the program under test through public entry
points only (``KamlStore``, ``KamlSsd``, ``KamlCluster``, the metrics
registries and the device counters), so a refactor inside ``src/repro``
cannot silently change what is measured.

Op counts are constants: ``OPS_PER_SECOND * --seconds`` ops are issued
whatever the machine's speed, because every simulated metric must repeat
bit-for-bit for a given seed.  The constants were chosen so that the
nominal ``--seconds 10`` window takes a little over 10 s on the reference
box (see :data:`kamlbench.spin.SPIN_REF_S`).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Set, Tuple

from repro.cache import KamlStore
from repro.cluster import ClusterConfig, KamlCluster, TenantPolicy
from repro.config import MIB, FlashGeometry, KamlParams, ReproConfig, SsdResources
from repro.kaml import KamlSsd, NamespaceAttributes, PutItem
from repro.sim import Environment

from kamlbench import streams

#: The length of window the op-count constants are calibrated for.
NOMINAL_SECONDS = 10

#: Settling is a loop of ``drain()`` calls; a device that has not gone
#: quiet after this many is wedged.
_MAX_SETTLE_ROUNDS = 400


def violations(report: Dict[str, Any], limits: List[Tuple[str, str, float]]) -> List[str]:
    """``limits`` is ``[(metric, "<=" | ">=", bound), ...]`` over the
    report's end-to-end, per-layer and guard-only numbers."""
    values = {**report["e2e"], **report["layers"], **report["guard_inputs"]}
    out = []
    for metric, relation, bound in limits:
        value = values[metric]
        if (value > bound) if relation == "<=" else (value < bound):
            out.append(f"{metric} = {value:.4g}, must be {relation} {bound:g}")
    return out


class Shadow:
    """Last acknowledged value per key, tolerant of overlapping writes.

    Two writes to one key whose issue-to-ack intervals overlap may be
    ordered either way by the program, so both stay acceptable until a
    later write starts after one of them was acknowledged.
    """

    def __init__(self) -> None:
        self._writes: Dict[int, List[Tuple[float, float, Any]]] = {}
        #: Keys written after the load.
        self.written: Set[int] = set()

    def loaded(self, key: int, value: Any) -> None:
        self._writes[key] = [(0.0, 0.0, value)]

    def wrote(self, key: int, issued_us: float, acked_us: float, value: Any) -> None:
        self.written.add(key)
        self._writes[key] = [
            w for w in self._writes.get(key, ()) if w[1] > issued_us
        ] + [(issued_us, acked_us, value)]

    def accepts(self, key: int, value: Any) -> bool:
        return any(w[2] == value for w in self._writes.get(key, ()))


class Workload:
    """One closed-loop workload bound to a freshly built rig."""

    name = ""
    clients = 0
    ops_per_second = 0
    warmup_ops = 0

    def __init__(self) -> None:
        self.env = Environment()
        self.shadow = Shadow()
        #: Keys any op read or wrote (the output check reads these back).
        self.touched: set = set()
        self.user_bytes = 0
        self.mismatches = 0
        self.devices: List[KamlSsd] = []
        #: The serving tier in front of ``devices``, when there is one.
        self.cluster: Any = None

    # -- to be provided by each workload ---------------------------------

    def make_ops(self, rng: random.Random, n: int) -> list:
        raise NotImplementedError

    def load(self) -> Any:
        raise NotImplementedError

    def issue(self, index: int, op: Any) -> Any:
        raise NotImplementedError

    def read(self, key: int) -> Any:
        raise NotImplementedError

    def kind(self, op: Any) -> str:
        raise NotImplementedError

    def regime(self, report: Dict[str, Any]) -> List[str]:
        """Why a full-scale window is not in the regime the workload is
        named for (empty when it is); ``report`` is the pass document."""
        raise NotImplementedError

    # -- shared plumbing -------------------------------------------------

    def drive(self, generator: Any) -> Any:
        process = self.env.process(generator)
        self.env.run_until(process)
        return process.value

    def tracers(self) -> list:
        tracers = [device.tracer for device in self.devices]
        if self.cluster is not None:
            tracers.append(self.cluster.tracer)
        return tracers

    def registries(self) -> list:
        return [device.metrics for device in self.devices]

    def quiet(self) -> bool:
        for device in self.devices:
            report = device.utilization_report()
            if report["nvram_used_bytes"] or report["staged_records"]:
                return False
        return True

    def settle(self) -> None:
        """Drain until every acknowledged write is on flash and mapped."""
        target = self.cluster if self.cluster is not None else self.devices[0]
        for _round in range(_MAX_SETTLE_ROUNDS):
            self.drive(target.drain())
            if self.quiet():
                return
        raise RuntimeError(f"{self.name}: device did not settle")

    def _loaded(self, key: int) -> Tuple[int, int]:
        value = (key, -1)
        self.shadow.loaded(key, value)
        return value


class YcsbB(Workload):
    """YCSB-B (95 % read / 5 % update) as single-op transactions."""

    clients = 8
    value_size = 1000
    load_batch = 32
    records = 0
    cache_bytes = 0
    theta = 0.0

    def __init__(self) -> None:
        super().__init__()
        ssd = KamlSsd(self.env, ReproConfig())
        self.devices = [ssd]
        self.store = KamlStore(self.env, ssd, self.cache_bytes)
        self.ns = 0

    def make_ops(self, rng: random.Random, n: int) -> list:
        return streams.ycsb_b(rng, n, self.records, self.theta)

    def load(self) -> Any:
        ssd = self.devices[0]
        self.ns = yield from ssd.create_namespace(
            NamespaceAttributes(expected_keys=self.records)
        )
        for base in range(0, self.records, self.load_batch):
            yield from ssd.put([
                PutItem(self.ns, key, self._loaded(key), self.value_size)
                for key in range(base, min(self.records, base + self.load_batch))
            ])

    def issue(self, index: int, op: Tuple[int, int]) -> Any:
        kind, key = op
        store, ns = self.store, self.ns
        self.touched.add(key)
        if kind == streams.READ:
            def body(txn: Any) -> Any:
                return (yield from store.transaction_read(txn, ns, key))

            value = yield from store.run_transaction(body)
            if value is None or value[0] != key:
                self.mismatches += 1
            return
        value = (key, index)
        size = self.value_size
        issued = self.env.now

        def body(txn: Any) -> Any:
            yield from store.transaction_update(txn, ns, key, value, size)

        yield from store.run_transaction(body)
        self.shadow.wrote(key, issued, self.env.now, value)
        self.user_bytes += size

    def read(self, key: int) -> Any:
        store, ns = self.store, self.ns

        def body(txn: Any) -> Any:
            return (yield from store.transaction_read(txn, ns, key))

        return (yield from store.run_transaction(body))

    def kind(self, op: Tuple[int, int]) -> str:
        return "read" if op[0] == streams.READ else "update"


class YcsbBCold(YcsbB):
    name = "ycsb-b-cold"
    records = 24_000
    cache_bytes = 1 * MIB
    theta = 0.0
    ops_per_second = 10_600
    warmup_ops = 2_000

    def regime(self, report: Dict[str, Any]) -> List[str]:
        return violations(report, [
            ("cache.hit_rate", "<=", 0.10), ("flash.reads_per_op", ">=", 0.80),
        ])


class YcsbBHot(YcsbB):
    name = "ycsb-b-hot"
    records = 4_000
    cache_bytes = 16 * MIB
    theta = 0.99
    ops_per_second = 30_000
    warmup_ops = 8_000

    def regime(self, report: Dict[str, Any]) -> List[str]:
        return violations(report, [("cache.hit_rate", ">=", 0.95)])


def small_device(nvram_bytes: int, blocks_per_chip: int) -> ReproConfig:
    """4 channels x 2 chips of 16-page blocks, one log per chip: 1 MiB
    of flash per block of every chip."""
    geometry = FlashGeometry(
        channels=4, chips_per_channel=2, blocks_per_chip=blocks_per_chip, pages_per_block=16
    )
    return ReproConfig(
        geometry=geometry,
        kaml=KamlParams(num_logs=geometry.total_chips),
        resources=SsdResources(nvram_bytes=nvram_bytes),
    )


class PutGc(Workload):
    """Atomic 1-4 record Puts overwriting a part-full 16 MiB device."""

    name = "put-gc"
    clients = 8
    ops_per_second = 3_500
    warmup_ops = 6_000
    #: Live user payload as a share of raw capacity.  The issue asked for
    #: 0.60; there GC relocates for ever without admitting a single Put,
    #: and at 0.30 write amplification never levels off (README, put-gc).
    fill = 0.25
    load_batch = 64

    def __init__(self) -> None:
        super().__init__()
        config = small_device(nvram_bytes=1 * MIB, blocks_per_chip=16)
        self.devices = [KamlSsd(self.env, config)]
        mean_size = sum(streams.PUT_GC_SIZES) / len(streams.PUT_GC_SIZES)
        self.keys = int(config.geometry.capacity_bytes * self.fill / mean_size)
        self.ns = 0

    @staticmethod
    def size_of(key: int) -> int:
        return streams.PUT_GC_SIZES[key % len(streams.PUT_GC_SIZES)]

    def make_ops(self, rng: random.Random, n: int) -> list:
        return streams.put_batches(rng, n, self.keys)

    def load(self) -> Any:
        ssd = self.devices[0]
        self.ns = yield from ssd.create_namespace(
            NamespaceAttributes(expected_keys=self.keys)
        )
        for base in range(0, self.keys, self.load_batch):
            yield from ssd.put([
                PutItem(self.ns, key, self._loaded(key), self.size_of(key))
                for key in range(base, min(self.keys, base + self.load_batch))
            ])

    def issue(self, index: int, op: Tuple[int, ...]) -> Any:
        ns, size_of = self.ns, self.size_of
        issued = self.env.now
        yield from self.devices[0].put(
            [PutItem(ns, key, (key, index), size_of(key)) for key in op]
        )
        acked = self.env.now
        for key in op:
            self.shadow.wrote(key, issued, acked, (key, index))
            self.user_bytes += size_of(key)
        self.touched.update(op)

    def read(self, key: int) -> Any:
        return (yield from self.devices[0].get(self.ns, key))

    def kind(self, op: Tuple[int, ...]) -> str:
        return f"put{len(op)}"

    def regime(self, report: Dict[str, Any]) -> List[str]:
        return violations(report, [
            ("gc_erased_blocks_per_device_block", ">=", 4.0),
            ("sim_p50_us", ">=", 200.0),
            ("write_amp_halves_gap", "<=", 0.20),
        ])


class Cluster2pc(Workload):
    """Gets, single Puts and cross-shard atomic Puts on a 4-shard cluster."""

    name = "cluster-2pc"
    clients = 16
    ops_per_second = 5_000
    warmup_ops = 2_000
    keys = 8_192
    value_size = 512
    load_batch = 16
    namespace = "bench"
    tenant = "bench"

    def __init__(self) -> None:
        super().__init__()
        # 64 MiB shards, not put-gc's 16 MiB: with those, GC starts part
        # way through the window and the workload is no longer steady.
        self.cluster = KamlCluster.build(
            self.env,
            small_device(SsdResources().nvram_bytes, blocks_per_chip=64),
            ClusterConfig(num_shards=4),
        )
        self.devices = [self.cluster.shards[shard] for shard in sorted(self.cluster.shards)]
        # A budget no closed loop of 16 clients can exhaust: sheds would
        # mean the scheduler's estimate is broken, and count as failures.
        self.cluster.register_tenant(TenantPolicy(self.tenant, latency_budget_us=100_000.0))

    def registries(self) -> list:
        return super().registries() + [self.cluster.metrics]

    def make_ops(self, rng: random.Random, n: int) -> list:
        return streams.cluster_mix(rng, n, self.keys)

    def load(self) -> Any:
        yield from self.cluster.create_namespace(
            self.namespace, self.tenant,
            attributes=NamespaceAttributes(expected_keys=self.keys),
        )
        for base in range(0, self.keys, self.load_batch):
            yield from self.cluster.put(self.namespace, [
                (key, self._loaded(key), self.value_size)
                for key in range(base, min(self.keys, base + self.load_batch))
            ])

    def issue(self, index: int, op: Tuple[int, Tuple[int, ...]]) -> Any:
        kind, keys = op
        self.touched.update(keys)
        if kind == streams.GET:
            key = keys[0]
            value = yield from self.cluster.get(self.namespace, key)
            if value is None or value[0] != key:
                self.mismatches += 1
            return
        size = self.value_size
        issued = self.env.now
        yield from self.cluster.put(
            self.namespace, [(key, (key, index), size) for key in keys]
        )
        acked = self.env.now
        for key in keys:
            self.shadow.wrote(key, issued, acked, (key, index))
        self.user_bytes += size * len(keys)

    def read(self, key: int) -> Any:
        return (yield from self.cluster.get(self.namespace, key))

    def kind(self, op: Tuple[int, Tuple[int, ...]]) -> str:
        return ("get", "put1", "put3")[op[0]]

    def regime(self, report: Dict[str, Any]) -> List[str]:
        return violations(report, [
            ("cluster.twopc_share", ">=", 0.25),
            ("cluster.shard_imbalance", "<=", 1.3),
            ("cluster.shed_share", "<=", 0.01),
        ])


WORKLOADS = {cls.name: cls for cls in (YcsbBCold, YcsbBHot, PutGc, Cluster2pc)}
