"""The crash-scenario engine: workload, power cut, recovery, verdict.

One scenario builds a small *target*, runs a seeded mixed workload
(single-key puts, multi-record group puts, deletes, concurrent reads)
while a :class:`~repro.fault.plan.PowerLossInjector` waits for its armed
crash point, then recovers the target and diffs every touched key
against the host-side :class:`~repro.fault.shadow.ShadowModel`.

The one engine serves both layers through the target surface (``epoch``,
``put(items)``, ``get(key)``, ``delete(key)``, ``drain()``, ``recover()``,
``power_loss()``, the ``fault`` slot, post-recovery ``leftovers()`` and
per-layer ``facts()``).  :class:`DeviceTarget` is a bare
:class:`~repro.kaml.KamlSsd` plus a namespace, cut at the device crash
points; :class:`ClusterTarget` is a :class:`~repro.cluster.KamlCluster`
plus a hashed logical namespace whose group puts straddle shards (so
each runs the host-side 2PC), cut as a whole rack at the coordinator
crash points — after which no shard may hold an in-doubt prepare and the
intent journal must be empty.  A crash point's name says its layer.

The crash matrix runs two passes per (point, seed) cell.  A *counting*
pass (unarmed injector — observation does not perturb the workload)
learns how many times the workload announces each crash point; the
*armed* pass then cuts at a seed-derived occurrence, so different seeds
crash the same point at different depths of the workload.  Occurrence
selection hashes the point name with ``zlib.crc32`` — Python's ``hash``
is salted per process and would destroy reproducibility.

Everything here observes the target exclusively through its public
command surface: kamllint rule KL-FLT001 keeps fault-injection code
from peeking at mapping-table internals, which would let a recovery bug
hide from its own test.
"""

from __future__ import annotations

import zlib
from functools import partial
from random import Random
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster import ClusterConfig, KamlCluster, TenantPolicy, key_shard_slot
from repro.config import FlashGeometry, KamlParams, ReproConfig
from repro.errors import PowerLossError
from repro.fault.flashfault import FlashFaultInjector
from repro.fault.plan import (
    CLUSTER_CRASH_POINTS,
    CRASH_POINTS,
    FaultPlan,
    PowerLossInjector,
)
from repro.fault.shadow import ShadowModel
from repro.kaml import KamlSsd, NamespaceAttributes, PutItem
from repro.sim import Environment

#: Exclusive key groups for multi-record atomic batches.
GROUPS = 4
GROUP_SIZE = 3
GROUP_KEY_BASE = 1000
WRITERS = 4
#: Post-recovery smoke keys live far from the workload's key space.
SMOKE_KEY_BASE = 9_000_000
#: Cluster size when a coordinator crash point is given without one.
DEFAULT_SHARDS = 2


def default_config(blocks_per_chip: int = 6) -> ReproConfig:
    """A deliberately small device: few blocks and short flush timers
    force page turnover and GC within a few hundred operations, so every
    crash point is exercised quickly."""
    geometry = FlashGeometry(
        channels=2,
        chips_per_channel=1,
        blocks_per_chip=blocks_per_chip,
        pages_per_block=4,
        page_size=2048,
        chunk_size=128,
    )
    return ReproConfig().with_(
        geometry=geometry,
        kaml=KamlParams(num_logs=2, flush_timeout_us=200.0),
    )


def default_device_config() -> ReproConfig:
    """One cluster shard.  Small but not starved: a few more blocks than
    the single-device crash geometry, because a shard must absorb the
    whole workload's churn *plus* the recovery-time replay re-appends
    without running a log completely out of reclaimable space."""
    return default_config(blocks_per_chip=12)


def group_keys(num_shards: int = 1) -> List[List[int]]:
    """GROUPS exclusive key groups; on a cluster each spans >= 2 shards.

    Keys are drawn consecutively from ``GROUP_KEY_BASE``; the last slot
    of each group skips candidates until the group's hashed placement
    covers at least two distinct shards (always possible for
    ``num_shards >= 2``), so every group put is a genuine cross-shard
    transaction.
    """
    groups: List[List[int]] = []
    next_key = GROUP_KEY_BASE
    for _group in range(GROUPS):
        keys: List[int] = []
        slots: set = set()
        while len(keys) < GROUP_SIZE:
            key = next_key
            next_key += 1
            slot = key_shard_slot(key, num_shards)
            if (
                num_shards > 1
                and len(keys) == GROUP_SIZE - 1
                and len(slots) < 2
                and slot in slots
            ):
                continue  # need a second shard in the last slot
            keys.append(key)
            slots.add(slot)
        groups.append(keys)
    return groups


class DeviceTarget:
    """A bare :class:`KamlSsd` plus one namespace."""

    #: Single-key working set; partitioned across writers so each key has
    #: exactly one serial issuer (the shadow model's ordering assumption).
    single_keys = 24
    value_sizes: Tuple[int, ...] = (160, 420, 900, 1600)
    #: Rolls in [0.15, group_roll) issue a group put.
    group_roll = 0.30
    ops_per_writer = 90
    smoke_ops = 4
    #: Records per smoke put.
    smoke_width = 1
    #: The cut raises out of the announcing process and nobody else's
    #: command fails, so the workload lets it propagate.
    swallowed: Tuple[type, ...] = ()

    def __init__(self, env: Environment, config: Optional[ReproConfig] = None):
        self.env = env
        self.stack = KamlSsd(env, config if config is not None else default_config())
        self.group_keys = group_keys()
        self.namespace: Any = None
        #: What ``recover()`` reported (the cluster's 2PC resolution counts).
        self.recovery: Dict[str, int] = {}

    @property
    def epoch(self) -> int:
        return self.stack.epoch

    @property
    def fault(self) -> Any:
        return self.stack.fault

    @fault.setter
    def fault(self, injector: Any) -> None:
        self.stack.fault = injector

    @property
    def metrics(self) -> Any:
        return self.stack.metrics

    @property
    def recorder(self) -> Any:
        return self.stack.tracer.recorder

    def power_loss(self) -> None:
        self.stack.power_loss()

    def drain(self) -> Any:
        yield from self.stack.drain()

    def arrays(self) -> List[Any]:
        return [self.stack.array]

    def setup(self) -> Any:
        self.namespace = yield from self.stack.create_namespace(
            NamespaceAttributes(expected_keys=256)
        )

    def put(self, items: List[Tuple[int, Any, int]]) -> Any:
        return (yield from self.stack.put(*self._put_args(items)))

    def _put_args(self, items: List[Tuple[int, Any, int]]) -> Tuple[Any, ...]:
        return ([PutItem(self.namespace, key, value, size) for key, value, size in items],)

    def get(self, key: int) -> Any:
        return (yield from self.stack.get(self.namespace, key))

    def delete(self, key: int) -> Any:
        yield from self.stack.delete(self.namespace, key)

    def recover(self) -> Any:
        self.recovery = (yield from self.stack.recover()) or {}

    def leftovers(self) -> List[str]:
        return []

    def facts(self) -> Dict[str, Any]:
        total = self.metrics.total
        return {
            "recovered_batches": int(total("kaml.ssd.recovered_batches")),
            "scanned_pages": int(total("kaml.recover.scanned_pages")),
            "scanned_records": int(total("kaml.recover.scanned_records")),
        }


class ClusterTarget(DeviceTarget):
    """A :class:`KamlCluster` plus one hashed logical namespace."""

    single_keys = 32
    value_sizes = (160, 420, 900)
    group_roll = 0.45
    ops_per_writer = 40
    smoke_ops = 3
    smoke_width = 2  # smoke puts cross shards too
    #: ``cluster.power_loss()`` fails every queued and in-flight request,
    #: so each issuer sees the cut through its own command.
    swallowed = (PowerLossError,)

    namespace = "crash"
    TENANT = "crash-tenant"

    def __init__(
        self, env: Environment, config: Optional[ReproConfig], shards: int
    ):
        self.env = env
        self.shards = shards
        # Generous queues so the crash workload is never admission-shed
        # (shedding is covered by its own tests; here it would only thin
        # the crash-point announcement stream).
        self.stack = KamlCluster.build(
            env,
            config if config is not None else default_device_config(),
            ClusterConfig(num_shards=shards, queue_limit=256, workers_per_shard=4),
        )
        self.stack.register_tenant(TenantPolicy(self.TENANT, latency_budget_us=50_000.0))
        self.group_keys = group_keys(shards)
        self.recovery = {}

    def arrays(self) -> List[Any]:
        return [self.stack.shards[shard].array for shard in sorted(self.stack.shards)]

    def setup(self) -> Any:
        yield from self.stack.create_namespace(
            self.namespace, tenant=self.TENANT, mode="hashed"
        )

    def _put_args(self, items: List[Tuple[int, Any, int]]) -> Tuple[Any, ...]:
        return (self.namespace, items)

    def leftovers(self) -> List[str]:
        """All-or-nothing bookkeeping: nothing may stay in doubt."""
        problems = []
        for shard_id in sorted(self.stack.shards):
            prepares = self.stack.shards[shard_id].prepared_batches()
            if prepares:
                problems.append(
                    f"shard {shard_id} still holds in-doubt prepares "
                    f"after recovery: {prepares}"
                )
        open_txns = self.stack.journal.open_txns()
        if open_txns:
            problems.append(f"intent journal still open after recovery: {open_txns}")
        return problems

    def facts(self) -> Dict[str, Any]:
        return {
            "shards": self.shards,
            "txns": int(self.metrics.total("cluster.2pc.txns")),
            "recovered_committed": self.recovery.get("committed", 0),
            "recovered_aborted": self.recovery.get("aborted", 0),
        }


def _writer(env, target, shadow, seed, widx, ops):
    """One serial issuer: seeded mix of puts, group puts, and deletes."""
    rng = Random(seed * 7919 + widx)
    epoch0 = target.epoch
    my_singles = [k for k in range(target.single_keys) if k % WRITERS == widx]
    my_group = target.group_keys[widx % GROUPS]
    for _ in range(ops):
        if target.epoch != epoch0:
            return  # power was cut; the host stops issuing
        roll = rng.random()
        try:
            if roll < 0.15:
                key = rng.choice(my_singles)
                op_id = shadow.begin("delete", [key])
                yield from target.delete(key)
            else:
                if roll < target.group_roll:
                    op_id = shadow.begin("put", my_group)
                    size = rng.choice(target.value_sizes)
                    items = [
                        (key, shadow.value_for(op_id, key), size) for key in my_group
                    ]
                else:
                    key = rng.choice(my_singles)
                    op_id = shadow.begin("put", [key])
                    items = [
                        (key, shadow.value_for(op_id, key), rng.choice(target.value_sizes))
                    ]
                if (yield from target.put(items)) is None:
                    return  # crashed mid-command; never acknowledged
        except target.swallowed:
            return  # the cut surfaced through this very command
        if target.epoch != epoch0:
            return  # cut landed during the command: treat as unacked
        shadow.ack(op_id)
        think_us = rng.uniform(50.0, 400.0)
        env.try_advance(think_us) or (yield env.timeout(think_us))


def _reader(env, target, seed, ops):
    """Concurrent read traffic; results are checked only at the audit."""
    rng = Random(seed * 104729 + 17)
    epoch0 = target.epoch
    for _ in range(ops):
        if target.epoch != epoch0:
            return
        try:
            yield from target.get(rng.randrange(target.single_keys))
        except target.swallowed:
            return
        think_us = rng.uniform(80.0, 300.0)
        env.try_advance(think_us) or (yield env.timeout(think_us))


def _read_back(target, shadow):
    """Post-recovery state of every key the workload ever touched."""
    observed = {}
    for key in shadow.touched_keys:
        observed[key] = yield from target.get(key)
    return observed


def _smoke(target, count):
    """The recovered target must still serve fresh traffic."""
    width = target.smoke_width
    problems = []
    for i in range(count):
        yield from target.put(
            [(SMOKE_KEY_BASE + i * width + j, ("smoke", i, j), 256) for j in range(width)]
        )
    yield from target.drain()
    for i in range(count):
        for j in range(width):
            key = SMOKE_KEY_BASE + i * width + j
            value = yield from target.get(key)
            if value != ("smoke", i, j):
                problems.append(
                    f"smoke key {key}: wrote ('smoke', {i}, {j}), read {value!r}"
                )
    return problems


def _settle(env, process, what: str, failures: List[str]) -> Tuple[bool, Any]:
    """Run one post-crash step to completion; a raise becomes a failure."""
    try:
        env.run_until(process)
        return True, process.value  # .value re-raises a failed step
    except PowerLossError as exc:
        failures.append(f"second power loss during {what}: {exc}")
    except Exception as exc:
        failures.append(f"{what} failed: {type(exc).__name__}: {exc}")
    return False, None


def run_on(
    target: Any,
    plan: FaultPlan,
    seed: int,
    ops_per_writer: Optional[int] = None,
    smoke_ops: Optional[int] = None,
) -> Dict[str, Any]:
    """Run one workload/crash/recover/verify cycle on ``target``.

    With an unarmed plan this is the counting pass: the workload runs to
    completion and ``hits`` reports how often each crash point was
    announced.  With an armed plan the target must crash, recover, match
    the shadow model on every touched key, and serve smoke traffic.
    """
    env = target.env
    ops = ops_per_writer if ops_per_writer is not None else target.ops_per_writer
    injector = PowerLossInjector(target, plan).attach()
    shadow = ShadowModel()
    for keys in target.group_keys:
        shadow.register_group(keys)
    setup = env.process(target.setup())
    env.run_until(setup)
    setup.value  # re-raise a failed setup  # noqa: B018

    procs = [
        env.process(_writer(env, target, shadow, seed, widx, ops))
        for widx in range(WRITERS)
    ]
    procs.append(env.process(_reader(env, target, seed, ops * 2)))
    done = env.all_of(procs)
    crashed = False
    failures: List[str] = []
    try:
        env.run_until(done)
        if done.triggered and not done.ok:
            if isinstance(done.exception, PowerLossError):
                crashed = True
            else:
                raise done.exception
    except PowerLossError:
        # The cut surfaced through a background process nobody awaited
        # (flush, GC, phase-2 completion) and unwound the kernel loop.
        crashed = True
    if injector.fired is not None:
        crashed = True

    armed = plan.point is not None or plan.at_time is not None
    if armed and not crashed:
        failures.append(
            f"armed plan {plan.point or f'at_time={plan.at_time}'} never fired "
            f"(hits: {dict(injector.hits)})"
        )
    if not armed and crashed:
        failures.append("counting-pass injector fired; plans must stay unarmed")

    if crashed and not failures:
        recovered, _ = _settle(env, env.process(target.recover()), "recovery", failures)
        if recovered:
            failures.extend(target.leftovers())
            audited, observed = _settle(
                env, env.process(_read_back(target, shadow)),
                "post-recovery read-back", failures,
            )
            if audited:
                failures.extend(shadow.verify(observed))
                count = smoke_ops if smoke_ops is not None else target.smoke_ops
                _, problems = _settle(
                    env, env.process(_smoke(target, count)),
                    "post-recovery smoke traffic", failures,
                )
                failures.extend(problems or [])

    return {
        "ok": not failures,
        "failures": failures,
        "seed": seed,
        "point": plan.point,
        "hit": plan.hit,
        "at_time": plan.at_time,
        "crashed": crashed,
        "fired": injector.fired,
        "hits": dict(injector.hits),
        "ops": len(shadow.ops),
        "acked_ops": shadow.acked_ops,
        "in_flight_ops": shadow.in_flight_ops,
        **target.facts(),
        "sim_time_us": env.now,
        "recorder": target.recorder,
        "metrics": target.metrics,
    }


def run_scenario(
    plan: FaultPlan,
    seed: int,
    ops_per_writer: Optional[int] = None,
    config: Optional[ReproConfig] = None,
    program_fail_rate: float = 0.0,
    erase_fail_rate: float = 0.0,
    smoke_ops: Optional[int] = None,
    *,
    shards: Optional[int] = None,
) -> Dict[str, Any]:
    """Build a fresh target and :func:`run_on` it.

    A coordinator crash point (or an explicit ``shards``) selects a
    cluster of that many shards (``DEFAULT_SHARDS`` if unsaid); anything
    else runs on a single device.  ``config`` is the per-device
    configuration either way; the workload size defaults to the target's.
    """
    env = Environment()
    if shards is None and plan.point in CLUSTER_CRASH_POINTS:
        shards = DEFAULT_SHARDS
    target = (
        DeviceTarget(env, config) if shards is None
        else ClusterTarget(env, config, shards)
    )
    if program_fail_rate > 0.0 or erase_fail_rate > 0.0:
        flash_faults = FlashFaultInjector(
            seed * 31 + 7, program_fail_rate, erase_fail_rate, metrics=target.metrics
        )
        for array in target.arrays():
            flash_faults.install(array)
    return run_on(target, plan, seed, ops_per_writer, smoke_ops)


def pick_hit(seed: int, point: str, available: int) -> int:
    """Seed-derived occurrence (1-based) of ``point`` to crash at."""
    rng = Random(seed * 1000003 + zlib.crc32(point.encode("utf-8")))
    return 1 + rng.randrange(available)


def run_matrix(
    seeds: List[int],
    points: Optional[List[str]] = None,
    ops_per_writer: Optional[int] = None,
    program_fail_rate: float = 0.0,
    erase_fail_rate: float = 0.0,
    *,
    shards: Optional[int] = None,
) -> Dict[str, Any]:
    """Sweep crash points x seeds; each cell is one armed scenario.

    Device points run on a device, coordinator points on a cluster of
    ``shards``; ``points=None`` means every device point, or
    every coordinator point when ``shards`` is given.  A point the
    counting pass never saw is a failing cell: the matrix must exercise
    every crash point, not silently skip it.
    """
    if points is None:
        points = CRASH_POINTS if shards is None else CLUSTER_CRASH_POINTS
    points = list(points)

    scenario = partial(
        run_scenario,
        ops_per_writer=ops_per_writer,
        program_fail_rate=program_fail_rate,
        erase_fail_rate=erase_fail_rate,
    )
    cells: List[Dict[str, Any]] = []
    for layer_shards, layer_points in (
        (None, [p for p in points if p in CRASH_POINTS]),
        (shards or DEFAULT_SHARDS, [p for p in points if p in CLUSTER_CRASH_POINTS]),
    ):
        if not layer_points:
            continue
        layer = {} if layer_shards is None else {"shards": layer_shards}
        for seed in seeds:
            profile = scenario(FaultPlan(), seed, shards=layer_shards)
            if not profile["ok"]:
                cells.append(profile)
                continue
            for point in layer_points:
                available = profile["hits"].get(point, 0)
                if available:
                    plan = FaultPlan(point=point, hit=pick_hit(seed, point, available))
                    cells.append(scenario(plan, seed, shards=layer_shards))
                    continue
                cells.append(
                    {
                        "ok": False,
                        "failures": [
                            f"crash point {point} never reached in the "
                            f"counting pass (seed {seed}); grow the workload"
                        ],
                        "seed": seed,
                        "point": point,
                        "hit": None,
                        "crashed": False,
                        "fired": None,
                        "recorder": profile["recorder"],
                        **layer,
                    }
                )
    return {
        "ok": all(cell["ok"] for cell in cells),
        "seeds": list(seeds),
        "points": points,
        "cells": cells,
    }
