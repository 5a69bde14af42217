"""Hot-shard detection and the rebalancing trigger.

The signal comes from the opt-in :class:`TimeSeriesCollector`, of which
this module is the one user: per shard, a delta probe turns the device's
command counters into an ops-per-interval rate and a gauge probe samples
the scheduler queue depth.  The detector
reads the retained ring — no extra simulation events beyond the
collector's own tick — and flags shards whose recent rate exceeds a
multiple of the cluster mean.

Rebalancing moves a *homed* namespace (the unit of placement) from the
hottest shard to the coldest; hashed namespaces spread every shard by
construction and are never migration candidates.  The
:class:`Autobalancer` is an optional periodic process a harness can
start; by default nothing runs and nothing samples.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs import TimeSeriesCollector


def install_cluster_probes(collector: TimeSeriesCollector, cluster: Any) -> None:
    """Register per-shard load probes on ``collector``.

    Duck-typed against :class:`repro.cluster.KamlCluster` (the collector
    must stay importable without the cluster package).  Each shard gets
    ``shard<i>.ops`` (delta of the device's Get+Put+Delete counters per
    interval) and ``shard<i>.queue`` (scheduler queue depth).
    """
    for shard_id in sorted(cluster.shards):
        device = cluster.shards[shard_id]
        metrics = device.metrics

        def _ops_total(m: Any = metrics) -> float:
            return (
                m.total("kaml.ssd.gets")
                + m.total("kaml.ssd.puts")
                + m.total("kaml.ssd.deletes")
            )

        collector.add_delta_probe(f"shard{shard_id}.ops", _ops_total)
        scheduler = cluster.schedulers[shard_id]
        collector.add_probe(
            f"shard{shard_id}.queue",
            (lambda s: lambda: float(s.depth()))(scheduler),
        )


class HotShardDetector:
    """Reads shard rates out of the sample ring and names the hot ones."""

    def __init__(
        self,
        collector: TimeSeriesCollector,
        cluster: Any,
        window: int = 8,
        hot_ratio: float = 1.5,
    ):
        self.collector = collector
        self.cluster = cluster
        #: How many most-recent samples the rate average spans.
        self.window = window
        #: A shard is hot when its rate exceeds ``hot_ratio`` x the mean.
        self.hot_ratio = hot_ratio

    def shard_rates(self) -> Dict[int, float]:
        """Mean ops-per-interval per shard over the trailing window."""
        samples = list(self.collector.samples)[-self.window:]
        rates: Dict[int, float] = {}
        for shard_id in sorted(self.cluster.shards):
            name = f"shard{shard_id}.ops"
            values = [row[name] for row in samples if name in row]
            rates[shard_id] = sum(values) / len(values) if values else 0.0
        return rates

    def hot_shards(self) -> List[int]:
        rates = self.shard_rates()
        if not rates:
            return []
        mean = sum(rates.values()) / len(rates)
        if mean <= 0.0:
            return []
        return [
            shard_id
            for shard_id in sorted(rates)
            if rates[shard_id] > self.hot_ratio * mean
        ]

    def pick_migration(self) -> Optional[Tuple[str, int, int]]:
        """``(namespace, source_shard, target_shard)`` or None.

        Picks the first (by name) homed namespace on the hottest hot
        shard and targets the coldest shard — deterministic given the
        same sample ring, so seeded runs always migrate the same way.
        """
        hot = self.hot_shards()
        if not hot:
            return None
        rates = self.shard_rates()
        source = max(hot, key=lambda shard_id: (rates[shard_id], shard_id))
        candidates = self.cluster.placement.homed_on(source)
        if not candidates:
            return None
        target = min(sorted(rates), key=lambda shard_id: (rates[shard_id], shard_id))
        if target == source:
            return None
        return candidates[0].name, source, target


class Autobalancer:
    """Optional periodic migration driver (opt-in, like the collector)."""

    def __init__(
        self,
        cluster: Any,
        detector: HotShardDetector,
        check_interval_us: float = 10_000.0,
        max_migrations: int = 4,
    ):
        self.cluster = cluster
        self.detector = detector
        self.check_interval_us = check_interval_us
        self.max_migrations = max_migrations
        self.migrations: List[Tuple[str, int, int]] = []

    def start(self) -> None:
        self.cluster.env.process(self._run(self.cluster.epoch))

    def _run(self, epoch: int) -> Any:
        while (
            self.cluster.epoch == epoch
            and len(self.migrations) < self.max_migrations
        ):
            env, interval_us = self.cluster.env, self.check_interval_us
            env.try_advance(interval_us) or (yield env.timeout(interval_us))
            if self.cluster.epoch != epoch:
                return
            plan = self.detector.pick_migration()
            if plan is None:
                continue
            name, _source, target = plan
            yield from self.cluster.rebalance(name, target)
            self.migrations.append(plan)
