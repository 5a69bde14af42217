"""Hot-shard detection and the autobalancer loop (fake-backed), and the
shard load probe they read (on a real cluster)."""

from collections import deque

from repro.cluster import ClusterConfig, KamlCluster, TenantPolicy
from repro.cluster.balance import Autobalancer, HotShardDetector, install_cluster_probes
from repro.cluster.placement import LogicalNamespace, PlacementMap
from repro.fault.harness import default_device_config
from repro.obs import TimeSeriesCollector
from repro.sim import Environment


class FakeCollector:
    def __init__(self, samples):
        self.samples = deque(samples)


class FakeCluster:
    """Just enough surface for the detector and balancer."""

    def __init__(self, env, num_shards, homed=()):
        self.env = env
        self.epoch = 0
        self.shards = {shard_id: object() for shard_id in range(num_shards)}
        self.placement = PlacementMap(num_shards)
        for name, shard in homed:
            self.placement.add(
                LogicalNamespace(
                    name=name, tenant="t", mode="homed", placement=[shard]
                )
            )
        self.rebalanced = []

    def rebalance(self, name, target):
        yield self.env.timeout(10.0)
        ns = self.placement.get(name)
        ns.placement = [target]
        self.rebalanced.append((name, target))
        return 1


def sample(ops_by_shard):
    return {f"shard{s}.ops": rate for s, rate in ops_by_shard.items()}


def make_detector(samples, num_shards=2, homed=(), hot_ratio=1.5):
    env = Environment()
    cluster = FakeCluster(env, num_shards, homed=homed)
    detector = HotShardDetector(
        FakeCollector(samples), cluster, hot_ratio=hot_ratio
    )
    return env, cluster, detector


def test_no_samples_means_no_hot_shards():
    _env, _cluster, detector = make_detector([])
    assert detector.shard_rates() == {0: 0.0, 1: 0.0}
    assert detector.hot_shards() == []
    assert detector.pick_migration() is None


def test_balanced_load_stays_quiet():
    samples = [sample({0: 100.0, 1: 100.0})] * 4
    _env, _cluster, detector = make_detector(samples)
    assert detector.hot_shards() == []


def test_skewed_load_names_the_hot_shard():
    samples = [sample({0: 300.0, 1: 20.0})] * 4
    _env, _cluster, detector = make_detector(
        samples, homed=[("inbox", 0)]
    )
    assert detector.hot_shards() == [0]
    assert detector.pick_migration() == ("inbox", 0, 1)


def test_hot_shard_without_homed_namespace_cannot_migrate():
    samples = [sample({0: 300.0, 1: 20.0})] * 4
    _env, _cluster, detector = make_detector(samples)  # nothing homed
    assert detector.hot_shards() == [0]
    assert detector.pick_migration() is None


def test_rate_window_only_reads_the_trailing_samples():
    # Old skew has aged out of the window: only the recent balance counts.
    samples = [sample({0: 500.0, 1: 1.0})] * 10 + [sample({0: 50.0, 1: 50.0})] * 8
    _env, _cluster, detector = make_detector(samples, homed=[("inbox", 0)])
    assert detector.hot_shards() == []


def test_autobalancer_migrates_then_respects_its_cap():
    samples = [sample({0: 300.0, 1: 20.0})] * 4
    env, cluster, detector = make_detector(samples, homed=[("inbox", 0)])
    balancer = Autobalancer(
        cluster, detector, check_interval_us=100.0, max_migrations=2
    )
    balancer.start()

    def sleeper():
        yield env.timeout(1_000.0)

    proc = env.process(sleeper())
    env.run_until(proc)
    # One migration moved the namespace off shard 0; afterwards shard 0
    # has nothing homed, so the (still skewed) signal finds no candidate.
    assert balancer.migrations == [("inbox", 0, 1)]
    assert cluster.rebalanced == [("inbox", 1)]
    assert cluster.placement.get("inbox").placement == [1]


def test_autobalancer_stops_when_the_epoch_moves():
    samples = [sample({0: 300.0, 1: 20.0})] * 4
    env, cluster, detector = make_detector(samples, homed=[("inbox", 0)])
    balancer = Autobalancer(cluster, detector, check_interval_us=100.0)
    balancer.start()
    cluster.epoch = 1  # power cut before the first check fires

    def sleeper():
        yield env.timeout(1_000.0)

    proc = env.process(sleeper())
    env.run_until(proc)
    assert balancer.migrations == []
    assert cluster.rebalanced == []


def test_ops_probe_counts_each_command_once():
    """A Delete is a one-tombstone Put: one Get, one Put and one Delete
    move a shard's ops probe by exactly 3."""
    env = Environment()
    cluster = KamlCluster.build(env, default_device_config(), ClusterConfig(num_shards=1))
    cluster.register_tenant(TenantPolicy("t", latency_budget_us=100_000.0))
    collector = TimeSeriesCollector(env)
    install_cluster_probes(collector, cluster)

    def flow():
        yield from cluster.create_namespace("data", tenant="t", mode="hashed")
        collector.sample_now()
        yield from cluster.get("data", 1)
        yield from cluster.put("data", [(1, "v", 64)])
        yield from cluster.delete("data", 1)
        return collector.sample_now()

    proc = env.process(flow())
    env.run_until(proc)
    assert proc.value["shard0.ops"] == 3.0
