"""Microbenchmarks (Section V-B): Fetch, Update, Insert on both stacks.

The KAML versions issue ``Get``/``Put``; the baseline versions issue
NVMe ``read``/``write``.  Bandwidth runs use several closed-loop host
threads (the paper uses eight); latency runs use one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List

from repro.blockdev import NvmeBlockDevice
from repro.ftl.page_ftl import LOGICAL_PAGE
from repro.kaml import KamlSsd, PutItem
from repro.sim import Environment


@dataclass
class MicroResult:
    """Aggregate outcome of one microbenchmark run."""

    ops: int = 0
    bytes_moved: int = 0
    elapsed_us: float = 0.0
    latencies_us: List[float] = field(default_factory=list)

    @property
    def throughput_mb_s(self) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return self.bytes_moved / self.elapsed_us  # B/us == MB/s

    @property
    def ops_per_second(self) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return self.ops * 1e6 / self.elapsed_us

    @property
    def mean_latency_us(self) -> float:
        if not self.latencies_us:
            return 0.0
        return sum(self.latencies_us) / len(self.latencies_us)


#: Host software overhead (user-space library + kernel crossing) charged
#: per command by the drivers — the ~2 % "software" share of latency the
#: paper measures (Section V-B).
HOST_SOFTWARE_US = 1.5


def run_closed_loop(
    env: Environment,
    make_op: Callable[[int, int], Any],
    threads: int,
    ops_per_thread: int,
    bytes_per_op: int,
) -> MicroResult:
    """Drive ``threads`` closed-loop workers; each runs ``ops_per_thread``
    operations produced by ``make_op(thread_id, i)`` (a generator)."""
    result = MicroResult()
    start = env.now

    def worker(thread_id: int):
        for i in range(ops_per_thread):
            op_start = env.now
            env.try_advance(HOST_SOFTWARE_US) or (yield env.timeout(HOST_SOFTWARE_US))
            yield from make_op(thread_id, i)
            result.latencies_us.append(env.now - op_start)
            result.ops += 1
            result.bytes_moved += bytes_per_op

    procs = [env.process(worker(t)) for t in range(threads)]
    done = env.all_of(procs)
    finish_time = []
    done.add_callback(lambda _e: finish_time.append(env.now))
    env.run_until(done)
    # Elapsed ends when the last worker finishes, not when background
    # flash work (flush timers, GC) drains.
    result.elapsed_us = finish_time[0] - start
    return result


# ---------------------------------------------------------------------------
# KAML microbenchmarks
# ---------------------------------------------------------------------------

def kaml_populate(env: Environment, ssd: KamlSsd, namespace_id: int,
                  keys: int, value_size: int, batch: int = 64) -> None:
    """Fill a namespace before measuring (setup, not timed per-op)."""

    def loader():
        for base in range(0, keys, batch):
            items = [
                PutItem(namespace_id, key, ("init", key), value_size)
                for key in range(base, min(base + batch, keys))
            ]
            yield from ssd.put(items)
        # Setup ends with everything on flash: measurements that follow
        # must exercise the real read path, not the NVRAM staging area.
        for _ in range(16):
            if not ssd.staged_records:
                break
            yield from ssd.drain()

    proc = env.process(loader())
    env.run_until(proc)


def kaml_fetch(env, ssd: KamlSsd, namespace_id: int, key_count: int,
               value_size: int, threads: int = 8, ops_per_thread: int = 50) -> MicroResult:
    def op(thread_id, i):
        key = (thread_id * 7919 + i * 104729) % key_count
        yield from ssd.get(namespace_id, key)

    return run_closed_loop(env, op, threads, ops_per_thread, value_size)


def kaml_update(env, ssd: KamlSsd, namespace_id: int, key_count: int,
                value_size: int, threads: int = 8, ops_per_thread: int = 50,
                batch: int = 1) -> MicroResult:
    """Each thread updates its own key partition (independent streams, as
    in the paper's bandwidth setup) so batching effects are not masked by
    artificial cross-thread entry-lock conflicts."""
    partition = max(batch, key_count // max(1, threads))

    def op(thread_id, i):
        # Walk the partition sequentially so a key is not re-touched while
        # a previous Put still holds its index-entry lock.
        base = thread_id * partition + (i * batch) % max(1, partition - batch + 1)
        items = [
            PutItem(namespace_id, (base + j) % key_count, ("upd", i), value_size)
            for j in range(batch)
        ]
        yield from ssd.put(items)

    result = run_closed_loop(env, op, threads, ops_per_thread, value_size * batch)
    result.ops *= batch  # records, not commands
    return result


def kaml_insert(env, ssd: KamlSsd, namespace_id: int, value_size: int,
                threads: int = 8, ops_per_thread: int = 50, batch: int = 1,
                key_base: int = 1_000_000) -> MicroResult:
    def op(thread_id, i):
        base = key_base + (thread_id * ops_per_thread + i) * batch
        items = [
            PutItem(namespace_id, base + j, ("ins", i), value_size)
            for j in range(batch)
        ]
        yield from ssd.put(items)

    result = run_closed_loop(env, op, threads, ops_per_thread, value_size * batch)
    result.ops *= batch
    return result


# ---------------------------------------------------------------------------
# Baseline block-device microbenchmarks
# ---------------------------------------------------------------------------

def block_fetch(env, device: NvmeBlockDevice, value_size: int,
                threads: int = 8, ops_per_thread: int = 50) -> MicroResult:
    pages = device.logical_pages

    def op(thread_id, i):
        lpn = (thread_id * 7919 + i * 104729) % pages
        yield from device.read(lpn, min(value_size, LOGICAL_PAGE))

    return run_closed_loop(env, op, threads, ops_per_thread, value_size)


def block_update(env, device: NvmeBlockDevice, value_size: int,
                 threads: int = 8, ops_per_thread: int = 50) -> MicroResult:
    """Writes to mapped LBAs (the device is preconditioned)."""
    pages = device.logical_pages

    def op(thread_id, i):
        lpn = (thread_id * 7919 + i * 104729) % pages
        yield from device.write(lpn, ("upd", i), min(value_size, LOGICAL_PAGE))

    return run_closed_loop(env, op, threads, ops_per_thread, value_size)


def block_insert(env, device: NvmeBlockDevice, value_size: int,
                 threads: int = 8, ops_per_thread: int = 50) -> MicroResult:
    """Sequential writes to fresh LBAs.

    On the paper's preconditioned device every LBA is mapped, so sub-page
    "inserts" still pay read-modify-write — we reproduce that setup.
    """
    pages = device.logical_pages

    def op(thread_id, i):
        lpn = (thread_id * ops_per_thread + i) % pages
        yield from device.write(lpn, ("ins", i), min(value_size, LOGICAL_PAGE))

    return run_closed_loop(env, op, threads, ops_per_thread, value_size)
