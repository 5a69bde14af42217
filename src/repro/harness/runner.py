"""Builders that assemble fresh simulated stacks for experiments."""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

from repro.baseline import LockGranularity, ShoreMtEngine
from repro.blockdev import NvmeBlockDevice
from repro.cache import KamlStore
from repro.config import ReproConfig
from repro.kaml import KamlSsd
from repro.sim import Environment


def build_kaml_ssd(
    config: Optional[ReproConfig] = None,
    num_logs: Optional[int] = None,
) -> Tuple[Environment, KamlSsd]:
    """A fresh environment + KAML SSD (default: one log per target)."""
    env = Environment()
    config = config or ReproConfig()
    logs = num_logs if num_logs is not None else config.geometry.total_chips
    config = config.with_(kaml=replace(config.kaml, num_logs=logs))
    return env, KamlSsd(env, config)


def build_kaml_store(
    cache_bytes: int,
    records_per_lock: int = 1,
    config: Optional[ReproConfig] = None,
    num_logs: Optional[int] = None,
) -> Tuple[Environment, KamlSsd, KamlStore]:
    env, ssd = build_kaml_ssd(config=config, num_logs=num_logs)
    store = KamlStore(env, ssd, cache_bytes, records_per_lock=records_per_lock)
    return env, ssd, store


def settle(env: Environment, ssd: KamlSsd) -> None:
    """Let the background Put pipeline (phases 2/3, log flushes) finish.

    Two drains: a drain is a forced flush plus a fixed wait, and a
    record whose phase 2 appends during the first wait sits in a page
    only the second flush programs.
    """
    for _ in range(2):
        env.run_until(env.process(ssd.drain()))


def build_block_device(
    config: Optional[ReproConfig] = None,
    preconditioned: bool = True,
) -> Tuple[Environment, NvmeBlockDevice]:
    """The baseline stack: a preconditioned block SSD (Section V-A)."""
    env = Environment()
    device = NvmeBlockDevice(env, config or ReproConfig())
    if preconditioned:
        device.precondition()
    return env, device


def build_shore_engine(
    pool_pages: int = 8192,
    granularity: LockGranularity = LockGranularity.RECORD,
    config: Optional[ReproConfig] = None,
    checkpoint_interval_us: Optional[float] = 500_000.0,
    log_pages: int = 8192,
    group_commit: bool = True,
) -> Tuple[Environment, ShoreMtEngine]:
    env = Environment()
    engine = ShoreMtEngine(
        env,
        config or ReproConfig(),
        pool_pages=pool_pages,
        granularity=granularity,
        checkpoint_interval_us=checkpoint_interval_us,
        log_pages=log_pages,
        group_commit=group_commit,
    )
    return env, engine
