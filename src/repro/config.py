"""Central configuration for the simulated KAML platform.

Every latency and size that the paper's evaluation depends on lives here so
that calibration is auditable in one place.  Times are **microseconds**,
sizes are **bytes**.

Calibration rationale (see DESIGN.md §5):

* Flash latencies follow Section II-A: reads < 100 µs, programs 100–2000 µs,
  erases several milliseconds.  We pick mid-range MLC-like values.
* The channel bus serializes data transfers between chips in a channel and
  the controller (Section IV-A), so its bandwidth is a shared resource.
* Firmware costs are what separate the baseline block path from the KAML
  path in Figures 5/6: LBA-range locking for ``read``, read-modify-write
  for sub-page ``write``, hash probing whose cost grows with mapping-table
  load factor for ``Get``/``Put``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


@dataclass(frozen=True)
class FlashGeometry:
    """Physical organisation of the flash array (Section IV-A)."""

    channels: int = 16
    chips_per_channel: int = 4
    blocks_per_chip: int = 64
    pages_per_block: int = 64
    page_size: int = 8 * KIB
    chunk_size: int = 128
    erase_endurance: int = 3000

    @property
    def chunks_per_page(self) -> int:
        return self.page_size // self.chunk_size

    @property
    def total_chips(self) -> int:
        return self.channels * self.chips_per_channel

    @property
    def pages_per_chip(self) -> int:
        return self.blocks_per_chip * self.pages_per_block

    @property
    def total_pages(self) -> int:
        return self.total_chips * self.pages_per_chip

    @property
    def capacity_bytes(self) -> int:
        return self.total_pages * self.page_size

    def validate(self) -> None:
        if self.page_size % self.chunk_size != 0:
            raise ValueError("page_size must be a multiple of chunk_size")
        if self.chunks_per_page > 64:
            raise ValueError(
                "at most 64 chunks per page: the OOB record bitmap is 8 bytes (Fig 4)"
            )
        for name in ("channels", "chips_per_channel", "blocks_per_chip", "pages_per_block"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @classmethod
    def small(cls) -> "FlashGeometry":
        """A tiny geometry for fast unit tests."""
        return cls(channels=2, chips_per_channel=2, blocks_per_chip=8, pages_per_block=8)


@dataclass(frozen=True)
class FlashTimings:
    """Raw NAND operation latencies (Section II-A)."""

    read_us: float = 70.0
    program_us: float = 700.0
    erase_us: float = 3000.0
    #: Program/erase suspension for a host read (Wu & He, FAST '12; an
    #: ordinary NAND command since).  Suspend: finish the in-flight ISPP step
    #: and ramp the pump down before the die can sense.  Resume: ramp up and
    #: re-load the page register before the pulse carries on.  DESIGN.md
    #: section 5 has the 20/50/100 µs sensitivity row.
    suspend_us: float = 20.0
    resume_us: float = 20.0
    #: Channel data bus bandwidth: 8 KB in ~20 µs (400 MB/s per channel).
    bus_bytes_per_us: float = 400.0
    #: Fixed command handshake on the bus per operation.
    bus_command_us: float = 1.0


@dataclass(frozen=True)
class InterconnectTimings:
    """PCIe x4 Gen3 host link (Section V-A)."""

    #: ~3.2 GB/s streaming bandwidth.
    bytes_per_us: float = 3200.0
    #: Command submission + completion + doorbell round trip.
    command_us: float = 6.0


@dataclass(frozen=True)
class FirmwareCosts:
    """Per-command embedded-CPU costs (500 MHz cores, Section V-A).

    These drive the microbenchmark shapes:

    * ``lba_lock_us`` — the block firmware locks LBA ranges on every read to
      guard against concurrent migration (Section V-B), which ``Get`` skips.
    * ``hash_probe_us`` — cost of inspecting one mapping-table entry; the
      expected probe count grows with load factor, eroding ``Get``'s edge
      (Figure 5a).
    * ``array_map_us`` vs ``hash_insert_us`` — updating a flat LBA array is
      cheaper than inserting into a hash table, which is why block ``write``
      beats ``Put`` for 4 KB *inserts* (Figure 5c) but not updates.
    """

    dispatch_us: float = 2.0
    lba_lock_us: float = 20.0
    array_map_us: float = 0.5
    hash_probe_us: float = 6.0
    hash_insert_us: float = 50.0
    hash_update_us: float = 1.0
    nvram_copy_bytes_per_us: float = 1600.0
    per_record_us: float = 1.5


@dataclass(frozen=True)
class KamlParams:
    """KAML firmware policy knobs (Section IV)."""

    #: Logs available in the SSD.  Defaults to one per flash target
    #: (16 channels x 4 chips = 64), the architecture's natural maximum.
    num_logs: int = 64
    #: Flush a partially filled page buffer after this long (Section IV-B).
    flush_timeout_us: float = 1000.0
    #: Start GC when a log's free blocks fall below this count.
    gc_free_block_threshold: int = 2
    #: Stop a GC pass once this many free blocks are available again.
    gc_restore_target: int = 4
    #: Slots per bucket in the mapping tables (a firmware cache line's
    #: worth of entries scanned linearly — the Figure 5a cost model).
    index_bucket_slots: int = 8


@dataclass(frozen=True)
class BlockFtlParams:
    """Baseline page-level FTL knobs."""

    #: Fraction of physical pages reserved as over-provisioning.
    overprovision: float = 0.125
    gc_free_block_threshold: int = 2
    gc_restore_target: int = 4
    #: Flush a partially filled write buffer after this idle time.
    buffer_flush_timeout_us: float = 1000.0


@dataclass(frozen=True)
class HostCosts:
    """Host-side CPU costs for the caching layer and baseline engine."""

    #: Lock manager operations (acquire/release a record lock).
    lock_us: float = 0.6
    #: Hash probe in the host KV cache / buffer pool.
    cache_probe_us: float = 0.4
    #: Copying record bytes (private copies, serialization).
    copy_bytes_per_us: float = 6400.0
    #: Fixed per-transaction bookkeeping (XCB allocation etc.).
    txn_overhead_us: float = 1.0
    #: Baseline-engine WAL record construction cost per log record.
    wal_record_us: float = 1.0
    #: Cost of one B-tree/index lookup level in the baseline engine.
    index_level_us: float = 0.8
    #: File-system metadata work per file operation (the indirection layer
    #: KAML eliminates, Section III-A).
    fs_op_us: float = 1.5
    #: Durability barrier: fsync-style flush command to the device.
    fsync_us: float = 30.0


@dataclass(frozen=True)
class SsdResources:
    """Controller-side capacities (Section V-A)."""

    dram_bytes: int = 2 * GIB
    nvram_bytes: int = 64 * MIB
    #: Number of firmware execution contexts able to process commands
    #: concurrently (multi-core controller).
    firmware_contexts: int = 8


@dataclass(frozen=True)
class ReproConfig:
    """Everything the simulated platform needs, bundled."""

    geometry: FlashGeometry = field(default_factory=FlashGeometry)
    flash: FlashTimings = field(default_factory=FlashTimings)
    interconnect: InterconnectTimings = field(default_factory=InterconnectTimings)
    firmware: FirmwareCosts = field(default_factory=FirmwareCosts)
    kaml: KamlParams = field(default_factory=KamlParams)
    block_ftl: BlockFtlParams = field(default_factory=BlockFtlParams)
    host: HostCosts = field(default_factory=HostCosts)
    resources: SsdResources = field(default_factory=SsdResources)

    def with_(self, **sections) -> "ReproConfig":
        """Return a copy with whole sections replaced, e.g.
        ``config.with_(kaml=replace(config.kaml, num_logs=16))``."""
        return replace(self, **sections)

    @classmethod
    def small(cls) -> "ReproConfig":
        """Config with a tiny flash array for fast unit tests.

        Over-provisioning is raised because on a handful of blocks per
        target the GC spare block would otherwise consume the entire
        default 12.5 % OP, leaving no working room.
        """
        geometry = FlashGeometry.small()
        return cls(
            geometry=geometry,
            kaml=KamlParams(num_logs=geometry.total_chips),
            block_ftl=BlockFtlParams(overprovision=0.25),
        )


def default_config() -> ReproConfig:
    config = ReproConfig()
    config.geometry.validate()
    return config
