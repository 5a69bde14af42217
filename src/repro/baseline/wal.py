"""ARIES-style write-ahead log with a centralized, synchronous flush.

This module is deliberately the baseline's bottleneck, because the paper
identifies it as such (Section V-D-1): "centralized, synchronous logging
is the major bottleneck in most conventional storage engines ... only a
single transaction can acquire the global lock and flush the log at the
same time".

* ``append`` serializes on a global log mutex (LSN assignment + buffer
  copy).
* ``flush_to`` forces the log to the device through a single flusher at
  a time; waiters piggyback on the running flush when their LSN is
  covered (group commit), otherwise they queue for the next cycle.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.baseline.filesystem import SimpleFilesystem
from repro.sim import Environment, Gate, SimLock


class WriteAheadLog:
    """Sequential log file + in-memory tail buffer."""

    LOG_FILE = "__wal__"

    def __init__(self, env: Environment, fs: SimpleFilesystem, log_pages: int = 4096,
                 group_commit: bool = True):
        self.env = env
        self.fs = fs
        self.costs = fs.host_costs
        #: With group commit off, every committer performs its own full
        #: flush+fsync cycle even when a concurrent flush already covered
        #: its LSN (ablation baseline).
        self.group_commit = group_commit
        if not fs.exists(self.LOG_FILE):
            fs.create(self.LOG_FILE, log_pages)
        self._next_lsn = 1
        self._buffered_bytes = 0      # bytes appended but not yet flushed
        self._flushed_lsn = 0
        self._buffered_lsn = 0
        self._mutex = SimLock(env, name="wal.mutex")
        self._flush_lock = SimLock(env, name="wal.flush")
        self._flush_done = Gate(env, name="wal.flushed")
        self._log_head_page = 0
        self.flush_cycles = 0
        self.appends = 0

    @property
    def flushed_lsn(self) -> int:
        return self._flushed_lsn

    # ------------------------------------------------------------------

    def append(self, record_fields: Dict[str, Any]) -> Any:
        """Append a record under the global log mutex; returns its LSN.

        ``record_fields`` describes the entry (``kind`` is "update" |
        "commit" | "abort"); its ``size`` sets the copy cost and the
        bytes the next flush writes.
        """
        if not self._mutex.try_acquire(owner="append"):
            yield self._mutex.acquire(owner="append")
        try:
            size = record_fields.get("size", 0)
            record_us = self.costs.wal_record_us + size / self.costs.copy_bytes_per_us
            self.env.try_advance(record_us) or (yield self.env.timeout(record_us))
            lsn = self._next_lsn
            self._next_lsn += 1
            self._buffered_lsn = lsn
            # Update records log before+after images; control records are
            # small and fixed.
            self._buffered_bytes += 64 + 2 * size
            self.appends += 1
            return lsn
        finally:
            self._mutex.release()

    def flush_to(self, lsn: int) -> Any:
        """Force the log through ``lsn`` (commit durability point).

        Single flusher; everyone else either returns immediately (already
        durable) or waits for the flusher covering their LSN.
        """
        flushed_once = False
        while self._flushed_lsn < lsn or (not self.group_commit and not flushed_once):
            if self._flush_lock.locked:
                yield self._flush_done.wait()
                if not self.group_commit:
                    continue  # piggybacking disabled: take our own turn
                continue
            if not self._flush_lock.try_acquire(owner="flush"):
                yield self._flush_lock.acquire(owner="flush")
            try:
                if self.group_commit and self._flushed_lsn >= lsn:
                    continue
                flushed_once = True
                target_lsn = self._buffered_lsn
                nbytes = self._buffered_bytes
                self._buffered_bytes = 0
                pages = max(1, -(-nbytes // self.fs.page_size))
                for _ in range(pages):
                    yield from self.fs.write_page(
                        self.LOG_FILE, self._log_head_page, ("wal", target_lsn)
                    )
                    self._log_head_page = (
                        self._log_head_page + 1
                    ) % self.fs.size_pages(self.LOG_FILE)
                yield from self.fs.fsync(self.LOG_FILE)
                self._flushed_lsn = target_lsn
                self.flush_cycles += 1
            finally:
                self._flush_lock.release()
                self._flush_done.fire()
