"""The Shore-MT-style storage engine (the paper's baseline).

ACID via ARIES-style WAL + two-phase locking (Section V-A): updates are
applied to buffer-pool pages in place (steal/no-force) with undo images
kept in the transaction; commit forces the log through the transaction's
last LSN — the centralized synchronous flush that caps its throughput.

Locking granularity is a construction parameter: ``RECORD`` (the
configuration the paper calls "Shore-MT with record-level locks") or
``PAGE`` ("page-level locks", the configuration that loses up to 80 %
of its throughput in Figure 9).
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Tuple

from repro.baseline.buffer_pool import BufferPool
from repro.baseline.filesystem import SimpleFilesystem
from repro.baseline.heap_file import HeapFile
from repro.baseline.wal import WriteAheadLog
from repro.blockdev import NvmeBlockDevice
from repro.cache.locks import LockManager, LockMode
from repro.cache.transaction import Transaction, TxnState
from repro.config import ReproConfig
from repro.errors import ReproError
from repro.sim import Environment


class EngineError(ReproError):
    """Engine misuse (unknown table, bad transaction state, ...)."""


class LockGranularity(enum.Enum):
    RECORD = "record"
    PAGE = "page"


class _EngineTxn(Transaction):
    """XCB plus the undo chain and last LSN the engine needs."""

    def __init__(self, txn_id: int):
        super().__init__(txn_id)
        self.undo: List[Tuple[str, int, str, Any]] = []  # (table, key, kind, before)
        self.last_lsn = 0
        #: Page-granularity inserts: this txn's private append page per table.
        self.insert_pages: Dict[str, int] = {}


class ShoreMtEngine:
    """begin / read / update / insert / commit / abort."""

    def __init__(
        self,
        env: Environment,
        config: ReproConfig,
        pool_pages: int = 1024,
        granularity: LockGranularity = LockGranularity.RECORD,
        checkpoint_interval_us: Optional[float] = 500_000.0,
        log_pages: int = 4096,
        group_commit: bool = True,
    ):
        self.env = env
        self.config = config
        self.device = NvmeBlockDevice(env, config)
        self.fs = SimpleFilesystem(env, self.device)
        self.wal = WriteAheadLog(env, self.fs, log_pages=log_pages,
                                 group_commit=group_commit)
        self.pool = BufferPool(env, self.fs, pool_pages)
        self.locks = LockManager(env, config.host, records_per_lock=1)
        self.granularity = granularity
        self.tables: Dict[str, HeapFile] = {}
        self._next_txn_id = 1
        self.committed = 0
        self.aborted = 0
        if checkpoint_interval_us is not None:
            env.process(self.pool.checkpointer(checkpoint_interval_us))

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------

    def create_table(self, name: str, pages: int = 256) -> HeapFile:
        if name in self.tables:
            raise EngineError(f"table exists: {name!r}")
        table = HeapFile(self.fs, self.pool, name, pages)
        self.tables[name] = table
        return table

    def table(self, name: str) -> HeapFile:
        try:
            return self.tables[name]
        except KeyError:
            raise EngineError(f"unknown table: {name!r}") from None

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def begin(self) -> _EngineTxn:
        txn = _EngineTxn(self._next_txn_id)
        self._next_txn_id += 1
        txn.begin()
        return txn

    def read(self, txn: _EngineTxn, table_name: str, key: int) -> Any:
        txn.require_active()
        table = self.table(table_name)
        yield from self._lock(txn, table, key, LockMode.SHARED)
        result = yield from table.read(key)
        return result[0] if result is not None else None

    def read_for_update(self, txn: _EngineTxn, table_name: str, key: int) -> Any:
        """Read taking the exclusive lock up front (no S->X upgrade)."""
        txn.require_active()
        table = self.table(table_name)
        yield from self._lock(txn, table, key, LockMode.EXCLUSIVE)
        result = yield from table.read(key)
        return result[0] if result is not None else None

    def update(self, txn: _EngineTxn, table_name: str, key: int, value: Any, size: int) -> Any:
        txn.require_active()
        table = self.table(table_name)
        yield from self._lock(txn, table, key, LockMode.EXCLUSIVE)
        before = yield from table.update(key, value, size)
        txn.undo.append((table_name, key, "update", before))
        txn.last_lsn = yield from self.wal.append(size)

    def insert(self, txn: _EngineTxn, table_name: str, key: int, value: Any, size: int) -> Any:
        txn.require_active()
        table = self.table(table_name)
        if self.granularity is LockGranularity.RECORD:
            yield from self.locks.acquire(
                txn, ("r", table_name, key), LockMode.EXCLUSIVE
            )
            rid = yield from table.insert(key, value, size)
        else:
            rid = yield from self._insert_page_locked(txn, table, key, value, size)
        txn.undo.append((table_name, key, "insert", None))
        txn.last_lsn = yield from self.wal.append(size)

    def _insert_page_locked(self, txn: _EngineTxn, table: HeapFile,
                            key: int, value: Any, size: int) -> Any:
        """Page-granularity insert: each transaction appends to private
        fresh pages.  The table-append latch is held only while claiming a
        page (latch, not 2PL lock), so insert-vs-update deadlocks between
        fill pages cannot form; the page lock on the private page is
        uncontended by construction."""
        while True:
            page_index = txn.insert_pages.get(table.name)
            if page_index is None:
                yield from self.locks.acquire(
                    txn, ("append", table.name), LockMode.EXCLUSIVE
                )
                page_index = table.claim_fresh_page()
                self.locks.release_one(txn, ("append", table.name))
                yield from self.locks.acquire(
                    txn, ("p", table.name, page_index), LockMode.EXCLUSIVE
                )
                txn.insert_pages[table.name] = page_index
            rid = yield from table.insert_at(page_index, key, value, size)
            if rid is not None:
                return rid
            txn.insert_pages.pop(table.name, None)  # page full: claim another

    def commit(self, txn: _EngineTxn) -> Any:
        """Append the commit record and force the log (the durability
        point — and the baseline's serialization point).

        Read-only transactions wrote nothing, so they commit without
        touching the log (the standard optimization).
        """
        txn.require_active()
        if txn.undo:
            lsn = yield from self.wal.append()
            yield from self.wal.flush_to(lsn)
        else:
            overhead_us = self.config.host.txn_overhead_us
            self.env.try_advance(overhead_us) or (yield self.env.timeout(overhead_us))
        txn.mark_committed()
        self.locks.release_all(txn)
        self.committed += 1

    def abort(self, txn: _EngineTxn) -> Any:
        """Undo in reverse order from before images, then log the abort."""
        txn.require_active()
        for table_name, key, kind, before in reversed(txn.undo):
            table = self.table(table_name)
            if kind == "insert":
                yield from table.delete(key)
            elif kind == "update":
                yield from table.update(key, before[0], before[1])
        yield from self.wal.append()
        txn.mark_aborted()
        self.locks.cancel_wait(txn)
        self.locks.release_all(txn)
        self.aborted += 1

    def free(self, txn: _EngineTxn) -> None:
        txn.free()
        txn.undo.clear()
        txn.insert_pages.clear()

    def run_transaction(self, body, max_retries: int = 64) -> Any:
        """begin/commit wrapper with deadlock-abort retry."""
        from repro.cache.locks import DeadlockError

        attempt = 0
        while True:
            txn = self.begin()
            try:
                result = yield from body(txn)
                yield from self.commit(txn)
                self.free(txn)
                return result
            except DeadlockError:
                attempt += 1
                if txn.state is TxnState.ACTIVE:
                    yield from self.abort(txn)
                self.free(txn)
                if attempt > max_retries:
                    raise
                backoff_us = self.config.host.txn_overhead_us * attempt
                self.env.try_advance(backoff_us) or (yield self.env.timeout(backoff_us))

    # ------------------------------------------------------------------

    def _lock(self, txn: _EngineTxn, table: HeapFile, key: int, mode: LockMode) -> Any:
        if self.granularity is LockGranularity.RECORD:
            name = ("r", table.name, key)
        else:
            page_index = table.page_of(key)
            if page_index is None:
                name = ("r", table.name, key)  # absent key: degrade gracefully
            else:
                name = ("p", table.name, page_index)
        yield from self.locks.acquire(txn, name, mode)
