"""Transaction control blocks and the Figure 2 state machine."""

from __future__ import annotations

import enum
from typing import Any, Dict, Hashable, Optional, Set, Tuple

from repro.errors import ReproError


class TxnState(enum.Enum):
    IDLE = "idle"
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class TransactionError(ReproError):
    """An API call that Figure 2's state machine does not allow."""


#: Sentinel marking a key deleted inside a transaction's private workspace.
DELETED = object()


class Transaction:
    """A transaction control block (XCB, Section III-D).

    Holds the lock set and the private copies of every record the
    transaction wrote; commit publishes the copies, abort discards them.
    State transitions follow Figure 2:

    ``IDLE -> ACTIVE`` (begin), ``ACTIVE -> COMMITTED`` (commit),
    ``ACTIVE -> ABORTED`` (abort), ``COMMITTED/ABORTED -> IDLE`` (free).
    """

    def __init__(self, txn_id: int):
        self.txn_id = txn_id
        self.state = TxnState.IDLE
        self.held_locks: Set[Hashable] = set()
        #: (namespace_id, key) -> (value, size) private copies, or DELETED.
        self.writes: Dict[Tuple[int, int], Any] = {}
        self.reads: Set[Tuple[int, int]] = set()
        self.restarts = 0

    # -- state machine (Figure 2) -----------------------------------------

    def begin(self) -> None:
        if self.state is not TxnState.IDLE:
            raise TransactionError(f"begin from {self.state.value}")
        self.state = TxnState.ACTIVE

    def mark_committed(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(f"commit from {self.state.value}")
        self.state = TxnState.COMMITTED

    def mark_aborted(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(f"abort from {self.state.value}")
        self.state = TxnState.ABORTED

    def free(self) -> None:
        if self.state not in (TxnState.COMMITTED, TxnState.ABORTED):
            raise TransactionError(f"free from {self.state.value}")
        self.state = TxnState.IDLE
        self.writes.clear()
        self.reads.clear()

    # -- workspace ----------------------------------------------------------

    def require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(f"operation outside ACTIVE: {self.state.value}")

    def stage_write(self, namespace_id: int, key: int, value: Any, size: int) -> None:
        self.writes[(namespace_id, key)] = (value, size)

    def stage_delete(self, namespace_id: int, key: int) -> None:
        self.writes[(namespace_id, key)] = DELETED

    def staged(self, namespace_id: int, key: int) -> Optional[Any]:
        """The private copy for a key, or None if this txn never wrote it."""
        return self.writes.get((namespace_id, key))
