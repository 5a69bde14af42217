"""Host-side two-phase commit over per-device NVRAM prepares.

The cluster's cross-shard atomic Put composes the paper's single-device
two-phase Put (NVRAM pin, then background flash append) into a classic
presumed-abort 2PC, with the device NVRAM acting as each participant's
prepare log:

1. ``log_begin`` — the coordinator journals the transaction id and its
   participant shard set in the host intent journal *before* any device
   sees the transaction (so recovery always knows who to ask).
2. **prepare** — every participant pins its sub-batch durably via
   :meth:`~repro.kaml.ssd.KamlSsd.prepare_batch`, the first half of a
   device Put.  A prepared batch is invisible to reads, survives power
   loss, and is *not* replayed by device recovery — it stays in doubt
   until the coordinator decides.
3. ``log_commit`` — one host-journal write is the commit point.
4. **commit** — participants upgrade their prepares to acknowledged
   Puts (:meth:`commit_prepared`, the second half of a device Put, so
   it probes and costs as a Put does), in ascending shard order.
5. ``log_end`` — the journal entry is retired.

Coordinator crash points (:data:`repro.fault.CLUSTER_CRASH_POINTS`):

* ``cluster.2pc.after_prepare`` — every prepare is durable but the
  decision was never journaled.  Recovery presumes abort and releases
  the prepare on every shard: the put happened nowhere.
* ``cluster.2pc.mid_commit`` — the decision is journaled and a strict
  subset of participants has committed.  Recovery finishes the commit
  on the rest: the put happened everywhere.

:func:`recover_transactions` drives that recovery: it surveys each
device's in-doubt prepares (:meth:`prepared_batches`) after device-local
recovery and replays the journal over them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.device import Device
from repro.cluster.errors import TwoPhaseCommitError
from repro.errors import InvariantError, PowerLossError
from repro.kaml.put import PutItem
from repro.obs import MetricsRegistry, SpanEvent, TraceContext
from repro.sim import Environment


class JournalEntry:
    """One open transaction's durable intent record; ``log_end`` retires
    (deletes) it."""

    __slots__ = ("txn_id", "shards", "state")

    def __init__(self, txn_id: int, shards: List[int]):
        self.txn_id = txn_id
        #: Participant shard ids, ascending — the commit/recovery order.
        self.shards = sorted(shards)
        #: ``"begin"`` → ``"commit"``.  ``"begin"`` at recovery time
        #: means undecided: presume abort.
        self.state = "begin"


class IntentJournal:
    """Host-durable transaction intent log (the coordinator's WAL).

    Modelled as host NVMM: each record write costs ``write_us`` of
    simulated time and becomes durable when the write *completes* — a
    power cut mid-write leaves the previous state, which is exactly the
    torn-write semantics presumed-abort relies on.  The journal object
    itself survives :meth:`KamlCluster.power_loss` (only device DRAM and
    host queue state are volatile).  It holds only open transactions: a
    retired one leaves no entry.
    """

    def __init__(self, env: Environment, write_us: float = 2.0):
        self.env = env
        self.write_us = write_us
        self._entries: Dict[int, JournalEntry] = {}
        self._next_txn_id = 1

    def next_txn_id(self) -> int:
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        return txn_id

    def entry(self, txn_id: int) -> Optional[JournalEntry]:
        return self._entries.get(txn_id)

    def open_txns(self) -> List[int]:
        """Transaction ids not yet retired, ascending."""
        return sorted(self._entries)

    def log_begin(self, txn_id: int, shards: List[int]) -> Any:
        self.env.try_advance(self.write_us) or (yield self.env.timeout(self.write_us))
        self._entries[txn_id] = JournalEntry(txn_id, shards)

    def log_commit(self, txn_id: int) -> Any:
        """The commit point: after this write the transaction happened."""
        self.env.try_advance(self.write_us) or (yield self.env.timeout(self.write_us))
        self._entries[txn_id].state = "commit"

    def log_end(self, txn_id: int) -> Any:
        self.env.try_advance(self.write_us) or (yield self.env.timeout(self.write_us))
        del self._entries[txn_id]


class TwoPhaseCoordinator:
    """Runs one cross-shard transaction through the protocol above."""

    def __init__(
        self,
        env: Environment,
        journal: IntentJournal,
        metrics: MetricsRegistry,
        crash_point: Callable[[str], None],
    ):
        self.env = env
        self.journal = journal
        #: Announces a named coordinator crash point to the attached
        #: cluster fault injector (no-op when none is armed).
        self._crash_point = crash_point
        self._txn_counter = metrics.counter("cluster.2pc.txns")
        self._abort_counter = metrics.counter("cluster.2pc.aborts")
        self._txn_us_histogram = metrics.histogram("cluster.2pc.us")

    def run(
        self,
        participants: List[Tuple[int, Device, List[PutItem]]],
        ctx: Optional[TraceContext] = None,
    ) -> Any:
        """Atomically put every participant's sub-batch; ack after commit.

        ``participants`` is ``[(shard_id, device, items), ...]``; the
        caller guarantees at least two entries (a single-shard put does
        not need a coordinator) and distinct shard ids.  Returns the
        background phase-2/3 processes of the committed participants so
        the caller can drain them.
        """
        if len(participants) < 2:
            raise TwoPhaseCommitError("2PC needs at least two participants")
        participants = sorted(participants, key=lambda entry: entry[0])
        shard_ids = [shard_id for shard_id, _device, _items in participants]
        if len(set(shard_ids)) != len(shard_ids):
            raise TwoPhaseCommitError(f"duplicate participant shards: {shard_ids}")
        start_us = self.env.now
        self._txn_counter.inc()
        txn_id = self.journal.next_txn_id()
        # Epoch snapshot per participant, checked by each helper before its
        # first device call: a call that started after a power cut would take
        # the post-cut epoch for its own and poke a powered-off device.  A
        # spawned sibling prepare can start after a cut that landed between
        # ``env.process()`` and its first step; a call in this frame, after
        # a cut timed while the frame waited.
        epochs = {shard_id: device.epoch for shard_id, device, _items in participants}
        yield from self.journal.log_begin(txn_id, shard_ids)

        # Phase 1: prepare everywhere, concurrently: the last participant in
        # this frame, the others in child processes.  Every sibling settles
        # before anything is decided, so no prepare can pin its batch after
        # _abort looked for its handle.  Each helper records its durable
        # NVRAM handle so an abort can find it.
        handles: Dict[int, int] = {}
        span = ctx.begin(
            "cluster.2pc.prepare", txn=txn_id, shards=len(shard_ids)
        ) if ctx is not None else None
        siblings = [
            self.env.process(
                self._prepare_one(participant, txn_id, handles, epochs, ctx, span)
            )
            for participant in participants[:-1]
        ]
        failures = [(yield from self._prepare_one(
            participants[-1], txn_id, handles, epochs, ctx, span
        ))]
        for sibling in siblings:
            failures.append((yield sibling))
        if ctx is not None:
            ctx.finish(span)
        failures = list(filter(None, failures))
        for exc in failures:
            if isinstance(exc, PowerLossError):
                # The devices are off; there is nothing to abort right now.
                # Recovery presumes abort from the still-"begin" entry.
                raise exc
        if failures:
            yield from self._abort(participants, handles, txn_id)
            raise TwoPhaseCommitError(
                f"txn {txn_id} prepare failed: {failures[0]}"
            ) from failures[0]

        self._crash_point("cluster.2pc.after_prepare")

        # The commit point: one journal write decides the transaction.
        yield from self.journal.log_commit(txn_id)
        if ctx is not None:
            ctx.event("cluster.2pc.decision", txn=txn_id, decision="commit")
            span = ctx.begin("cluster.2pc.commit", txn=txn_id)

        # Phase 2: upgrade every prepare, ascending shard order.
        background = []
        committed = 0
        try:
            for shard_id, device, _items in participants:
                process = yield from self._commit_one(
                    device, handles[shard_id], epochs[shard_id], ctx, span
                )
                if process is not None:
                    background.append(process)
                committed += 1
                if committed == 1:
                    self._crash_point("cluster.2pc.mid_commit")
        except PowerLossError:
            # Journal state is "commit": recovery finishes the remaining
            # shards from their surviving prepares.
            if ctx is not None:
                ctx.finish(span)
            raise
        if ctx is not None:
            ctx.finish(span)

        yield from self.journal.log_end(txn_id)
        self._txn_us_histogram.observe(self.env.now - start_us)
        return background

    def _prepare_one(
        self,
        participant: Tuple[int, Device, List[PutItem]],
        txn_id: int,
        handles: Dict[int, int],
        epochs: Dict[int, int],
        ctx: Optional[TraceContext] = None,
        parent: Optional[SpanEvent] = None,
    ) -> Any:
        """Prepare one participant; returns the exception that stopped it,
        or None.  A sibling process raising before the coordinator waits on
        it would escape the kernel loop, so failures are returned.  The
        device's spans join ``ctx`` under ``parent``: siblings run
        concurrently, so they cannot nest by the context's open spans."""
        shard_id, device, items = participant
        try:
            if device.epoch != epochs[shard_id]:
                raise PowerLossError(
                    f"shard {shard_id} lost power before prepare of txn {txn_id}"
                )
            handles[shard_id] = yield from device.prepare_batch(items, txn_id, ctx, parent)
        except Exception as exc:
            return exc
        return None

    def _commit_one(
        self, device: Device, handle: int, epoch: int,
        ctx: Optional[TraceContext] = None, parent: Optional[SpanEvent] = None,
    ) -> Any:
        if device.epoch != epoch:
            raise PowerLossError(
                "device lost power before phase 2 reached its prepare"
            )
        return (yield from device.commit_prepared(handle, ctx, parent))

    def _abort(
        self,
        participants: List[Tuple[int, Device, List[PutItem]]],
        handles: Dict[int, int],
        txn_id: int,
    ) -> Any:
        """Release every prepare that made it; the journal stays at
        ``begin`` until the end record, i.e. recovery would also abort."""
        self._abort_counter.inc()
        for shard_id, device, _items in participants:
            handle = handles.get(shard_id)
            if handle is not None:
                yield from device.abort_prepared(handle)
        yield from self.journal.log_end(txn_id)


def recover_transactions(journal: IntentJournal, shards: Dict[int, Device]) -> Any:
    """Replay the intent journal over post-recovery in-doubt prepares.

    Run *after* each device's own :meth:`recover` (which rebuilds its
    mapping and replays acknowledged batches while preserving prepares).
    Returns ``(stats, background)``: counts of finished/aborted
    transactions plus the background install processes of re-driven
    commits.
    """
    prepared: Dict[int, Dict[int, int]] = {
        shard_id: shards[shard_id].prepared_batches()
        for shard_id in sorted(shards)
    }
    stats = {"committed": 0, "aborted": 0}
    background: List[Any] = []
    for txn_id in journal.open_txns():
        entry = journal.entry(txn_id)
        if entry is None:
            raise InvariantError(
                f"journal returned open txn {txn_id} without an entry"
            )
        if entry.state == "commit":
            # Decided: finish the commit on every shard still holding
            # the prepare.  Shards that committed before the cut already
            # replayed the batch through the normal acknowledged-Put
            # path during device recovery, so their map has no entry.
            for shard_id in entry.shards:
                handle = prepared[shard_id].pop(txn_id, None)
                if handle is None:
                    continue
                process = yield from shards[shard_id].commit_prepared(handle)
                if process is not None:
                    background.append(process)
            stats["committed"] += 1
        else:
            # Undecided: presume abort and release the pins.
            for shard_id in entry.shards:
                handle = prepared[shard_id].pop(txn_id, None)
                if handle is None:
                    continue
                yield from shards[shard_id].abort_prepared(handle)
            stats["aborted"] += 1
        yield from journal.log_end(txn_id)
    # Belt and braces: a prepare with no open journal entry cannot
    # happen (log_begin precedes prepare), but if one ever shows up the
    # safe decision is abort, not a leaked NVRAM pin.
    for shard_id in sorted(prepared):
        for _txn_id, handle in sorted(prepared[shard_id].items()):
            yield from shards[shard_id].abort_prepared(handle)
            stats["aborted"] += 1
    return stats, background
