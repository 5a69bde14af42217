"""Battery/capacitor-backed staging memory.

KAML commits a ``Put`` the moment its key-value payload lands in this
buffer (Section IV-D phase 1): the data is durable before any flash write.
Flash programs drain the buffer in the background.  When the buffer is full,
new reservations block until space drains — that back-pressure is what ties
sustained ``Put`` bandwidth to flash program bandwidth.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple  # noqa: F401 (Deque/Tuple in annotations)

from repro.errors import InvariantError, ReproError
from repro.sim import Environment, Event
from repro.sim.core import NORMAL


class NvramExhausted(ReproError):
    """A non-blocking reservation did not fit."""


class NvramBuffer:
    """A counted byte pool with blocking reservations and durable contents."""

    def __init__(self, env: Environment, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("NVRAM capacity must be positive")
        self.env = env
        self.capacity_bytes = capacity_bytes
        self._used = 0
        self._waiters: Deque[Tuple[int, Any, Event]] = deque()
        self._handles: Dict[int, Tuple[int, Any]] = {}
        self._next_handle = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    @property
    def pending_reservations(self) -> int:
        """Reservations queued behind a full buffer (telemetry probe:
        non-zero means Put phase 1 is back-pressured on NVRAM space)."""
        return len(self._waiters)

    def reserve(self, nbytes: int, payload: Any = None) -> Event:
        """Reserve space; the event fires with a handle once space exists.

        ``payload`` is retained for crash-recovery simulation until the
        handle is released (the flash write completed and the index was
        updated).
        """
        self._check_size(nbytes)
        event = self.env.event()
        if not self._waiters and nbytes <= self.free_bytes:
            event.succeed(self._grant(nbytes, payload))
        else:
            self._waiters.append((nbytes, payload, event))
        return event

    def try_reserve(self, nbytes: int, payload: Any = None) -> Optional[int]:
        """Reserve space without an event; ``None`` means the caller must
        ``yield nvram.reserve(...)`` instead.

        Grants when :meth:`reserve` would succeed on the spot and that
        event would be the very next dispatch, so skipping it changes no
        timestamp and no ordering (``Environment._would_run_next``).
        """
        self._check_size(nbytes)
        if (
            not self._waiters
            and nbytes <= self.free_bytes
            and self.env._would_run_next(NORMAL)
        ):
            return self._grant(nbytes, payload)
        return None

    def _check_size(self, nbytes: int) -> None:
        if nbytes <= 0:
            raise ValueError("reservation must be positive")
        if nbytes > self.capacity_bytes:
            raise NvramExhausted(
                f"reservation of {nbytes} B exceeds NVRAM capacity "
                f"({self.capacity_bytes} B)"
            )

    def release(self, handle: int) -> None:
        """Free a reservation (its contents reached flash).

        Releasing a handle twice raises ``InvariantError``: a double
        release means two paths both think they own the batch's NVRAM
        lifetime, and the second free would corrupt the space accounting
        of whatever reservation reused the bytes.  A handle that was
        never granted at all still raises ``KeyError``.
        """
        try:
            nbytes, _payload = self._handles.pop(handle)
        except KeyError:
            if 0 <= handle < self._next_handle:
                raise InvariantError(
                    "SAN-NVRAM",
                    f"double release of NVRAM handle {handle}",
                ) from None
            raise KeyError(f"unknown NVRAM handle: {handle}") from None
        self._used -= nbytes
        self._drain_waiters()

    def payload(self, handle: int) -> Any:
        """The durable contents of a live reservation (recovery path)."""
        return self._handles[handle][1]

    def live_payloads(self):
        """All staged contents, oldest handle first (crash recovery scan)."""
        for handle in sorted(self._handles):
            yield handle, self._handles[handle][1]

    def power_loss(self) -> None:
        """Drop pending (not-yet-granted) reservations at a power cut.

        Granted reservations are durable NVRAM contents and survive;
        queued waiters are volatile command state — the processes behind
        them are ghosts after the crash, and granting them space during
        recovery would leak it forever.
        """
        self._waiters.clear()

    def assert_drained(self) -> None:
        """Raise :class:`~repro.errors.InvariantError` if anything is live.

        A reservation that survives the workload means some ``Put`` path
        dropped its release — NVRAM capacity leaks one batch at a time.
        Explicit ``raise`` (not ``assert``): must survive ``python -O``.
        """
        if self._handles:
            raise InvariantError(
                "SAN-NVRAM",
                f"{len(self._handles)} live reservation(s) "
                f"({self._used} B) at drain: handles {sorted(self._handles)}",
            )

    def _grant(self, nbytes: int, payload: Any) -> int:
        handle = self._next_handle
        self._next_handle += 1
        self._used += nbytes
        self._handles[handle] = (nbytes, payload)
        return handle

    def _drain_waiters(self) -> None:
        while self._waiters:
            nbytes, payload, event = self._waiters[0]
            if nbytes > self.free_bytes:
                return
            self._waiters.popleft()
            event.succeed(self._grant(nbytes, payload))

    def __len__(self) -> int:
        return len(self._handles)
