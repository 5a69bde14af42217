"""Queued resources.

:class:`Resource` models anything with finite concurrency: a flash channel's
data bus, a chip's command engine, the WAL's log mutex.  Requests are served
FIFO, or in ``(priority, arrival)`` order when callers pass a priority: any
float sorts, so a queue can be keyed by time (a flash die keys each request
by its arrival instant and gives host reads a bounded head start).

Usage inside a process::

    request = bus.try_acquire() or (yield bus.request())
    try:
        env.try_advance(transfer_time) or (yield env.timeout(transfer_time))
    finally:
        bus.release(request)

``try_acquire`` grants an idle resource without a simulation event when the
kernel can prove the grant event would have been the very next dispatch
(:meth:`Environment._would_run_next`); otherwise it returns ``None`` and
the caller queues with ``request()`` as before.  Either way the process
resumes at the same instant, in the same order relative to everything
else.  An inline grant is the resource's one pre-granted token, not a fresh
:class:`Request`: ``release`` only ever asks a request whether it was
granted and by whom.  A request, once made, is waited for and released:
there is no withdrawal.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional, Tuple

from repro.sim.core import URGENT, Environment, Event, SimulationError


class Request(Event):
    """A pending claim on a :class:`Resource`.

    The event fires when the resource grants the claim.  Pass the request
    back to :meth:`Resource.release` when done.
    """

    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: float):
        # Event.__init__ flattened: one request per contended claim.
        self.env = resource.env
        self.callbacks = None
        self._value = None
        self._exception = None
        self._triggered = False
        self._processed = False
        self._defused = False
        self.resource = resource
        self.priority = priority


class Resource:
    """A counted resource with a FIFO (priority-aware) wait queue."""

    __slots__ = ("env", "capacity", "name", "_in_use", "_ticket", "_waiting", "_token")

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._ticket = 0
        self._waiting: List[Tuple[float, int, Request]] = []
        #: What every inline grant hands back (see :meth:`try_acquire`).
        self._token = token = Request(self, 0)
        token._triggered = token._processed = True
        token._value = token

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    def request(self, priority: float = 0) -> Request:
        """Claim one unit.  The returned event fires when granted; waiters
        are granted lowest ``priority`` first, FIFO among equals."""
        request = Request(self, priority)
        if self._in_use < self.capacity and not self._waiting:
            self._in_use += 1
            request.succeed(request, priority=URGENT)
        else:
            self._ticket = ticket = self._ticket + 1
            heappush(self._waiting, (priority, ticket, request))
        return request

    def try_acquire(self) -> Optional[Request]:
        """Claim one unit without an event, or return ``None``.

        Succeeds when :meth:`request` would grant on the spot *and* that
        grant event would be dispatched next: the caller, which must
        carry on exactly as if it had yielded the grant, then skips an
        event that decides nothing.  ``None`` (contended, or something
        else is due to run first) means fall back to
        ``yield resource.request()``.  The kernel test is
        :meth:`Environment._would_run_next` ``(URGENT)``, inlined.
        """
        if self._in_use < self.capacity and not self._waiting:
            env = self.env
            queue = env._queue
            if not env._fanning_out and (
                not queue or queue[0][0] > env.now
                or (queue[0][0] == env.now and queue[0][1] > URGENT)
            ):
                self._in_use += 1
                return self._token
        return None

    def release(self, request: Request) -> None:
        """Return a previously granted unit."""
        if not request._triggered:
            raise SimulationError("releasing a request that was never granted")
        if request.resource is not self:
            raise SimulationError("request released on the wrong resource")
        self._in_use -= 1
        if self._in_use < 0:
            raise SimulationError(f"resource {self.name!r} over-released")
        if self._waiting:
            self._grant_next()

    def _grant_next(self) -> None:
        waiting = self._waiting
        while waiting and self._in_use < self.capacity:
            _priority, _ticket, request = heappop(waiting)
            self._in_use += 1
            request.succeed(request, priority=URGENT)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Resource {self.name!r} {self._in_use}/{self.capacity} "
            f"queued={self.queue_length}>"
        )
