"""Queued resources.

:class:`Resource` models anything with finite concurrency whose hold
length is not known up front: a chip's command engine (host reads jump
the queue and suspend a pulse), the mutex under :class:`SimLock`.
Requests are served FIFO, or in ``(priority, arrival)`` order when callers
pass a priority: any float sorts, so a queue can be keyed by time (a flash
die keys each request by its arrival instant and gives host reads a
bounded head start).

Usage inside a process::

    request = engine.try_acquire() or (yield engine.request())
    try:
        ...  # hold for as long as the work takes
    finally:
        engine.release(request)

``try_acquire`` grants an idle resource without a simulation event when the
kernel can prove the grant event would have been the very next dispatch
(:meth:`Environment._would_run_next`); otherwise it returns ``None`` and
the caller queues with ``request()`` as before.  Either way the process
resumes at the same instant, in the same order relative to everything
else.  An inline grant is the resource's one pre-granted token, not a fresh
:class:`Request`: ``release`` only ever asks a request whether it was
granted and by whom.  A request is waited for and released; only
:meth:`Process.kill <repro.sim.process.Process.kill>` gives one back
unused (:meth:`Resource._give_back`).

:class:`Timeline` serves holds whose length *is* known when they are
requested — a firmware context's CPU cost, a PCIe pipe's or a flash
channel bus's transfer — first come, first served, without a wait queue::

    start = bus.book(transfer_us)
    end = start + transfer_us
    env.try_advance_to(end) or (yield env.timeout_at(end))

Such a hold costs one event when it waits and none when its end is
provably the next dispatch, where a :class:`Resource` costs a grant, a
timeout and a release that grants the next waiter.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
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

    def _give_back(self, request: Request) -> None:
        """A killed claimant's ``request``: released if it was granted,
        withdrawn from the queue if not.  Nobody else listens to it."""
        request.callbacks = None
        if request._triggered:
            self.release(request)
        else:
            self._waiting = [entry for entry in self._waiting if entry[2] is not request]
            heapify(self._waiting)

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


class Timeline:
    """``capacity`` first-come-first-served servers for holds whose length
    is known when they are requested.

    A min-heap of the instants each server falls free stands in for a
    :class:`Resource`'s grant queue: :meth:`book` hands the hold the
    earliest-free server and returns when it starts, which is where a
    request made now would have been granted (FIFO, a free unit to the
    oldest waiter).  The caller then waits for the absolute end instant —
    one timeout, or none when :meth:`Environment.try_advance_to` proves
    it next — instead of a grant, a timeout and a release.
    """

    __slots__ = ("env", "capacity", "name", "_free")

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"timeline capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        #: When each server falls free; a heap, so ``_free[0]`` is the earliest.
        self._free: List[float] = [env.now] * capacity

    def book(self, length: float) -> float:
        """Claim the earliest-free server for ``length`` from the later of
        now and the instant it falls free; return that start.  The hold
        ends at ``start + length``, the instant to wait for."""
        free = self._free
        start = free[0]
        if start < self.env.now:
            start = self.env.now
        heapreplace(free, start + length)
        return start

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Timeline {self.name!r} free={sorted(self._free)}>"
