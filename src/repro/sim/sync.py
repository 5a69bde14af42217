"""Synchronization helpers built on the kernel primitives."""

from __future__ import annotations

from typing import Any, List, Optional

from repro import sanitize
from repro.sim.core import Environment, Event, SimulationError
from repro.sim.resources import Request, Resource


class SimLock:
    """A mutex.  ``if not lock.try_acquire(): yield lock.acquire()`` then
    ``lock.release()``.

    Unlike :class:`Resource`, release is not tied to a request object, which
    keeps lock-manager code (acquire in one method, release in another)
    readable.  The holder is tracked for debugging.  ``try_acquire`` is
    the zero-event form of ``yield lock.acquire()`` (see
    :meth:`Resource.try_acquire`); both feed the lock-order sanitizer.
    """

    def __init__(self, env: Environment, name: str = "", static_site: str = ""):
        self.env = env
        self.name = name
        #: Which source-level lock site this instance belongs to, e.g.
        #: ``"KamlLog._program_lock"`` — lets the runtime lock-order
        #: sanitizer cross-check against kamllint's static graph.
        self.static_site = static_site or name or "simlock"
        self._resource = Resource(env, capacity=1, name=name)
        self._held_request: Optional[Request] = None
        self.holder: Any = None
        self._holder_process: Any = None

    @property
    def locked(self) -> bool:
        return self._resource.in_use > 0

    @property
    def waiters(self) -> int:
        """Processes queued behind the current holder."""
        return self._resource.queue_length

    def acquire(self, owner: Any = None) -> Event:
        acquirer = self._note_wanted()
        request = self._resource.request()
        request.add_callback(
            lambda _event: self._note_granted(request, owner, acquirer)
        )
        return request

    def try_acquire(self, owner: Any = None) -> bool:
        """Take a free lock without an event; ``False`` means the caller
        must ``yield lock.acquire(owner)`` instead."""
        acquirer = self._note_wanted()
        request = self._resource.try_acquire()
        if request is None:
            return False
        self._note_granted(request, owner, acquirer)
        return True

    def _note_wanted(self) -> Any:
        """Lock-order hook; returns the process to attribute the hold to."""
        if not sanitize.enabled():
            return None
        # The acquiring process is the one running right now; record
        # edges from every lock it already holds to this one.
        acquirer = self.env.active_process
        sanitize.recorder_for(self.env).on_acquire(
            acquirer, self.name or "simlock", self.static_site
        )
        return acquirer

    def _note_granted(self, request: Request, owner: Any, acquirer: Any) -> None:
        self._held_request = request
        self.holder = owner
        self._holder_process = acquirer
        if sanitize.enabled():
            sanitize.recorder_for(self.env).on_granted(
                acquirer, self.name or "simlock", self.static_site
            )

    def release(self) -> None:
        if self._held_request is None:
            raise SimulationError(f"lock {self.name!r} released while free")
        request, self._held_request = self._held_request, None
        self.holder = None
        holder_process, self._holder_process = self._holder_process, None
        if sanitize.enabled():
            sanitize.recorder_for(self.env).on_release(
                holder_process, self.name or "simlock"
            )
        self._resource.release(request)


class Gate:
    """A broadcast condition: many waiters, re-armable.

    ``yield gate.wait()`` blocks until the next :meth:`fire`.  Each ``fire``
    wakes everyone currently waiting and re-arms the gate.
    """

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._waiters: List[Event] = []

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def wait(self) -> Event:
        event = self.env.event()
        self._waiters.append(event)
        return event

    def forget(self, event: Event) -> None:
        """Withdraw a waiter that no longer cares (e.g. it timed out).

        Without this, the next :meth:`fire` still succeeds the abandoned
        event, scheduling a ghost wakeup nobody listens to.
        """
        try:
            self._waiters.remove(event)
        except ValueError:
            pass

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters; returns how many were woken."""
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed(value)
        return len(waiters)
