"""Generator-based simulation processes.

A process wraps a generator that yields :class:`~repro.sim.core.Event`
objects.  When a yielded event fires, the kernel resumes the generator with
the event's value (or throws the event's exception into it).  A process is
itself an event: it triggers with the generator's return value, so processes
can wait on each other simply by yielding them.

A process's completion is dispatched inline when it would be the very next
dispatch (:meth:`Environment._finish`), and a process nobody waits on when
it returns is processed on the spot: it never enters the heap.  A process
spawned by :meth:`Environment.start` has no bootstrap: its first step runs
inside the spawner's.

A process spawned into a *registry* (a dict of live processes, in spawn
order) leaves it when it ends; a power cut ends a device's registered
processes with :meth:`Process.kill`.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.sim.core import Environment, Event, SimulationError
from repro.sim.resources import Request


class Process(Event):
    """A running generator inside the simulation."""

    __slots__ = ("_generator", "name", "_target", "_registry")

    def __init__(self, env: Environment, generator: Generator, registry: Optional[dict] = None):
        """Made by :meth:`Environment.process` or :meth:`Environment.start`,
        which decide when the first step runs."""
        if not hasattr(generator, "send"):
            raise SimulationError(f"process target is not a generator: {generator!r}")
        super().__init__(env)
        self._generator = generator
        self.name = getattr(generator, "__name__", "process")
        #: The event the process is parked on.
        self._target: Optional[Event] = None
        self._registry = registry
        if registry is not None:
            registry[self] = None

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def kill(self, exc: BaseException) -> None:
        """End the process where it is parked: it never runs again (the
        event it waits on resumes nothing), a :class:`Request` it waits on
        is given back, its ``finally`` blocks run now and its waiters get
        ``exc``.  An ended process is left alone, and so is a running one
        (the caller, or its eager parent): it ends by raising out."""
        if self._triggered or self._generator.gi_running:
            return
        if type(self._target) is Request:
            self._target.resource._give_back(self._target)
        self._generator.close()
        if self._registry is not None:
            del self._registry[self]
        if self.callbacks or self is self.env._until:
            self.fail(exc)
        else:
            self._triggered = self._processed = True
            self._exception = exc

    def _resume(self, event: Event) -> None:
        if self._triggered:
            return  # killed: the event it was parked on fired anyway
        env = self.env
        generator = self._generator
        previous, env.active_process = env.active_process, self
        # A loop, not recursion: a target that was already processed is fed
        # straight back in, however many of them the process yields in a row.
        while True:
            try:
                if event._exception is not None:
                    target = generator.throw(event._exception)
                else:
                    target = generator.send(event._value if event._triggered else None)
            except StopIteration as stop:
                env.active_process = previous
                if self._registry is not None:
                    del self._registry[self]
                if self.callbacks or self is env._until:
                    env._finish(self, stop.value)
                else:
                    # Nobody waits: processed on the spot, not through the
                    # heap.  A later ``yield self`` resumes at once through
                    # the loop below instead of at a completion dispatch.
                    self._triggered = self._processed = True
                    self._value = stop.value
                return
            except Exception as exc:
                env.active_process = previous
                if self._registry is not None:
                    del self._registry[self]
                if not self.callbacks:
                    # Nobody is waiting on this process; surface the bug loudly
                    # instead of recording a failure no one will observe.
                    raise
                self.fail(exc)
                return
            if not isinstance(target, Event):
                env.active_process = previous
                raise SimulationError(
                    f"process {self.name!r} yielded a non-event: {target!r}"
                )
            if target.env is not env:
                env.active_process = previous
                raise SimulationError("yielded an event from a different environment")
            if not target._processed:
                break
            event = target
        env.active_process = previous
        self._target = target
        if target.callbacks is None:
            target.callbacks = [self._resume]
        else:
            target.callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self._triggered else "alive"
        return f"<Process {self.name} {state}>"
