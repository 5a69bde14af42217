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
"""

from __future__ import annotations

from typing import Generator

from repro.sim.core import Environment, Event, SimulationError


class Process(Event):
    """A running generator inside the simulation."""

    __slots__ = ("_generator", "name")

    def __init__(self, env: Environment, generator: Generator, name: str = ""):
        """Made by :meth:`Environment.process` or :meth:`Environment.start`,
        which decide when the first step runs."""
        if not hasattr(generator, "send"):
            raise SimulationError(f"process target is not a generator: {generator!r}")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def _resume(self, event: Event) -> None:
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
        if target.callbacks is None:
            target.callbacks = [self._resume]
        else:
            target.callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self._triggered else "alive"
        return f"<Process {self.name} {state}>"
