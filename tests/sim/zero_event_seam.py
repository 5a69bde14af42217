"""Test-only seam for the zero-event oracles (acquisitions and delays).

The fast path has no switch; the oracles get their "before" run by
swapping, on the classes and for the duration of one run, the three
places the kernel's "would run next" test is made:
``Environment._would_run_next`` (what ``NvramBuffer.try_reserve`` asks)
and the two methods that evaluate it inline, ``Environment.try_advance``
and ``Resource.try_acquire``.
"""

from contextlib import contextmanager

from repro.sim import Environment, Resource
from repro.sim.core import NORMAL, URGENT


@contextmanager
def predicate(replacement):
    """Run with ``replacement(original)`` as the kernel predicate; the two
    inline forms ask it too, after their own checks (``try_advance``: a
    non-negative delay within the ``run(until=)`` horizon; ``try_acquire``:
    a free unit and nobody queued)."""
    asks = replacement(Environment._would_run_next)

    def try_advance(self, delay):
        when = self.now + delay
        if 0 <= delay and when <= self._horizon and asks(self, NORMAL, delay):
            self.now = when
            return True
        return False

    def try_acquire(self):
        if self._in_use < self.capacity and not self._waiting and asks(self.env, URGENT):
            self._in_use += 1
            return self._token
        return None

    with swapped(_would_run_next=asks, try_advance=try_advance, try_acquire=try_acquire):
        yield


@contextmanager
def swapped(**methods):
    """Replace the named methods of ``Environment`` / ``Resource``."""
    owners = {
        "_would_run_next": Environment,
        "try_advance": Environment,
        "try_acquire": Resource,
    }
    originals = {name: getattr(owners[name], name) for name in methods}
    for name, method in methods.items():
        setattr(owners[name], name, method)
    try:
        yield
    finally:
        for name, method in originals.items():
            setattr(owners[name], name, method)


def forced_refusal():
    """Every acquisition and every delay goes through the heap, as before
    the fast paths."""
    return swapped(
        _would_run_next=lambda self, priority, delay=0.0: False,
        try_advance=lambda self, delay: False,
        try_acquire=lambda self: None,
    )


@contextmanager
def counted_grants():
    """The real kernel; yields a one-item list counting its grants.

    Every caller checks everything else first and makes the kernel test
    last, so each ``True`` from the predicate, each ``True`` from
    ``try_advance`` and each token from ``try_acquire`` is exactly one
    elided event.
    """
    grants = [0]
    would_run_next = Environment._would_run_next
    try_advance = Environment.try_advance
    try_acquire = Resource.try_acquire

    def counted_predicate(self, priority, delay=0.0):
        verdict = would_run_next(self, priority, delay)
        grants[0] += verdict
        return verdict

    def counted_advance(self, delay):
        verdict = try_advance(self, delay)
        grants[0] += verdict
        return verdict

    def counted_acquire(self):
        token = try_acquire(self)
        grants[0] += token is not None
        return token

    with swapped(
        _would_run_next=counted_predicate,
        try_advance=counted_advance,
        try_acquire=counted_acquire,
    ):
        yield grants
