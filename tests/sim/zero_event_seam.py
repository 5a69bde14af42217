"""Test-only seam for the zero-event oracles (acquisitions, delays and
completions).

The fast path has no switch; the oracles get their "before" run by
swapping, on the classes and for the duration of one run, the four
places the kernel's "would run next" test is made:
``Environment._would_run_next`` (what ``NvramBuffer.try_reserve``,
``FirmwarePool.execute_wave`` and ``Environment._finish`` ask) and the
three methods that evaluate it inline, ``Environment.try_advance``,
``Environment.try_advance_to`` (a timeline hold's end) and
``Resource.try_acquire``.

A finished process nobody waits on is processed on the spot whatever the
seam says: that rule is event-only, not exact, so it is in both runs, as
is ``Environment.start``'s inline first step (a model choice).
"""

import sys
from collections import Counter
from contextlib import contextmanager

from repro.sim import Environment, Resource
from repro.sim.core import NORMAL, URGENT


@contextmanager
def predicate(replacement):
    """Run with ``replacement(original)`` as the kernel predicate; the three
    inline forms ask it too, after their own checks (``try_advance``: a
    non-negative delay within the ``run(until=)`` horizon;
    ``try_advance_to``: an instant from now to that horizon, asked as the
    delay ``when - now``; ``try_acquire``: a free unit and nobody
    queued)."""
    asks = replacement(Environment._would_run_next)

    def try_advance(self, delay):
        when = self.now + delay
        if 0 <= delay and when <= self._horizon and asks(self, NORMAL, delay):
            self.now = when
            return True
        return False

    def try_advance_to(self, when):
        if self.now <= when <= self._horizon and asks(self, NORMAL, when - self.now):
            self.now = when
            return True
        return False

    def try_acquire(self):
        if self._in_use < self.capacity and not self._waiting and asks(self.env, URGENT):
            self._in_use += 1
            return self._token
        return None

    with swapped(
        _would_run_next=asks,
        try_advance=try_advance,
        try_advance_to=try_advance_to,
        try_acquire=try_acquire,
    ):
        yield


@contextmanager
def swapped(**methods):
    """Replace the named methods of ``Environment`` / ``Resource``."""
    owners = {
        "_would_run_next": Environment,
        "try_advance": Environment,
        "try_advance_to": Environment,
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
    """Every acquisition, every delay and every completion goes through the
    heap, as before the fast paths."""
    return swapped(
        _would_run_next=lambda self, priority, delay=0.0: False,
        try_advance=lambda self, delay: False,
        try_advance_to=lambda self, when: False,
        try_acquire=lambda self: None,
    )


@contextmanager
def counted_grants():
    """The real kernel; yields ``[grants, by_site]``: the number of grants
    and a ``Counter`` of the predicate's grants by the function that asked.

    Every caller checks everything else first and makes the kernel test
    last, so each ``True`` from the predicate (an NVRAM grant, a firmware
    wave's claim or an inline completion), each ``True`` from
    ``try_advance`` or ``try_advance_to`` and each token from
    ``try_acquire`` is exactly one elided event.  An inline completion is
    filed under whoever called ``Environment._finish`` (``_worker`` for a
    parking shard worker, ``_resume`` for a returning process), a wave's
    claim under ``execute_wave``.
    """
    grants = [0, Counter()]
    would_run_next = Environment._would_run_next
    try_advance = Environment.try_advance
    try_advance_to = Environment.try_advance_to
    try_acquire = Resource.try_acquire

    def counted_predicate(self, priority, delay=0.0):
        verdict = would_run_next(self, priority, delay)
        if verdict:
            grants[0] += 1
            caller = sys._getframe(1)
            if caller.f_code is Environment._finish.__code__:
                caller = caller.f_back
            grants[1][caller.f_code.co_name] += 1
        return verdict

    def counted_advance(self, delay):
        verdict = try_advance(self, delay)
        grants[0] += verdict
        return verdict

    def counted_advance_to(self, when):
        verdict = try_advance_to(self, when)
        grants[0] += verdict
        return verdict

    def counted_acquire(self):
        token = try_acquire(self)
        grants[0] += token is not None
        return token

    with swapped(
        _would_run_next=counted_predicate,
        try_advance=counted_advance,
        try_advance_to=counted_advance_to,
        try_acquire=counted_acquire,
    ):
        yield grants
