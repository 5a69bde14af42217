"""Test-only seam for the zero-event oracles (acquisitions and delays).

The fast path has no switch; the oracles get their "before" run by
swapping ``Environment._would_run_next`` on the class for the duration of
one run.
"""

from contextlib import contextmanager

from repro.sim import Environment


@contextmanager
def predicate(replacement):
    """Run with ``replacement(original)`` as the kernel predicate."""
    original = Environment._would_run_next
    Environment._would_run_next = replacement(original)
    try:
        yield
    finally:
        Environment._would_run_next = original


def forced_refusal():
    """Every acquisition and every delay goes through the heap, as before
    the fast paths."""
    return predicate(lambda original: lambda self, priority, delay=0.0: False)


@contextmanager
def counted_grants():
    """The real predicate; yields a one-item list counting its grants.

    Every caller (``try_advance`` included) checks everything else first
    and asks the predicate last, so each ``True`` is exactly one elided
    event.
    """
    grants = [0]

    def counting(original):
        def counted(self, priority, delay=0.0):
            verdict = original(self, priority, delay)
            grants[0] += verdict
            return verdict
        return counted

    with predicate(counting):
        yield grants
