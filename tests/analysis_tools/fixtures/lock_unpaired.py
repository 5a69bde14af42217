"""Seeded violation: KL-LCK001 (acquire without a same-function release)."""


class FlushWorker:
    def __init__(self, lock):
        self._program_lock = lock

    def flush(self, page):
        yield self._program_lock.acquire(owner="flush")
        yield from page.program()
        # KL-LCK001: every exit path leaks the latch — no release().

    def flush_fast(self, page):
        # The zero-event spelling is one acquisition, flagged once.
        if not self._program_lock.try_acquire(owner="flush"):
            yield self._program_lock.acquire(owner="flush")
        yield from page.program()

    def flush_delegated(self, page):
        # So is the try-then-delegate spelling of a generator acquire.
        if not self._program_lock.try_acquire(owner="flush"):
            yield from self._program_lock.acquire(owner="flush")
        yield from page.program()

    def poke(self):
        # A bare try_acquire is still an acquisition.
        return self._program_lock.try_acquire(owner="poke")
