"""Clean fixture: the cross-yield read and the GC write share a latch.

Same shape as ``race_stale_read.py``, but both processes hold the same
``SimLock`` across the window, so KL-RACE001 stays silent.
"""


class LockedDevice:
    def __init__(self, env, lock):
        self.env = env
        self.table_lock = lock
        self.mapping = {}
        self.flash = {}

    def boot(self):
        self.env.process(self._read_process(3))
        self.env.process(self._gc_process())

    def _read_process(self, key):
        yield self.table_lock.acquire(owner="reader")
        location = self.mapping[key]
        yield self.env.timeout(70.0)
        value = self.flash[location]
        self.table_lock.release()
        return value

    def _gc_process(self):
        if not self.table_lock.try_acquire(owner="gc"):
            yield self.table_lock.acquire(owner="gc")
        destination = len(self.flash)
        yield self.env.timeout(700.0)
        self.mapping[3] = destination
        self.table_lock.release()
