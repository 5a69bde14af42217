"""``sys.setprofile`` call census shared by the call-budget tests.

Host time on the simulated paths is Python calls, so the budget tests pin
counts, not timings: :func:`census` counts the Python calls (function
entries and generator resumes) made while one simulated operation runs,
by the ``repro`` package of the function called and of its caller.
Sanitizers (``KAML_SANITIZE=1``) are off while counting: their checks are
not the path a budget pins.
"""

import os
import sys
from collections import Counter

from repro import sanitize

_TRACE_PY = os.path.join("repro", "obs", "trace.py")


def _package(path):
    marker = os.sep + "repro" + os.sep
    at = path.rfind(marker)
    return path[at + len(marker):].split(os.sep, 1)[0] if at >= 0 else None


def census(env, operation):
    """Run the generator ``operation`` as one process and count the Python
    calls made meanwhile: ``{(callee package, caller package): n}`` plus
    the calls into ``obs/trace.py`` keyed ``("trace", caller package)``.
    Returns ``(operation's return value, calls)``."""
    calls = Counter()

    def profile(frame, event, _arg):
        if event != "call":
            return
        callee = frame.f_code.co_filename
        caller = frame.f_back.f_code.co_filename if frame.f_back is not None else ""
        calls[(_package(callee), _package(caller))] += 1
        if callee.endswith(_TRACE_PY):
            calls[("trace", _package(caller))] += 1

    def one():
        sys.setprofile(profile)
        try:
            return (yield from operation)
        finally:
            sys.setprofile(None)

    armed = sanitize.enabled()
    sanitize.set_enabled(False)
    try:
        proc = env.process(one())
        env.run_until(proc)
    finally:
        sanitize.set_enabled(armed)
    return proc.value, calls


def into(calls, package, caller=None):
    """Calls into ``package`` (from ``caller`` only, if given)."""
    return sum(
        n for (callee, by), n in calls.items()
        if callee == package and caller in (None, by)
    )
