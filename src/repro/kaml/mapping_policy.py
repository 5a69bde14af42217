"""Namespace-to-log assignment policies (Section IV-B).

"KAML assigns each key-value namespace to multiple logs ... the
correspondence between namespaces and logs is not fixed: as workloads
change the SSD can assign more or fewer logs to a single namespace ...
By default, all of the SSD's logs are available to all the namespaces."

Policies see the SSD's log population and per-log subscriber counts and
return the log ids a namespace should append to.  Assignments can be
changed at runtime via :meth:`~repro.kaml.ssd.KamlSsd.retarget_namespace`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.errors import ReproError


class LogAssignmentError(ReproError):
    """A policy produced an invalid assignment."""


class AllLogsPolicy:
    """The default: every log serves the namespace."""

    def select(self, log_ids: Sequence[int], subscribers: Dict[int, int]) -> List[int]:
        return list(log_ids)


class DedicatedLogsPolicy:
    """Reserve ``count`` logs, preferring the least-subscribed ones.

    This is how an application buys a known slice of write bandwidth
    (Figure 8) or isolates a cold namespace onto shared logs.
    """

    def __init__(self, count: int):
        if count < 1:
            raise LogAssignmentError("a namespace needs at least one log")
        self.count = count

    def select(self, log_ids: Sequence[int], subscribers: Dict[int, int]) -> List[int]:
        if self.count > len(log_ids):
            raise LogAssignmentError(
                f"requested {self.count} logs; the SSD has {len(log_ids)}"
            )
        ranked = sorted(log_ids, key=lambda log_id: (subscribers.get(log_id, 0), log_id))
        return ranked[: self.count]


class ExplicitLogsPolicy:
    """Pin a namespace to specific log ids (quality-of-service control)."""

    def __init__(self, log_ids: Sequence[int]):
        if not log_ids:
            raise LogAssignmentError("explicit assignment needs at least one log")
        if len(set(log_ids)) != len(log_ids):
            raise LogAssignmentError("duplicate log ids in explicit assignment")
        self.log_ids = list(log_ids)

    def select(self, log_ids: Sequence[int], subscribers: Dict[int, int]) -> List[int]:
        available = set(log_ids)
        missing = [log_id for log_id in self.log_ids if log_id not in available]
        if missing:
            raise LogAssignmentError(f"unknown log ids: {missing}")
        return list(self.log_ids)
