"""Error surface of the cluster serving tier."""

from __future__ import annotations

from repro.errors import ReproError


class ClusterError(ReproError):
    """Configuration or protocol misuse inside the serving tier."""


class AdmissionError(ClusterError):
    """A request was shed by admission control (the 429 of this tier).

    ``reason`` is ``"queue_full"`` (the shard's bounded queue is at
    capacity) or ``"slo_budget"`` (the estimated queue wait already
    exceeds the tenant's latency budget, so serving the request late
    would only burn device time on a guaranteed breach).
    """

    def __init__(self, shard_id: int, reason: str, detail: str = ""):
        self.shard_id = shard_id
        self.reason = reason
        message = f"shard {shard_id} shed request ({reason})"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class TwoPhaseCommitError(ClusterError):
    """A cross-shard transaction could not reach a decision."""
