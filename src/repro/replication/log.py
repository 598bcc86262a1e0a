"""Per-partition replication log kept by the primary.

The log assigns each committed update a monotonically increasing sequence
number (1-based) and retains the records so follower catch-up can re-send
any suffix.  A follower that has applied sequence ``k`` asks for
``since(k)``; if the log has trimmed past ``k`` the answer is ``None`` and
the primary must fall back to a full snapshot bootstrap.

An Index Node logs each group-commit batch as one record (a tuple of
:class:`~repro.cluster.messages.IndexUpdate` objects) — the follower
applies the same batches the primary's replica applied, so converged
logs imply converged stores.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cluster.messages import IndexUpdate


class ReplicationLog:
    """Sequenced record buffer for one partition's committed updates."""

    def __init__(self, base: int = 0) -> None:
        # ``base`` is the seq of the record *before* _records[0]: a
        # promoted follower continues the partition's sequence from its
        # applied watermark instead of restarting at 1.
        self._records: List[IndexUpdate] = []
        self._base = base

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest record (0 when empty)."""
        return self._base + len(self._records)

    @property
    def first_seq(self) -> int:
        """Sequence number of the oldest retained record (base+1)."""
        return self._base + 1

    def __len__(self) -> int:
        return len(self._records)

    def append(self, update: IndexUpdate) -> int:
        """Add one committed update; returns its sequence number."""
        self._records.append(update)
        return self.last_seq

    def since(self, seq: int) -> Optional[Tuple[Tuple[int, IndexUpdate], ...]]:
        """Records after ``seq`` as ``(seq, update)`` pairs, oldest first.

        Returns ``None`` when ``seq`` predates the retained window (the
        follower is too far behind to stream — bootstrap it instead).
        """
        if seq < self._base:
            return None
        start = seq - self._base
        return tuple((self._base + start + i + 1, update)
                     for i, update in enumerate(self._records[start:]))

    def trim_to(self, seq: int) -> int:
        """Drop records at or below ``seq``; returns how many were dropped.

        Callers trim only up to the minimum acked sequence across
        followers, so a live follower never needs a trimmed suffix.
        """
        keep_from = max(0, min(seq, self.last_seq) - self._base)
        dropped = keep_from
        if dropped:
            self._records = self._records[keep_from:]
            self._base += dropped
        return dropped

    def __repr__(self) -> str:
        return (f"ReplicationLog(first={self.first_seq}, "
                f"last={self.last_seq}, retained={len(self._records)})")
