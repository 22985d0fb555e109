"""Micro-batching: hand a worker everything already queued, up to a cap.

The batcher is work-conserving: a worker blocks only until the first
item arrives, then takes whatever else is already waiting — at most
``max_size`` items — and goes.  It never holds a ready item back to wait
for company, so a trickle of traffic is scanned as soon as it arrives
while a backlog still drains in full batches.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from repro.service.queue import IngestQueue


class MicroBatcher:
    """Assemble batches of already-queued items from an ingest queue.

    Thread-safe: multiple workers may call :meth:`next_batch` concurrently.
    They wait for their first item without holding any batcher lock (so
    every idle worker surfaces on its own ``timeout``); the drain of the
    rest runs under a lock, so two drains never interleave and every
    batch leaves in queue order.
    """

    def __init__(self, queue: IngestQueue, max_size: int = 8) -> None:
        if max_size <= 0:
            raise ValueError("max_size must be positive")
        self.queue = queue
        self.max_size = max_size
        self._assembly_lock = threading.Lock()
        self.batches = 0
        self.size_flushes = 0

    def next_batch(self, timeout: Optional[float] = None) -> Optional[list]:
        """Block for one item, then add what is queued; ``None`` when done.

        The batch closes as soon as the queue is empty or ``max_size``
        items are in it.  Queue closure still hands out what was queued
        before it.

        With ``timeout`` the wait for the *first* item is bounded: an
        empty list comes back when nothing arrived in time and the queue
        is still open.  Elastic pools feed workers through this timed
        form so an idle worker periodically surfaces to check for
        retirement instead of blocking forever in the queue.
        """
        first = self.queue.get(timeout=timeout)
        if first is None:
            if timeout is not None and not self.queue.closed:
                return []
            return None
        batch: list[Any] = [first]
        with self._assembly_lock:
            while len(batch) < self.max_size:
                item = self.queue.get(timeout=0)
                if item is None:
                    break
                batch.append(item)
            self.batches += 1
            if len(batch) == self.max_size:
                self.size_flushes += 1
        return batch

    def stats(self) -> dict:
        return {
            "batches": self.batches,
            "size_flushes": self.size_flushes,
            "max_size": self.max_size,
        }
