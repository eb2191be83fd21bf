"""Message queue front-end of the serving framework (Fig. 2)."""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from .._checks import check_size
from .request import Request


class MessageQueue:
    """FIFO of pending requests with arrival-order accounting.

    ``capacity`` bounds the queue: a full queue rejects further pushes
    (``push`` returns False and ``total_rejected`` counts them), which is
    how backpressure becomes representable instead of queues silently
    growing without bound.  The default (``None``) stays unbounded, so
    existing callers that ignore ``push``'s return value are unchanged.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        check_size("capacity", capacity, optional=True)
        self.capacity = capacity
        self._queue: Deque[Request] = deque()
        self.total_enqueued = 0
        self.total_rejected = 0
        self.peak_depth = 0

    def push(self, request: Request) -> bool:
        """Enqueue; returns False (rejecting the request) if at capacity."""
        queue = self._queue
        if self.capacity is not None and len(queue) >= self.capacity:
            self.total_rejected += 1
            return False
        queue.append(request)
        self.total_enqueued += 1
        depth = len(queue)
        if depth > self.peak_depth:
            self.peak_depth = depth
        return True

    def drain(self, limit: Optional[int] = None) -> List[Request]:
        """Pop up to ``limit`` requests in arrival order (all if None)."""
        if limit is not None and limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        queue = self._queue
        if limit is None or limit >= len(queue):
            taken = list(queue)
            queue.clear()
            return taken
        return [queue.popleft() for _ in range(limit)]

    def front(self) -> Optional[Request]:
        """Oldest pending request (the lazy policy checks its age)."""
        return self._queue[0] if self._queue else None

    def __iter__(self):
        """Iterate pending requests in arrival order (non-destructive)."""
        return iter(self._queue)

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)
