"""Counted resources with FIFO queuing.

Models exclusive or limited-concurrency devices (a CPU core, a disk arm).
Requests are granted strictly in request order, preserving determinism.
"""

from __future__ import annotations

from collections import deque

from .core import Event, Simulator
from .errors import SimError

__all__ = ["Resource"]


class ResourceRequest(Event):
    """Event granted when the resource has a free slot.

    Usable as a context manager inside a process::

        req = resource.request()
        yield req
        try:
            ... hold the resource ...
        finally:
            resource.release(req)
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource

    def __enter__(self) -> "ResourceRequest":
        return self

    def __exit__(self, *exc) -> None:
        self.resource.release(self)


class Resource:
    """``capacity`` concurrent holders; extra requests queue FIFO."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.users: list[ResourceRequest] = []
        self.queue: deque[ResourceRequest] = deque()

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self.users)

    def request(self) -> ResourceRequest:
        req = ResourceRequest(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req.succeed()
        else:
            self.queue.append(req)
        return req

    def release(self, req: ResourceRequest) -> None:
        try:
            self.users.remove(req)
        except ValueError:
            # Releasing a queued (never-granted) request cancels it.
            try:
                self.queue.remove(req)
                return
            except ValueError:
                raise SimError("release of a request that was never granted") from None
        if self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()
