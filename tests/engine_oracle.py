"""A minimal deterministic discrete-event engine — the replay oracle's.

A binary-heap scheduler with a strict total order on events:
``(time, priority, insertion sequence)``. Ties at identical times are
resolved first by an explicit priority (e.g. a transmission must start
after the last CONNECTION_READY at the same instant) and then by
insertion order, making runs bit-reproducible.

Scheduling returns an integer handle; :meth:`Simulator.cancel` removes
a not-yet-fired event (lazily — the heap entry is tombstoned and
skipped when it surfaces).

The package executes plans with array arithmetic and keeps no event
engine; the event-by-event replay in ``executor_oracle.py`` runs on
this one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.sim.events import EventKind


@dataclass(frozen=True)
class Event:
    """One scheduled event.

    Attributes:
        time_s: simulated time in seconds.
        kind: event type.
        device_index: the device concerned (None for fleet-wide events).
        payload: free-form extra data recorded in the trace.
    """

    time_s: float
    kind: EventKind
    device_index: Optional[int] = None
    payload: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        who = "" if self.device_index is None else f" dev={self.device_index}"
        return f"[{self.time_s:12.3f}s] {self.kind.value}{who}"


#: A queue entry: (time, priority, sequence, event, callback).
_Entry = Tuple[float, int, int, Event, Callable[[Event], None]]


class Simulator:
    """The event loop."""

    def __init__(self) -> None:
        self._queue: List[_Entry] = []
        self._seq = 0
        self._now = 0.0
        self._live: Set[int] = set()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still queued (cancelled tombstones excluded)."""
        return len(self._live)

    def schedule(
        self,
        event: Event,
        callback: Callable[[Event], None],
        priority: int = 0,
    ) -> int:
        """Queue ``event`` to run ``callback`` at ``event.time_s``.

        Returns a handle accepted by :meth:`cancel`.
        """
        if event.time_s < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule {event.kind.value} at {event.time_s:.6f}s "
                f"in the past (now={self._now:.6f}s)"
            )
        handle = self._seq
        heapq.heappush(
            self._queue, (event.time_s, priority, handle, event, callback)
        )
        self._seq += 1
        self._live.add(handle)
        return handle

    def cancel(self, handle: int) -> bool:
        """Cancel the pending event behind ``handle``.

        Returns True when the event was still pending and is now
        guaranteed never to fire; False when there is nothing left to
        cancel — the event already fired, was already cancelled, or the
        handle was never issued. The heap entry stays behind as a
        tombstone and is discarded when it reaches the front, so
        cancellation is O(1) and never perturbs the order of the
        surviving events.
        """
        if handle not in self._live:
            return False
        self._live.discard(handle)
        return True

    def run(self, until_s: Optional[float] = None) -> int:
        """Process events (optionally only up to ``until_s``).

        Returns the number of events executed. Events scheduled beyond
        ``until_s`` stay in the queue (the clock does not advance past
        them), so a later ``run`` call can continue. Cancelled events
        are skipped without advancing the clock.
        """
        executed = 0
        while self._queue:
            time_s, _, seq, event, callback = self._queue[0]
            if seq not in self._live:
                heapq.heappop(self._queue)  # tombstone of a cancelled event
                continue
            if until_s is not None and time_s > until_s:
                break
            heapq.heappop(self._queue)
            self._live.discard(seq)
            self._now = time_s
            callback(event)
            executed += 1
        return executed

    def step(self) -> int:
        """Execute at most one event; returns the number executed (0/1)."""
        while self._queue:
            time_s, _, seq, event, callback = self._queue[0]
            heapq.heappop(self._queue)
            if seq not in self._live:
                continue
            self._live.discard(seq)
            self._now = time_s
            callback(event)
            return 1
        return 0
