"""Publish a heap fleet to shared memory, for the shared-fleet tests.

Production builds a fleet straight into an allocated segment
(``SharedFleet.allocate``, ``generate_fleet(out=column_buffers())``,
``seal``); tests that already hold a fleet copy it in the same way.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.devices import SharedFleet
from repro.devices.fleet import Fleet


def publish(
    fleet: Fleet, extras: Optional[Mapping[str, np.ndarray]] = None
) -> SharedFleet:
    """Copy ``fleet`` (and int64 ``extras`` columns) into a new segment."""
    extras = dict(extras or {})
    staged = SharedFleet.allocate(len(fleet), extras=tuple(extras))
    buffers = staged.column_buffers()
    for name, column in fleet.columns():
        np.copyto(buffers[name], column)
    for name, column in extras.items():
        np.copyto(staged.extra_buffer(name), column)
    return staged.seal(Fleet(**buffers, nb=fleet.nb))
