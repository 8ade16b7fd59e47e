"""Paging channel load accounting.

A paging message is broadcast per paging occasion and carries at most
``max_paging_records`` entries. Every row of a plan's page table
(:func:`repro.core.plan.plan_pages`) — a page, a DA-SC adaptation page
or a DR-SI ``mltc-transmission`` notification — is one entry at its PO
(frame and subframe): a record names one device (TS 36.331
``ue-Identity``), and UE_ID only selects the PO. Overflows are reported
explicitly, so a plan cannot silently assume infinite paging capacity.

:func:`paging_load` folds one finished plan's table into a
:class:`PagingLoadReport`; :class:`PagingOccupancy` is the live ledger
the capacity arbiter reserves the same entries in.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

from repro.errors import CapacityError

if TYPE_CHECKING:
    from repro.core.plan import PageTable

#: A PO's int64 key is ``frame * _SUBFRAMES + subframe``.
_SUBFRAMES = 10


@dataclass(frozen=True)
class PagingLoadReport:
    """Result of packing planned pages into paging messages.

    Attributes:
        total_pages: kept paging records across all messages.
        notifications: kept DR-SI ``mltc-transmission`` entries across
            all messages.
        occupied_occasions: number of distinct (frame, subframe) POs used.
        max_records_in_message: worst-case entries in a single message.
        overflowed: (frame, subframe, devices) tuples, by PO, of the
            device indices spilled past capacity; empty in healthy plans.
    """

    total_pages: int
    notifications: int
    occupied_occasions: int
    max_records_in_message: int
    overflowed: Tuple[Tuple[int, int, Tuple[int, ...]], ...] = ()

    @property
    def has_overflow(self) -> bool:
        """True if any PO exceeded the record capacity."""
        return bool(self.overflowed)


def paging_load(pages: PageTable, max_records: int) -> PagingLoadReport:
    """The paging report of one plan's page table.

    Each row is one entry at its PO. A PO keeps its first
    ``max_records`` entries in ascending device index and spills the
    rest; kept entries count as pages or, where ``notified`` holds, as
    notifications (a device's entries are all of one kind, so the order
    among them does not matter). Entries sort by one int64 key of PO
    and device, so ``frame * 10 * devices`` must stay below 2**63
    (10^11 frames, over 30 years, at 10^6 devices).
    """
    po = pages.frame * _SUBFRAMES + pages.subframe
    radix = int(pages.device.max(initial=0)) + 1
    order = np.argsort(po * radix + pages.device)
    po = po[order]
    first = np.flatnonzero(np.diff(po, prepend=-1))
    sizes = np.diff(first, append=po.size)
    # Each entry's rank within its PO; the first ``max_records`` are kept.
    kept = np.arange(po.size) - np.repeat(first, sizes) < max_records
    full = sizes > max_records
    spilled = pages.device[order[~kept]].tolist()
    ends = np.cumsum(sizes[full] - max_records).tolist()
    overflowed = tuple(
        (at // _SUBFRAMES, at % _SUBFRAMES, tuple(spilled[start:end]))
        for at, start, end in zip(po[first[full]].tolist(), [0] + ends, ends)
    )
    notified = int(pages.notified[order[kept]].sum())
    return PagingLoadReport(
        total_pages=int(kept.sum()) - notified,
        notifications=notified,
        occupied_occasions=first.size,
        max_records_in_message=int(min(sizes.max(initial=0), max_records)),
        overflowed=overflowed,
    )


class PagingOccupancy:
    """Live paging-record ledger shared by every campaign in a cell.

    :func:`paging_load` accounts one finished plan; this ledger instead
    tracks how many records each paging occasion already carries across
    *all* in-flight campaigns, so the capacity arbiter can refuse a new
    window whose pages would push some PO past ``max_records``.

    Reservations are all-or-nothing: either every requested occasion
    still has room (and all are taken together), or nothing is reserved.
    """

    def __init__(self, max_records: int = 16) -> None:
        if max_records < 1:
            raise CapacityError(f"max_records must be >= 1, got {max_records}")
        self._max_records = max_records
        self._records: Counter = Counter()

    @property
    def max_records(self) -> int:
        """Record capacity of one paging message."""
        return self._max_records

    def records_at(self, frame: int, subframe: int) -> int:
        """Records currently reserved at the PO ``(frame, subframe)``."""
        return self._records[(frame, subframe)]

    def can_accept(self, occasions: Sequence[Tuple[int, int]]) -> bool:
        """True when every occasion (with multiplicity) still has room."""
        return all(
            self._records[po] + count <= self._max_records
            for po, count in Counter(occasions).items()
        )

    def reserve(self, occasions: Sequence[Tuple[int, int]]) -> bool:
        """Reserve one record per occasion, all-or-nothing.

        Returns True and takes every record when the whole batch fits;
        returns False and reserves *nothing* when any PO would overflow.
        """
        if not self.can_accept(occasions):
            return False
        self._records.update(occasions)
        return True

    def release(self, occasions: Sequence[Tuple[int, int]]) -> None:
        """Return previously reserved records (e.g. a retired window).

        Raises :class:`CapacityError`, returning nothing, on releasing
        more records at a PO than are held — that is always an
        accounting bug upstream.
        """
        returned = Counter(occasions)
        for (frame, subframe), count in returned.items():
            if self._records[(frame, subframe)] < count:
                raise CapacityError(
                    f"release at PO (frame={frame}, sf={subframe}) "
                    "without a matching reservation"
                )
        self._records.subtract(returned)
