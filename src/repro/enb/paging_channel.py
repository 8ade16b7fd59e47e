"""Paging channel load accounting.

A paging message is broadcast per paging occasion and carries at most
``max_paging_records`` identities; devices sharing a PO (same frame and
subframe) compete for records. Under the record rule here, devices
sharing a UE_ID at a PO share one record. UE_ID is IMSI mod 4096, and
the devices at one PO share UE_ID mod N, so a PO holds only a handful
of distinct UE_IDs and the merge hides how crowded POs are: a
paper-default DR-SC plan at 10^5 devices pages around 60 devices at its
busiest PO, yet packs at most 3 records per message. Overflows are
reported explicitly, so a plan cannot silently assume infinite paging
capacity.

:meth:`PagingChannel.pack` builds the messages one record at a time and
is the scalar specification; :meth:`PagingChannel.fold` computes the
same report from record columns, and is what a campaign's report uses.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import CapacityError
from repro.rrc.messages import MulticastNotification, PagingMessage, PagingRecord


@dataclass(frozen=True)
class PagingLoadReport:
    """Result of packing planned pages into paging messages.

    Attributes:
        total_pages: paging records across all messages.
        notifications: DR-SI ``mltc-transmission`` entries across all
            messages.
        occupied_occasions: number of distinct (frame, subframe) POs used.
        max_records_in_message: worst-case records in a single message.
        overflowed: (frame, subframe, ue_ids) tuples that exceeded
            capacity, by PO; empty in healthy plans.
        messages: the built paging messages, ordered by PO (only
            :meth:`PagingChannel.pack` builds them; not compared).
    """

    total_pages: int
    notifications: int
    occupied_occasions: int
    max_records_in_message: int
    overflowed: Tuple[Tuple[int, int, Tuple[int, ...]], ...] = ()
    messages: Tuple[PagingMessage, ...] = field(default=(), compare=False, repr=False)

    @property
    def has_overflow(self) -> bool:
        """True if any PO exceeded the record capacity."""
        return bool(self.overflowed)


class PagingChannel:
    """Packs planned pages into per-PO paging messages under a capacity."""

    def __init__(self, max_records: int = 16, *, strict: bool = False) -> None:
        """``strict=True`` raises :class:`CapacityError` on overflow
        instead of reporting it."""
        if max_records < 1:
            raise CapacityError(f"max_records must be >= 1, got {max_records}")
        self._max_records = max_records
        self._strict = strict

    @property
    def max_records(self) -> int:
        """Record capacity of one paging message."""
        return self._max_records

    def pack(
        self,
        pages: Sequence[Tuple[int, int, int]],
        notifications: Sequence[Tuple[int, int, MulticastNotification]] = (),
    ) -> PagingLoadReport:
        """Pack pages and DR-SI notifications into paging messages.

        Args:
            pages: (frame, subframe, ue_id) triples — standard paging
                records addressed at that PO.
            notifications: (frame, subframe, notification) triples — DR-SI
                ``mltc-transmission`` extension entries.

        Returns:
            A :class:`PagingLoadReport`; in ``strict`` mode overflow
            raises :class:`~repro.errors.CapacityError` instead.
        """
        by_po: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        for frame, subframe, ue_id in pages:
            by_po[(frame, subframe)].append(ue_id)
        notif_by_po: Dict[Tuple[int, int], List[MulticastNotification]] = defaultdict(list)
        for frame, subframe, notification in notifications:
            notif_by_po[(frame, subframe)].append(notification)

        messages: List[PagingMessage] = []
        overflowed: List[Tuple[int, int, Tuple[int, ...]]] = []
        max_in_message = 0
        all_pos = sorted(set(by_po) | set(notif_by_po))
        for po in all_pos:
            frame, subframe = po
            ue_ids = sorted(set(by_po.get(po, [])))
            kept, spilled = ue_ids[: self._max_records], ue_ids[self._max_records :]
            if spilled:
                if self._strict:
                    raise CapacityError(
                        f"PO (frame={frame}, sf={subframe}) needs "
                        f"{len(ue_ids)} records > capacity {self._max_records}"
                    )
                overflowed.append((frame, subframe, tuple(spilled)))
            max_in_message = max(max_in_message, len(kept))
            # Paging is identity-addressed: devices sharing a UE_ID are
            # served by a single record/notification (they all react to
            # it). A UE_ID that is both paged and notified at the same PO
            # keeps only the paging record — the record already wakes the
            # device, and the ASN.1 forbids the id appearing in both.
            notifications_here = []
            seen_notified = set(kept)
            for notification in notif_by_po.get(po, []):
                if notification.ue_id in seen_notified:
                    continue
                seen_notified.add(notification.ue_id)
                notifications_here.append(notification)
            messages.append(
                PagingMessage(
                    frame=frame,
                    records=tuple(PagingRecord(u) for u in kept),
                    mltc_transmission=tuple(notifications_here),
                )
            )
        return PagingLoadReport(
            total_pages=sum(len(m.records) for m in messages),
            notifications=sum(len(m.mltc_transmission) for m in messages),
            occupied_occasions=len(all_pos),
            max_records_in_message=max_in_message,
            overflowed=tuple(overflowed),
            messages=tuple(messages),
        )

    def fold(
        self,
        frame: np.ndarray,
        subframe: np.ndarray,
        ue_id: np.ndarray,
        notified: np.ndarray,
    ) -> PagingLoadReport:
        """:meth:`pack`'s report from record columns, building no message.

        One row per page or, where ``notified`` holds, per DR-SI
        notification. The rule is :meth:`pack`'s: records merge by
        UE_ID per PO, a PO keeps its ``max_records`` smallest UE_IDs and
        spills the rest, and a notification is dropped where its UE_ID
        is already notified or holds a kept record at that PO. Every
        column is non-negative, as frames, subframes and UE_IDs are.
        """
        notified = np.asarray(notified, dtype=bool)
        frame, subframe, ue_id = (
            np.asarray(column, dtype=np.int64) for column in (frame, subframe, ue_id)
        )
        cap = self._max_records
        # One int64 key per (PO, UE_ID) that sorts like the triple.
        sf_radix = int(subframe.max(initial=0)) + 1
        ue_radix = int(ue_id.max(initial=0)) + 1
        po = frame * sf_radix + subframe
        key = po * ue_radix + ue_id
        records = np.unique(key[~notified])
        _, first, sizes = np.unique(
            records // ue_radix, return_index=True, return_counts=True
        )
        # Each record's rank within its PO; the first ``cap`` are kept.
        kept = np.arange(records.size) - np.repeat(first, sizes) < cap
        full = sizes > cap
        overflowed = tuple(
            (at // sf_radix, at % sf_radix, tuple(spilled.tolist()))
            for at, spilled in zip(
                (records[first[full]] // ue_radix).tolist(),
                np.split(records[~kept] % ue_radix, np.cumsum(sizes[full] - cap)[:-1]),
            )
        )
        if overflowed and self._strict:
            at_frame, at_subframe, spilled = overflowed[0]
            raise CapacityError(
                f"PO (frame={at_frame}, sf={at_subframe}) needs "
                f"{cap + len(spilled)} records > capacity {cap}"
            )
        return PagingLoadReport(
            total_pages=int(kept.sum()),
            notifications=np.setdiff1d(key[notified], records[kept]).size,
            occupied_occasions=np.unique(po).size,
            max_records_in_message=int(min(sizes.max(initial=0), cap)),
            overflowed=overflowed,
        )


class PagingOccupancy:
    """Live paging-record ledger shared by every campaign in a cell.

    :class:`PagingChannel` packs one finished plan; this ledger instead
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
