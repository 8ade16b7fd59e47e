"""Zero-copy fleets over POSIX shared memory.

A :class:`SharedFleet` publishes a :class:`~repro.devices.fleet.Fleet`
(plus optional same-length int64 *extra* columns, e.g. the device→cell
attachment map) into one ``multiprocessing.shared_memory`` segment. The
segment holds the fleet's stored columns only; the fleet's scalar
``nb`` rides in the descriptor. Workers receive a
:class:`SharedFleetDescriptor` — a ~100-byte picklable handle — and
attach to the same physical pages instead of unpickling a fleet copy,
so every worker of a 10^6-device run maps the *same* ~48 MB once (40
bytes per device, 8 more per extra column).

Ownership / lifecycle contract (see docs/architecture.md "Memory
model"):

* the **creator** owns the segment name: it alone calls
  :meth:`SharedFleet.unlink` (normally delegated to the run's terminal
  reduction task), which removes both the name and its resource-tracker
  registration;
* **workers** attach and close — close unmaps this process's view and
  never touches the name;
* the processes of one campaign share **one** resource tracker: both
  :meth:`allocate` and :meth:`attach` call ``ensure_running()`` so the
  tracker exists before any pool forks (fork children inherit it), and
  the pool drain does the same before spawning its pool. Python
  < 3.13 registers segments on attach as well as create (bpo-39959),
  but against a single shared tracker those registrations are
  idempotent set entries — exactly one per name — so the one
  ``unlink()`` clears them, and an abnormal exit (SIGTERM mid-run)
  leaves the tracker to reclaim whatever was still registered;
* attaching to a name whose segment is already gone raises
  :class:`~repro.errors.SimulationError` carrying the caller's context
  (e.g. the fused task address), never a raw ``FileNotFoundError``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from multiprocessing import resource_tracker, shared_memory
from secrets import token_hex
from typing import Dict, Optional, Tuple

import numpy as np

from repro.devices.fleet import COLUMN_SCHEMA, Fleet
from repro.drx.paging import NB
from repro.errors import SimulationError

#: Shared fleet segments are named ``repro_fleet_<hex>`` so the CI shm
#: hygiene check (and a human at /dev/shm) can attribute leaks.
SEGMENT_PREFIX = "repro_fleet_"


@dataclass(frozen=True)
class SharedFleetDescriptor:
    """The picklable handle workers attach with.

    Pickles to ~100 bytes regardless of fleet size — this is what rides
    in every fused work item's payload instead of the fleet itself.
    ``nb_name`` names the fleet's scalar ``nB`` (the member name keeps
    the pickle small); a staging segment has none until
    :meth:`SharedFleet.seal` records the built fleet's.
    """

    name: str
    n_devices: int
    extras: Tuple[str, ...] = ()
    nb_name: Optional[str] = None

    @property
    def nb(self) -> NB:
        """The fleet's ``nB``."""
        if self.nb_name is None:
            raise SimulationError(
                f"shared fleet {self.name!r} is still staging: it has no nB"
            )
        return NB[self.nb_name]

    @property
    def nbytes(self) -> int:
        """Total segment payload size implied by the descriptor."""
        return self.n_devices * 8 * (len(COLUMN_SCHEMA) + len(self.extras))


def _column_views(
    buf: memoryview,
    descriptor: SharedFleetDescriptor,
    *,
    writable_extras: bool = False,
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Map the fixed layout: schema columns, then extras, 8 bytes/row."""
    n = descriptor.n_devices
    offset = 0
    columns: Dict[str, np.ndarray] = {}
    for name, dtype in COLUMN_SCHEMA:
        columns[name] = np.ndarray((n,), dtype=dtype, buffer=buf, offset=offset)
        offset += n * 8
    extras: Dict[str, np.ndarray] = {}
    for name in descriptor.extras:
        view = np.ndarray((n,), dtype=np.int64, buffer=buf, offset=offset)
        if not writable_extras:
            view.flags.writeable = False
        extras[name] = view
        offset += n * 8
    return columns, extras


class SharedFleet:
    """A fleet whose columns live in one shared-memory segment."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        descriptor: SharedFleetDescriptor,
        *,
        owner: bool,
        staged: bool = False,
    ) -> None:
        self._shm = shm
        self._descriptor = descriptor
        self._owner = owner
        self._closed = False
        self._staged = staged
        if staged:
            # A staging segment exposes writable column buffers and no
            # fleet until seal() publishes the built one.
            self._fleet: Optional[Fleet] = None
            self._columns, self._extras = _column_views(
                shm.buf, descriptor, writable_extras=True
            )
        else:
            self._columns, self._extras = _column_views(shm.buf, descriptor)
            self._fleet = Fleet(**self._columns, nb=descriptor.nb)
        # Close-only finalizer: dropping the last reference unmaps the
        # pages in this process but never touches the segment name —
        # only an explicit unlink() (or the creator's resource-tracker
        # registration, on abnormal exit) removes it.
        self._finalizer = weakref.finalize(self, _close_segment, shm)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def allocate(
        cls, n_devices: int, extras: Tuple[str, ...] = ()
    ) -> "SharedFleet":
        """Create an empty staging segment to build a fleet in place.

        The returned fleet is *staged*: :meth:`column_buffers` /
        :meth:`extra_buffer` expose writable views over the segment so
        a generator can compute the columns directly into shared
        memory, and :meth:`seal` then publishes the result — a header
        write, not a copy. Until ``seal`` runs, :attr:`fleet` raises.
        """
        if n_devices < 1:
            raise SimulationError(
                f"a shared fleet needs >= 1 device, got {n_devices}"
            )
        resource_tracker.ensure_running()
        descriptor = SharedFleetDescriptor(
            name=f"{SEGMENT_PREFIX}{token_hex(8)}",
            n_devices=int(n_devices),
            extras=tuple(extras),
        )
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, descriptor.nbytes), name=descriptor.name
        )
        return cls(shm, descriptor, owner=True, staged=True)

    def column_buffers(self) -> Dict[str, np.ndarray]:
        """Writable schema-column views of a staging segment."""
        self._require_staged("column_buffers")
        return dict(self._columns)

    def extra_buffer(self, name: str) -> np.ndarray:
        """The writable view of one extra column (staging only)."""
        self._require_staged("extra_buffer")
        return self._extras[name]

    def seal(self, fleet: Fleet) -> "SharedFleet":
        """Publish a fleet built inside this staging segment.

        ``fleet`` must be backed by the segment's own column buffers
        (what :meth:`~repro.devices.fleet.Fleet.from_columns` returns
        when handed :meth:`column_buffers` as ``out``) — seal is a
        header write: it freezes the extra columns, records the fleet
        and its ``nb`` in the descriptor, and flips the segment from
        staging to published. No column data moves.
        """
        self._require_staged("seal")
        if len(fleet) != self._descriptor.n_devices:
            raise SimulationError(
                f"sealed fleet has {len(fleet)} devices, segment was "
                f"allocated for {self._descriptor.n_devices}"
            )
        segment_base = np.frombuffer(self._shm.buf, dtype=np.uint8)
        base_address = segment_base.__array_interface__["data"][0]
        imsis_address = fleet.imsis.__array_interface__["data"][0]
        if imsis_address != base_address:
            raise SimulationError(
                "seal() requires columns built inside this segment "
                "(pass column_buffers() as the generator's `out`)"
            )
        for view in self._extras.values():
            view.flags.writeable = False
        self._descriptor = replace(self._descriptor, nb_name=fleet.nb.name)
        self._fleet = fleet
        self._staged = False
        return self

    def _require_staged(self, what: str) -> None:
        if not self._staged:
            raise SimulationError(
                f"{what}() is only available on a staging segment "
                f"(SharedFleet.allocate) before seal()"
            )

    @classmethod
    def attach(
        cls, descriptor: SharedFleetDescriptor, *, context: str = ""
    ) -> "SharedFleet":
        """Map an existing segment read-only (zero-copy).

        Raises :class:`SimulationError` — with ``context`` (typically
        the fused task address) in the message — when the segment has
        already been unlinked.
        """
        resource_tracker.ensure_running()
        try:
            shm = shared_memory.SharedMemory(name=descriptor.name)
        except (FileNotFoundError, OSError) as exc:
            where = f" while running {context}" if context else ""
            raise SimulationError(
                f"shared fleet segment {descriptor.name!r} is gone"
                f"{where}: it was unlinked before this task attached "
                f"(creator reduced early or crashed?)"
            ) from exc
        # Python < 3.13 registers the segment with the resource tracker
        # on attach as well as on create (bpo-39959). All campaign
        # processes share one tracker (ensure_running precedes every
        # pool fork), so these registrations collapse into a single set
        # entry that the eventual unlink() removes — no per-process
        # unregister dance, no premature cleanup.
        return cls(shm, descriptor, owner=False)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def descriptor(self) -> SharedFleetDescriptor:
        return self._descriptor

    @property
    def fleet(self) -> Fleet:
        """The fleet whose columns are zero-copy views over the segment."""
        if self._staged:
            raise SimulationError(
                f"shared fleet {self._descriptor.name!r} is still "
                f"staging: seal() it before reading the fleet"
            )
        return self._fleet

    def extra(self, name: str) -> np.ndarray:
        """A read-only view of the named extra column."""
        return self._extras[name]

    @property
    def owner(self) -> bool:
        return self._owner

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unmap the segment from this process (keeps the name alive).

        Any live array views into the buffer keep the mapping pinned; in
        that case the unmap is deferred to process exit rather than
        raising into the caller.
        """
        if self._closed:
            return
        self._closed = True
        self._staged = False
        self._finalizer.detach()
        self._fleet = None  # type: ignore[assignment]
        self._columns = {}
        self._extras = {}
        _close_segment(self._shm)

    def unlink(self) -> None:
        """Remove the segment name (creator only; idempotent)."""
        if not self._owner:
            raise SimulationError(
                f"only the creator may unlink shared fleet "
                f"{self._descriptor.name!r}"
            )
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedFleet(name={self._descriptor.name!r}, "
            f"n={self._descriptor.n_devices}, owner={self._owner})"
        )


def _close_segment(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except BufferError:  # pragma: no cover - views still pinned
        pass


def unlink_descriptor(descriptor: SharedFleetDescriptor) -> None:
    """Best-effort removal of a segment by descriptor (cleanup paths).

    ``SharedMemory.unlink`` unregisters the name from the (shared)
    resource tracker itself, so this is the single point where the
    create/attach registrations are retired.
    """
    try:
        shm = shared_memory.SharedMemory(name=descriptor.name)
    except (FileNotFoundError, OSError):
        return
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - lost the unlink race
        pass
    finally:
        _close_segment(shm)
