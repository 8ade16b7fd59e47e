"""The grouping decision: which window every device is served in.

The greedy window cover and every grouping policy produce one
:class:`GroupingDecision`; the mechanisms lay it out as plan rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, TimebaseError


@dataclass(frozen=True, eq=False)
class GroupingDecision:
    """A grouping of one fleet as int64 columns, groups in selection order.

    Attributes:
        start: per group, its window's first frame.
        end: per group, its window's end (exclusive; the window's last
            frame is ``end - 1``).
        members: every group's fleet indices, group after group.
        bounds: ``n_groups + 1`` offsets into ``members``: group ``g``
            is ``members[bounds[g]:bounds[g + 1]]``.
    """

    start: np.ndarray
    end: np.ndarray
    members: np.ndarray
    bounds: np.ndarray

    def __post_init__(self) -> None:
        for name in ("start", "end", "members", "bounds"):
            column = np.asarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, column)
        n_groups = self.start.size
        if n_groups == 0:
            raise ConfigurationError("a grouping decision needs groups")
        if (
            self.end.shape != (n_groups,)
            or self.bounds.shape != (n_groups + 1,)
            or self.bounds[0] != 0
            or self.bounds[-1] != self.members.size
        ):
            raise ConfigurationError(
                "grouping decision columns disagree on the group count"
            )
        if np.any(np.diff(self.bounds) < 1):
            raise ConfigurationError("a planned group must have members")
        if np.any(self.start < 0):
            raise TimebaseError(
                f"window start must be non-negative, got {self.start.min()}"
            )
        if np.any(self.end <= self.start):
            raise ConfigurationError("a group window must not be empty")

    @classmethod
    def from_groups(
        cls, start: Sequence[int], end: Sequence[int], groups: Sequence[np.ndarray]
    ) -> "GroupingDecision":
        """The decision serving ``groups[g]`` in ``[start[g], end[g])``."""
        members = np.concatenate(groups) if groups else np.empty(0, np.int64)
        return cls(start, end, members, np.cumsum([0] + [len(g) for g in groups]))

    @property
    def n_groups(self) -> int:
        """Number of groups (the plan's transmission count for DR-SC)."""
        return int(self.start.size)

    @property
    def group_sizes(self) -> Tuple[int, ...]:
        """Per-group member counts, in decision order."""
        return tuple(np.diff(self.bounds).tolist())

    @property
    def largest_group(self) -> int:
        """Size of the biggest group."""
        return int(np.diff(self.bounds).max())

    def take(self, order: np.ndarray) -> "GroupingDecision":
        """The same groups, reordered so that group ``i`` is ``order[i]``."""
        sizes = np.diff(self.bounds)[order]
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        rows = np.repeat(self.bounds[:-1][order] - bounds[:-1], sizes)
        rows += np.arange(self.members.size)
        return GroupingDecision(
            self.start[order], self.end[order], self.members[rows], bounds
        )

    def validate_partition(self, n_devices: int) -> None:
        """Check the groups partition ``range(n_devices)`` exactly.

        Raises :class:`~repro.errors.ConfigurationError` when a device
        is missing, duplicated or out of range. Policies call this
        before returning so mechanisms can trust the decision.
        """
        if self.members.size != n_devices:
            raise ConfigurationError(
                f"grouping assigns {self.members.size} slots for "
                f"{n_devices} devices"
            )
        if self.members.min() < 0 or self.members.max() >= n_devices:
            raise ConfigurationError("grouping references an unknown device")
        counts = np.bincount(self.members, minlength=n_devices)
        if np.any(counts != 1):
            bad = np.nonzero(counts != 1)[0][:5]
            raise ConfigurationError(
                f"grouping is not a partition (devices {bad.tolist()} "
                "missing or duplicated)"
            )
