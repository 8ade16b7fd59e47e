"""The DRX/eDRX cycle ladder.

Sec. II-B of the paper:

    "In LTE/LTE-A, the DRX cycle ranges from 0.32 to 2.56 seconds, while
    in NB-IoT, extended DRX (eDRX) cycles may also be used, that span
    from 20.48 seconds to 175 minutes [...]. Furthermore, DRX values are
    always twice as long as the immediately shorter DRX value."

We model the full ladder as an :class:`enum.IntEnum` whose value is the
cycle length in 10 ms radio frames, so that cycle arithmetic is exact
integer arithmetic. The doubling property (each member is exactly twice
its predecessor) is what makes DA-SC's cycle *shortening* preserve the
original paging occasions: if ``T' | T`` the PO grid of ``T`` is a subset
of the grid of ``T'`` (verified by unit and property tests).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import LadderError
from repro.timebase import frames_to_seconds, seconds_to_frames


class DrxCycle(int):
    """A DRX or eDRX cycle length, stored as radio frames.

    ``DrxCycle`` is an ``int`` subclass restricted to the power-of-two
    ladder; arithmetic with plain integers therefore works transparently
    (``device.cycle * 2``, ``frame % cycle``...), while construction
    validates ladder membership.
    """

    #: Shortest permitted cycle (0.32 s, LTE short DRX).
    MIN_FRAMES = 32

    #: Longest permitted cycle (10485.76 s = 174.76 min eDRX maximum).
    MAX_FRAMES = 1_048_576

    def __new__(cls, frames: int) -> "DrxCycle":
        frames = int(frames)
        if frames < cls.MIN_FRAMES or frames > cls.MAX_FRAMES:
            raise LadderError(
                f"cycle of {frames} frames outside the ladder "
                f"[{cls.MIN_FRAMES}, {cls.MAX_FRAMES}]"
            )
        if frames & (frames - 1):
            raise LadderError(f"cycle of {frames} frames is not a power of two")
        return super().__new__(cls, frames)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def frames(self) -> int:
        """Cycle length in radio frames."""
        return int(self)

    @property
    def seconds(self) -> float:
        """Cycle length in seconds."""
        return frames_to_seconds(int(self))

    # ------------------------------------------------------------------
    # Ladder navigation
    # ------------------------------------------------------------------
    def shorter(self) -> "DrxCycle":
        """The immediately shorter ladder value (half as long)."""
        if int(self) == self.MIN_FRAMES:
            raise LadderError(f"{self!r} is already the shortest ladder cycle")
        return DrxCycle(int(self) // 2)

    def longer(self) -> "DrxCycle":
        """The immediately longer ladder value (twice as long)."""
        if int(self) == self.MAX_FRAMES:
            raise LadderError(f"{self!r} is already the longest ladder cycle")
        return DrxCycle(int(self) * 2)

    def divides(self, other: "DrxCycle") -> bool:
        """True if this cycle's PO grid is a refinement of ``other``'s.

        Because the ladder doubles, this is simply "self is shorter or
        equal": every shorter ladder value divides every longer one.
        """
        return int(other) % int(self) == 0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_seconds(cls, seconds: float) -> "DrxCycle":
        """The ladder cycle of exactly ``seconds`` duration."""
        return cls(seconds_to_frames(seconds, strict=True))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DrxCycle({self.seconds:g}s)"


def v_on_ladder(frames: np.ndarray) -> np.ndarray:
    """Per-value ladder membership of the cycle lengths ``frames``.

    The vector form of :class:`DrxCycle`'s construction check (a power
    of two in ``[MIN_FRAMES, MAX_FRAMES]``): one pass over the values,
    no sort, a boolean array of their shape. Callers that reject a
    column raise through ``DrxCycle(first_bad_value)``, so the
    :class:`~repro.errors.LadderError` reads as for one cycle.
    """
    frames = np.asarray(frames, dtype=np.int64)
    on_ladder = np.bitwise_and(frames, frames - 1) == 0
    on_ladder &= frames >= DrxCycle.MIN_FRAMES
    on_ladder &= frames <= DrxCycle.MAX_FRAMES
    return on_ladder


def _ladder(lo: int, hi: int) -> Tuple[DrxCycle, ...]:
    values: List[DrxCycle] = []
    frames = lo
    while frames <= hi:
        values.append(DrxCycle(frames))
        frames *= 2
    return tuple(values)


#: Legacy LTE idle DRX values (0.32 s .. 2.56 s) - paper Sec. II-B.
LTE_DRX_LADDER = _ladder(32, 256)

#: NB-IoT idle-mode defaultPagingCycle values (1.28 s .. 10.24 s, TS 36.304).
NBIOT_IDLE_LADDER = _ladder(128, 1024)

#: eDRX values (20.48 s .. 10485.76 s = 175 min, GSMA LPWA / TS 36.304).
EDRX_LADDER = _ladder(2048, DrxCycle.MAX_FRAMES)

#: Every permitted cycle, ascending. Each entry is twice the previous one.
FULL_LADDER = _ladder(DrxCycle.MIN_FRAMES, DrxCycle.MAX_FRAMES)
