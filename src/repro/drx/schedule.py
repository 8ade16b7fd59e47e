"""Exact integer paging-occasion schedules and vectorised window queries.

A device's POs form the arithmetic progression ``phase + k * period`` for
``k = 0, 1, 2, ...`` (frames). Every grouping decision in the paper is a
query against such progressions:

* *"does the device have a PO within [t - TI, t)?"* (DA-SC / DR-SI),
* *"which window of length TI contains the most POs of distinct
  devices?"* (DR-SC's greedy set cover),
* *"what is the device's last PO before t - TI?"* (DA-SC's adaptation
  point).

The ``v_*`` functions answer them for many devices at once, over
parallel ``phases``/``periods`` integer arrays (one entry per device);
the planners, plan validation, the executor and plan revision all
query through them.

All interval arguments are half-open ``[start, end)`` pairs of frames.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PagingError


def _as_int_arrays(phases: np.ndarray, periods: np.ndarray) -> tuple:
    phases = np.asarray(phases, dtype=np.int64)
    periods = np.asarray(periods, dtype=np.int64)
    if phases.shape != periods.shape:
        raise PagingError(
            f"phases {phases.shape} and periods {periods.shape} differ in shape"
        )
    if np.any(periods <= 0):
        raise PagingError("all periods must be positive")
    if np.any((phases < 0) | (phases >= periods)):
        raise PagingError("all phases must satisfy 0 <= phase < period")
    return phases, periods


def v_first_at_or_after(phases: np.ndarray, periods: np.ndarray, frame) -> np.ndarray:
    """Per-device frame of the first PO at or after ``frame``.

    ``frame`` is a scalar or one bound per device.
    """
    phases, periods = _as_int_arrays(phases, periods)
    k = np.maximum(0, -((phases - frame) // periods))
    return phases + k * periods


def v_last_before(phases: np.ndarray, periods: np.ndarray, frame) -> np.ndarray:
    """Per-device frame of the last PO strictly before ``frame``.

    ``frame`` is a scalar or one bound per device. Devices with no PO
    before their bound get ``-1``.
    """
    phases, periods = _as_int_arrays(phases, periods)
    k = (frame - 1 - phases) // periods
    return np.where(k < 0, -1, phases + k * periods)


def v_last_at_or_before(
    phases: np.ndarray, periods: np.ndarray, frames: np.ndarray
) -> np.ndarray:
    """Per-device frame of the last PO at or before ``frames[i]``.

    ``frames`` holds one bound per device (or a scalar for all of them).
    Devices with no PO at or before their bound get ``-1``.
    """
    return v_last_before(phases, periods, np.asarray(frames, np.int64) + 1)


def v_has_in(phases: np.ndarray, periods: np.ndarray, start: int, end: int) -> np.ndarray:
    """Per-device boolean: does any PO lie in ``[start, end)``?"""
    return v_count_in(phases, periods, start, end) > 0


def v_count_in(phases: np.ndarray, periods: np.ndarray, start, end) -> np.ndarray:
    """Per-device number of POs in ``[start, end)``.

    ``start`` and ``end`` are scalars or one bound per device; an empty
    interval counts zero (then ``k_hi < k_lo``).
    """
    phases, periods = _as_int_arrays(phases, periods)
    # In place, so a call holds two index arrays at a time (the
    # executor counts whole fleets).
    k_lo = np.subtract(phases, start)
    k_lo //= periods
    np.negative(k_lo, out=k_lo)
    np.maximum(k_lo, 0, out=k_lo)
    count = np.subtract(end, phases)
    count -= 1
    count //= periods  # k_hi, the index of the last PO before ``end``
    count -= k_lo
    count += 1
    return np.maximum(count, 0, out=count)


def v_pos_in_window(
    phases: np.ndarray, periods: np.ndarray, start: int, end: int
) -> tuple:
    """All (device index, PO frame) pairs with a PO in ``[start, end)``.

    Returns ``(device_indices, po_frames)``, both int64 arrays sorted by
    PO frame then device index. This is the raw material of the DR-SC
    sweep-line.
    """
    phases, periods = _as_int_arrays(phases, periods)
    if end <= start:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    firsts = v_first_at_or_after(phases, periods, start)
    counts = np.maximum(0, _ceil_div_array(end - firsts, periods))
    device_indices = np.repeat(np.arange(len(phases), dtype=np.int64), counts)
    if len(device_indices) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # Offsets 0..count-1 within each device's run, then PO frames.
    run_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    offsets = np.arange(len(device_indices), dtype=np.int64) - np.repeat(
        run_starts, counts
    )
    po_frames = firsts[device_indices] + offsets * periods[device_indices]
    order = np.lexsort((device_indices, po_frames))
    return device_indices[order], po_frames[order]


def _ceil_div_array(numerators: np.ndarray, denominators: np.ndarray) -> np.ndarray:
    """Elementwise ceiling division that is exact for negative numerators."""
    return -((-numerators) // denominators)
