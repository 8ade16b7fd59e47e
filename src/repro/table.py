"""Value semantics shared by the frozen column tables.

A column table is a frozen dataclass whose compared fields are
equal-length NumPy columns: the fleet (:class:`~repro.devices.fleet.Fleet`)
and a plan's directives and transmissions
(:mod:`repro.core.plan`).
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np


def _canonical(column: np.ndarray) -> np.ndarray:
    """``column`` with one byte pattern per value equality sees as one.

    Float columns map -0.0 to 0.0 and every NaN to the same NaN, so
    tables that compare equal also hash equal.
    """
    if column.dtype.kind != "f":
        return column
    return np.where(np.isnan(column), np.nan, column + 0.0)


class ColumnTable:
    """Value semantics of a frozen column table.

    Tables compare and hash by the values of their compared fields (the
    columns; NaN equals NaN in float columns), and unpickle by re-running
    the constructor, so columns come back checked and read-only, without
    the lazy caches.
    """

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(
            np.array_equal(
                mine := getattr(self, f.name),
                getattr(other, f.name),
                equal_nan=mine.dtype.kind == "f",
            )
            for f in fields(self)
            if f.compare
        )

    def __hash__(self) -> int:
        columns = (getattr(self, f.name) for f in fields(self) if f.compare)
        return hash(tuple(_canonical(column).tobytes() for column in columns))

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))
