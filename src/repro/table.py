"""Value semantics shared by the frozen column tables.

A column table is a frozen dataclass whose compared fields are NumPy
columns, plus any scalars that describe the whole table: the fleet
(:class:`~repro.devices.fleet.Fleet`), a plan's directives and
transmissions (:mod:`repro.core.plan`) and a campaign's outcomes
(:class:`~repro.sim.metrics.CampaignResult`).
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


def _same(mine: object, theirs: object) -> bool:
    if not isinstance(mine, np.ndarray):
        return bool(mine == theirs)
    return np.array_equal(mine, theirs, equal_nan=mine.dtype.kind == "f")


class ColumnTable:
    """Value semantics of a frozen column table.

    Tables compare by the values of their compared fields (columns by
    value, NaN equal to NaN in float columns; scalar fields with
    ``==``) and hash by their columns, so equal tables hash equal. They
    unpickle by re-running the constructor, so columns come back
    checked and read-only, without the lazy caches.
    """

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(
            _same(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
            if f.compare
        )

    def __hash__(self) -> int:
        values = (getattr(self, f.name) for f in fields(self) if f.compare)
        columns = (value for value in values if isinstance(value, np.ndarray))
        return hash(tuple(_canonical(column).tobytes() for column in columns))

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))
