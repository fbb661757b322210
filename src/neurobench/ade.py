"""The (area, delay, energy) value object produced at every level of the hierarchy."""

from __future__ import annotations

import math
from typing import NamedTuple

_INF = math.inf
_new = tuple.__new__


class FigureError(ValueError):
    """A figure the model cannot form from loaded data, such as one that
    overflows; its message names the figure, and the layer that knows the
    record (technology, chip or workload) adds its name."""


class _Ade(NamedTuple):
    area: float
    delay: float
    energy: float


class AdeTriple(_Ade):
    """One benchmark point: area in nm^2, delay in ps, energy in aJ.

    Every component is finite and >= 0; construction, `_make` and
    `_replace` all check it. Addition is component-wise. Scaling is explicit
    per component via `scaled`; there is deliberately no scalar
    multiplication, because the model never scales all three components by
    one factor.
    """

    __slots__ = ()

    def __new__(cls, area: float, delay: float, energy: float) -> "AdeTriple":
        if not (0.0 <= area < _INF and 0.0 <= delay < _INF and 0.0 <= energy < _INF):  # also NaN
            for name, v in zip(cls._fields, (area, delay, energy)):
                if not 0.0 <= v < _INF:
                    raise FigureError(f"AdeTriple.{name} must be finite and >= 0, got {v!r}")
        return _new(cls, (area, delay, energy))

    @classmethod
    def _make(cls, iterable) -> "AdeTriple":
        return cls(*iterable)

    def __add__(self, other: "AdeTriple") -> "AdeTriple":
        a, d, e = self
        oa, od, oe = other
        a, d, e = a + oa, d + od, e + oe
        if 0.0 <= a < _INF and 0.0 <= d < _INF and 0.0 <= e < _INF:  # the check of __new__, without its call
            return _new(AdeTriple, (a, d, e))
        return AdeTriple(a, d, e)  # raises, naming the component

    def __mul__(self, other):
        raise TypeError("AdeTriple has no scalar multiplication; use scaled()")

    __rmul__ = __mul__

    def scaled(self, *, area: float = 1.0, delay: float = 1.0, energy: float = 1.0) -> "AdeTriple":
        """Return a copy with the chosen components scaled by positive ratios."""
        if area < 0 or delay < 0 or energy < 0:
            raise ValueError("scaling ratios must be non-negative")
        a, d, e = self
        return AdeTriple(a * area, d * delay, e * energy)


ZERO = AdeTriple(0.0, 0.0, 0.0)
