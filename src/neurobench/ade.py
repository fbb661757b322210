"""The (area, delay, energy) value object produced at every level of the hierarchy."""

from __future__ import annotations

import math
from dataclasses import dataclass

_INF = math.inf


@dataclass(frozen=True)
class AdeTriple:
    """One benchmark point: area in nm^2, delay in ps, energy in aJ.

    Addition is component-wise. Scaling is explicit per component via
    `scaled`; there is deliberately no scalar multiplication, because the
    model never scales all three components by one factor.
    """

    area: float
    delay: float
    energy: float

    def __post_init__(self):
        if not (0.0 <= self.area < _INF and 0.0 <= self.delay < _INF and 0.0 <= self.energy < _INF):  # also NaN
            for name in ("area", "delay", "energy"):
                v = getattr(self, name)
                if not 0.0 <= v < _INF:
                    raise ValueError(f"AdeTriple.{name} must be finite and >= 0, got {v!r}")

    def __add__(self, other: "AdeTriple") -> "AdeTriple":
        return AdeTriple(
            self.area + other.area,
            self.delay + other.delay,
            self.energy + other.energy,
        )

    def scaled(self, *, area: float = 1.0, delay: float = 1.0, energy: float = 1.0) -> "AdeTriple":
        """Return a copy with the chosen components scaled by positive ratios."""
        if area < 0 or delay < 0 or energy < 0:
            raise ValueError("scaling ratios must be non-negative")
        return AdeTriple(self.area * area, self.delay * delay, self.energy * energy)


ZERO = AdeTriple(0.0, 0.0, 0.0)
