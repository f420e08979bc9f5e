"""Basic planar geometry used by placement, routing and the attacks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Point:
    """A point in micrometres."""

    x: float
    y: float

    def translated(self, dx: float, dy: float) -> "Point":
        return Point(self.x + dx, self.y + dy)

    def as_tuple(self) -> Tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle (micrometres)."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError("degenerate rectangle: max < min")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)

    def contains(self, point: Point, tolerance: float = 1e-9) -> bool:
        return (
            self.x_min - tolerance <= point.x <= self.x_max + tolerance
            and self.y_min - tolerance <= point.y <= self.y_max + tolerance
        )

    def clamp(self, point: Point) -> Point:
        return Point(
            min(max(point.x, self.x_min), self.x_max),
            min(max(point.y, self.y_min), self.y_max),
        )

    def overlaps(self, other: "Rect") -> bool:
        return not (
            self.x_max <= other.x_min
            or other.x_max <= self.x_min
            or self.y_max <= other.y_min
            or other.y_max <= self.y_min
        )


def manhattan(a: Point, b: Point) -> float:
    """Manhattan (L1) distance between two points."""
    return abs(a.x - b.x) + abs(a.y - b.y)
