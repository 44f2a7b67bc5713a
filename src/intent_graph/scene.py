"""Scene-level domain types.

Bounding boxes live in image-pixel coordinates with y growing downward.
The spatial relation of a target box to a source box (a scene object to the
pedestrian, or one object to another) is the 8-vector

    [dxmin, dymin, dxmax, dymax, dxc, dyc, w_union, h_union]

where every delta is target minus source and the union terms are the
width/height of the smallest box containing both, all in raw pixels.
``relation_rows`` computes a block of such rows at once; ``spatial_relation``
adds the check that every entry is finite. The model calls the kernel
once per record and graph mode, over every edge the mode scores, when it
packs the record's window, and makes that check itself on every pass, so
it can name the first frame whose relation overflowed.

The scene dataclasses are plain frozen records with slots: they check
nothing. ``data.load`` fills them from a file and owns every rule on a record
(see the ``data`` module docstring); the synthetic generator fills them from a
config and checks that its draw stayed finite. A loaded dataset holds one
instance per box, object and frame, and slots take about a tenth off its memory;
the frames of a generated scenario share one tuple of its static objects.

A Scenario also has one slot that is not data: ``window``, where ``model``
keeps the scenario's observed frames packed into arrays on its first
forward pass, with the relation of every edge the pass's graph mode
scores (the edges themselves follow from the object counts), so that
later passes of that mode skip the walk over frames and objects and
every relation.
The loader and the generator hand out read-only feature arrays (the
loader's are row views of one (n, D) block per record, its pedestrians'
rows first), and that first pass makes a hand-built record's packed
feature arrays read-only, so a packed window cannot go stale behind a
frozen record: writing to one of those arrays raises. ``dataclasses.replace`` gives a record with an empty
window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class ObjectCategory(Enum):
    """Closed category taxonomy for non-pedestrian scene objects."""

    BIKE = "bike"
    BUS = "bus"
    CAR = "car"
    CARAVAN = "caravan"
    MOTORCYCLE = "motorcycle"
    TRAILER = "trailer"
    TRUCK = "truck"
    OTHER_VEHICLE = "other_vehicle"
    BICYCLIST = "bicyclist"
    MOTORCYCLIST = "motorcyclist"
    OTHER_RIDER = "other_rider"
    CROSSWALK_PLAIN = "crosswalk_plain"
    CROSSWALK_ZEBRA = "crosswalk_zebra"
    TRAFFIC_LIGHT = "traffic_light"
    OTHER = "other"

    @classmethod
    def from_name(cls, name: str) -> "ObjectCategory":
        try:
            return cls(name)
        except ValueError:
            raise ValueError(f"unknown object category {name!r}") from None

    @property
    def index(self) -> int:
        """Stable position in declaration order, used for one-hot encoding."""
        return _CATEGORY_INDEX[self]


_CATEGORY_INDEX = {member: i for i, member in enumerate(ObjectCategory)}
CATEGORY_COUNT = len(ObjectCategory)

VEHICLE_CATEGORIES = frozenset(
    {
        ObjectCategory.BIKE,
        ObjectCategory.BUS,
        ObjectCategory.CAR,
        ObjectCategory.CARAVAN,
        ObjectCategory.MOTORCYCLE,
        ObjectCategory.TRAILER,
        ObjectCategory.TRUCK,
        ObjectCategory.OTHER_VEHICLE,
    }
)
RIDER_CATEGORIES = frozenset(
    {ObjectCategory.BICYCLIST, ObjectCategory.MOTORCYCLIST, ObjectCategory.OTHER_RIDER}
)
CROSSWALK_CATEGORIES = frozenset(
    {ObjectCategory.CROSSWALK_PLAIN, ObjectCategory.CROSSWALK_ZEBRA}
)


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned box; corners in pixels, xmin <= xmax and ymin <= ymax."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax))

    @property
    def bottom_center(self) -> tuple[float, float]:
        """Ground contact point: horizontal center of the bottom edge."""
        return (0.5 * (self.xmin + self.xmax), self.ymax)

    def shift_x(self, dx: float) -> "BoundingBox":
        """The same box translated horizontally by dx (camera alignment)."""
        return BoundingBox(self.xmin + dx, self.ymin, self.xmax + dx, self.ymax)

    def as_list(self) -> list[float]:
        return [self.xmin, self.ymin, self.xmax, self.ymax]


RELATION_OVERFLOW = "spatial_relation: non-finite entry"


def relation_rows(src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """The (M, 8) relations of (M, 4) or (1, 4) ``[xmin, ymin, xmax, ymax]`` boxes, a (1, 4) side shared by every row.

    Unchecked: finite boxes near the edge of the float range can overflow
    to a non-finite entry, which is left for the caller to find.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.concatenate(
            [
                tgt - src,
                0.5 * (tgt[:, :2] + tgt[:, 2:]) - 0.5 * (src[:, :2] + src[:, 2:]),
                np.maximum(src[:, 2:], tgt[:, 2:]) - np.minimum(src[:, :2], tgt[:, :2]),
            ],
            axis=1,
        )


def spatial_relation(src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """relation_rows(src, tgt), or ValueError(RELATION_OVERFLOW) when an entry is not finite."""
    rel = relation_rows(src, tgt)
    if not np.isfinite(rel).all():
        raise ValueError(RELATION_OVERFLOW)
    return rel


@dataclass(frozen=True, eq=False, slots=True)
class ObjectObservation:
    """One detected scene object in one frame."""

    category: ObjectCategory
    box: BoundingBox
    feature: np.ndarray
    camera_offset_x: float = 0.0

    def aligned_box(self) -> BoundingBox:
        """Box shifted into the reference camera frame by camera_offset_x."""
        if self.camera_offset_x == 0.0:
            return self.box
        return self.box.shift_x(self.camera_offset_x)


@dataclass(frozen=True, eq=False, slots=True)
class FrameObservation:
    """Pedestrian plus surrounding objects at one timestamp."""

    timestamp_index: int
    pedestrian_box: BoundingBox
    pedestrian_feature: np.ndarray
    objects: tuple[ObjectObservation, ...]
    crossing_label: int


@dataclass(frozen=True, eq=False, slots=True)
class Scenario:
    """A pedestrian track: consecutive frames at a fixed rate."""

    id: str
    frames: tuple[FrameObservation, ...]
    fps: float
    # model's packed observed window for one (T, graph_mode), what a pass of that mode reads; see model._Window
    window: tuple | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def feature_width(self) -> int:
        return int(self.frames[0].pedestrian_feature.size)

    def labels(self) -> list[int]:
        return [f.crossing_label for f in self.frames]
