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
config and checks that its draw stayed finite. A loaded record keeps its
frames' objects as columns: one read-only ObjectColumns block per record,
and each frame's ``objects`` a LoadedObjects sequence over its rows, which
builds its ObjectObservations only when something iterates or indexes it
(``serialize`` and ``oracle_labels`` read its ``fields`` instead). The
frames of a generated scenario share one tuple of its static objects.

A Scenario also has one slot that is not data: ``window``, where ``model``
keeps the scenario's observed frames packed into arrays on its first
forward pass, with the relation of every edge the pass's graph mode
scores (the edges themselves follow from the object counts), so that
later passes of that mode skip the walk over frames and objects and
every relation. That first pass reads a loaded frame's objects from its
columns and walks any other frame's.
The loader and the generator hand out read-only feature arrays (the
loader's are row views of one (n, D) block per record, its pedestrians'
rows first), and that first pass makes a hand-built record's packed
feature arrays read-only, so a packed window cannot go stale behind a
frozen record: writing to one of those arrays raises. ``dataclasses.replace`` gives a record with an empty
window.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

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
_BY_INDEX = tuple(ObjectCategory)
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
    objects: Sequence[ObjectObservation]  # a tuple, or a loaded frame's LoadedObjects
    crossing_label: int


class ObjectColumns(NamedTuple):
    """A loaded record's objects as the read-only arrays its file holds, row for row.

    The M rows run frame by frame in file order; each frame's LoadedObjects
    names its rows. ``feats`` is the object part of the record's one
    (F + M, D) feature block, whose first F rows are its frames' pedestrian
    features.
    """

    boxes: np.ndarray  # (M, 4) [xmin, ymin, xmax, ymax] as written, not shifted by cam_dx
    feats: np.ndarray  # (M, D)
    categories: np.ndarray  # (M,) ObjectCategory.index
    cam_dx: np.ndarray  # (M,) camera_offset_x


class LoadedObjects(Sequence):
    """A loaded frame's objects: rows ``start:stop`` of its record's ObjectColumns, read-only.

    ``len`` reads no row, ``model`` packs the rows from the columns, and
    ``fields`` reads them as values. The first read of an object builds the
    frame's ObjectObservations from ``fields`` and keeps them, so the
    sequence reads as the tuple it stands for.
    """

    __slots__ = ("columns", "start", "stop", "_built")

    def __init__(self, columns: ObjectColumns, start: int, stop: int):
        self.columns, self.start, self.stop = columns, start, stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, index):
        return self._objects()[index]

    def __iter__(self):
        return iter(self._objects())

    def fields(self) -> list[tuple]:
        """Each object's (ObjectCategory, [xmin, ymin, xmax, ymax], feature row view, camera_offset_x), building no record."""
        c, rows = self.columns, slice(self.start, self.stop)
        return list(zip(map(_BY_INDEX.__getitem__, c.categories[rows].tolist()), c.boxes[rows].tolist(), c.feats[rows], c.cam_dx[rows].tolist()))

    def _objects(self) -> tuple[ObjectObservation, ...]:
        try:
            return self._built
        except AttributeError:
            self._built = tuple(ObjectObservation(c, BoundingBox(*box), feat, dx) for c, box, feat, dx in self.fields())
            return self._built


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
