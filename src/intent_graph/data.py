"""Line-delimited scenario files and the synthetic scenario generator.

File format: one JSON object per line,

    {"id": str, "fps": float, "frames": [
        {"t": int,
         "ped": {"box": [xmin, ymin, xmax, ymax], "feat": [...]},
         "objects": [{"cat": str, "box": [...], "feat": [...], "cam_dx": float}],
         "label": 0 | 1}]}

This module owns every rule on a record; the ``scene`` types it fills are
plain records that check nothing. ``load`` enforces:

  - the keys above, no more and no fewer (``cam_dx`` may be left out, 0.0);
  - the number rule: every number is a JSON int or float, finite, within the
    float range (``configs.finite_array``);
  - a box has 4 corners with xmin <= xmax and ymin <= ymax;
  - a feature is a non-empty array, and every feature in a file has one width;
  - a label is the integer 0 or 1 (not 1.0), ``t`` is an integer,
    ``fps > 0`` and ``frames`` is non-empty;
  - ``t`` increases strictly from frame to frame.

A broken rule raises FeatureWidthError for the width, TimestampOrderError for
the order and RecordParseError for the rest, each with the line number.

``load`` checks each decoded record in bulk first (``_bulk_record``): key
sets compared as sets, ``t`` and ``label`` as exact ints, one
``finite_array`` each over the record's boxes, features and ``cam_dx``
values, and the corner order on its (n, 4) block of boxes. The bulk check
never raises; a record it declines is walked field by field
(``_parse_record``), the one place that words a load error, so an error's
type, line and message do not depend on the bulk check.

Serialization is deterministic, so re-serializing a file that
``write_dataset`` wrote reproduces it byte for byte; another file comes back
in that canonical form (``"fps": 10`` reads back as ``10.0``, and a missing
``cam_dx`` as ``0.0``). ``generate_synthetic`` checks only that its draw is
finite and that each scenario found a draw clear of the label margins.
A generated scenario's frames share one tuple of its crosswalk and vehicles;
a loaded record holds one instance per object and frame.
Both hand out read-only feature arrays (a loaded record's are rows of one
(n, D) block): ``model`` packs a record's arrays once and keeps the packed
copy on the record (see ``scene``).

Synthetic scenarios and the labeling rule
-----------------------------------------
Each scenario contains one static crosswalk, parked vehicles, and one
pedestrian that walks toward the crosswalk, parallel to it, or stands
still. The per-frame crossing label is 1 iff all three hold:

  1. |dxc| < theta_x, where dxc = crosswalk_center_x - ped_center_x for the
     crosswalk nearest in |dxc| (no crosswalk means label 0), with
     theta_x = theta_x_frac * frame_width;
  2. the pedestrian's x velocity points toward that crosswalk: dxc * vx > 0,
     where vx is the difference of consecutive pedestrian box centers
     (frame 0 reuses the first forward difference; a one-frame scenario
     has vx = 0);
  3. no vehicle-category box center lies within theta_v pixels (Euclidean)
     of the pedestrian center, theta_v = theta_v_frac * frame_width.

The rule reads nothing but boxes, so ``oracle_labels`` can recompute every
label from a loaded file. Per-scenario RNG streams are derived from the
master seed with splitmix64, so generation is order-independent and
regenerating with the same config is byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .configs import ConfigError, check_int, check_real, finite_array, from_mapping, is_finite_real, to_plain_dict
from .scene import (
    CROSSWALK_CATEGORIES,
    VEHICLE_CATEGORIES,
    BoundingBox,
    FrameObservation,
    ObjectCategory,
    ObjectObservation,
    Scenario,
)


class SequenceFileError(Exception):
    """Base for data-file problems; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class RecordParseError(SequenceFileError):
    """A record is not valid JSON or violates the schema."""


class FeatureWidthError(SequenceFileError):
    """Feature vectors change width within a file or record."""


class TimestampOrderError(SequenceFileError):
    """Frame timestamps fail to increase strictly."""


def _require(condition: bool, message: str, line: int, kind=RecordParseError):
    if not condition:
        raise kind(message, line)


def _check_keys(obj: dict, required: set[str], optional: set[str], what: str, line: int):
    _require(isinstance(obj, dict), f"{what} must be an object", line)
    missing = required - set(obj)
    _require(not missing, f"{what} missing key(s) {sorted(missing)}", line)
    unknown = set(obj) - required - optional
    _require(not unknown, f"{what} has unknown key(s) {sorted(unknown)}", line)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)  # a quarter of the cost of assigning arr.flags.writeable
    return arr


def _numbers(value, what: str, line: int) -> np.ndarray:
    _require(isinstance(value, list), f"{what} must be an array", line)
    arr = finite_array(value)
    if arr is None:
        bad = next(v for v in value if not is_finite_real(v))
        raise RecordParseError(f"{what} must be a finite number, got {bad!r}", line)
    return arr


def _box(value, what: str, line: int) -> BoundingBox:
    corners = _numbers(value, what, line)
    _require(corners.size == 4, f"{what} must have 4 entries, got {corners.size}", line)
    xmin, ymin, xmax, ymax = corners.tolist()
    _require(xmin <= xmax and ymin <= ymax, f"{what}: degenerate box: ({xmin}, {ymin}, {xmax}, {ymax})", line)
    return BoundingBox(xmin, ymin, xmax, ymax)


_RECORD_KEYS = {"id", "fps", "frames"}
_FRAME_KEYS = {"t", "ped", "objects", "label"}
_PED_KEYS = {"box", "feat"}
_OBJECT_KEYS = {"cat", "box", "feat"}  # and the optional "cam_dx"
_OBJECT_KEY_SETS = (_OBJECT_KEYS, _OBJECT_KEYS | {"cam_dx"})
_CATEGORIES = {c.value: c for c in ObjectCategory}


def _parse_frame(obj, line: int, width: list[int | None]) -> FrameObservation:
    _check_keys(obj, _FRAME_KEYS, set(), "frame", line)
    t = obj["t"]
    _require(isinstance(t, int) and not isinstance(t, bool), f"t must be an integer, got {t!r}", line)
    label = obj["label"]
    _require(type(label) is int and label in (0, 1), f"label must be 0 or 1, got {label!r}", line)

    def feature(value, what: str) -> np.ndarray:
        feat = _numbers(value, what, line)
        _require(feat.size > 0, f"{what} must be a non-empty array", line)
        width[0] = width[0] or feat.size
        if feat.size != width[0]:
            raise FeatureWidthError(f"{what} has width {feat.size}, file uses width {width[0]}", line)
        return _read_only(feat)

    ped = obj["ped"]
    _check_keys(ped, _PED_KEYS, set(), "ped", line)
    ped_box = _box(ped["box"], "ped.box", line)
    ped_feat = feature(ped["feat"], "ped.feat")

    objects = obj["objects"]
    _require(isinstance(objects, list), "objects must be an array", line)
    for entry in objects:
        _check_keys(entry, _OBJECT_KEYS, {"cam_dx"}, "object", line)
    cam_dx = _numbers([entry.get("cam_dx", 0.0) for entry in objects], "cam_dx", line).tolist()
    parsed = []
    for entry, dx in zip(objects, cam_dx):
        try:
            category = ObjectCategory.from_name(entry["cat"])
        except ValueError as exc:
            raise RecordParseError(str(exc), line) from exc
        parsed.append(
            ObjectObservation(
                category=category,
                box=_box(entry["box"], "object box", line),
                feature=feature(entry["feat"], "object feat"),
                camera_offset_x=dx,
            )
        )
    return FrameObservation(
        timestamp_index=t,
        pedestrian_box=ped_box,
        pedestrian_feature=ped_feat,
        objects=tuple(parsed),
        crossing_label=label,
    )


def _parse_record(obj, line: int, width: list[int | None]) -> Scenario:
    """The decoded record, walked field by field: the one place that words a load error."""
    _check_keys(obj, _RECORD_KEYS, set(), "record", line)
    _require(isinstance(obj["id"], str) and obj["id"], "id must be a non-empty string", line)
    [fps] = _numbers([obj["fps"]], "fps", line).tolist()
    frames_raw = obj["frames"]
    _require(isinstance(frames_raw, list), "frames must be an array", line)

    frames = [_parse_frame(f, line, width) for f in frames_raw]
    for prev, frame in zip(frames, frames[1:]):
        t0, t1 = prev.timestamp_index, frame.timestamp_index
        _require(t0 < t1, f"timestamps must increase strictly ({t0} then {t1})", line, TimestampOrderError)
    _require(frames, f"scenario {obj['id']!r} has no frames", line)
    _require(fps > 0, f"scenario {obj['id']!r}: fps must be positive, got {fps!r}", line)
    return Scenario(id=obj["id"], frames=tuple(frames), fps=fps)


def _only(values, kind: type) -> bool:
    """True when every entry of ``values`` is exactly of type ``kind``."""
    return set(map(type, values)) <= {kind}


def _bulk_record(obj, width: list[int | None]) -> Scenario | None:
    """The decoded record as _parse_record builds it, or None where the walk must look at it.

    The same rules, checked a kind at a time over the whole record: key sets
    compared as sets, one finite_array each over its boxes, its features and
    its cam_dx values, and the corner order on the (n, 4) block of boxes.
    Features are read-only rows of one (n, D) block, pedestrians' first.
    Never raises: a record it declines may still be valid, and the walk
    decides.
    """
    if type(obj) is not dict or obj.keys() != _RECORD_KEYS:
        return None
    rid, fps, frames = obj["id"], obj["fps"], obj["frames"]
    if type(rid) is not str or not rid or type(frames) is not list or not frames:
        return None
    if not _only(frames, dict) or any(f.keys() != _FRAME_KEYS for f in frames):
        return None
    ts = [f["t"] for f in frames]
    labels = [f["label"] for f in frames]
    peds = [f["ped"] for f in frames]
    per_frame = [f["objects"] for f in frames]
    if not (_only(ts, int) and all(map(int.__lt__, ts, ts[1:])) and _only(labels, int) and set(labels) <= {0, 1}):
        return None
    if not _only(peds, dict) or any(p.keys() != _PED_KEYS for p in peds) or not _only(per_frame, list):
        return None
    objects = list(chain.from_iterable(per_frame))
    if not _only(objects, dict) or not all(o.keys() in _OBJECT_KEY_SETS for o in objects):
        return None
    names = [o["cat"] for o in objects]
    if not _only(names, str):
        return None
    categories = list(map(_CATEGORIES.get, names))
    if None in categories:
        return None
    boxes = [p["box"] for p in peds] + [o["box"] for o in objects]
    feats = [p["feat"] for p in peds] + [o["feat"] for o in objects]
    if not (_only(boxes, list) and set(map(len, boxes)) == {4} and _only(feats, list)):
        return None
    lengths = set(map(len, feats))
    d = lengths.pop()
    if lengths or not d or width[0] not in (None, d):
        return None
    corners = finite_array(list(chain.from_iterable(boxes)))
    values = finite_array(list(chain.from_iterable(feats)))
    cam_dx = finite_array([o.get("cam_dx", 0.0) for o in objects])
    rate = finite_array([fps])
    if corners is None or values is None or cam_dx is None or rate is None or not rate[0] > 0:
        return None
    corners = corners.reshape(-1, 4)
    if not (corners[:, :2] <= corners[:, 2:]).all():
        return None

    width[0] = d
    n_frames = len(frames)
    box_list = list(map(BoundingBox, *corners.T.tolist()))
    rows = list(_read_only(values).reshape(-1, d))
    observations = map(ObjectObservation, categories, box_list[n_frames:], rows[n_frames:], cam_dx.tolist())
    return Scenario(
        id=rid,
        frames=tuple(
            map(
                FrameObservation,
                ts,
                box_list[:n_frames],
                rows[:n_frames],
                [tuple(islice(observations, len(entries))) for entries in per_frame],
                labels,
            )
        ),
        fps=rate.item(),
    )


def load(path, min_frames: int | None = None) -> list[Scenario]:
    """Read scenarios; optionally require at least min_frames frames each."""
    scenarios: list[Scenario] = []
    width: list[int | None] = [None]
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
                raise RecordParseError(f"invalid JSON: {exc}", line_no) from exc
            scenario = _bulk_record(obj, width) or _parse_record(obj, line_no, width)
            if min_frames is not None and len(scenario.frames) < min_frames:
                raise RecordParseError(
                    f"scenario {scenario.id!r} has {len(scenario.frames)} frames, "
                    f"need at least {min_frames}",
                    line_no,
                )
            scenarios.append(scenario)
    return scenarios


def scenario_to_record(s: Scenario) -> dict:
    return {
        "id": s.id,
        "fps": s.fps,
        "frames": [
            {
                "t": f.timestamp_index,
                "ped": {"box": f.pedestrian_box.as_list(), "feat": f.pedestrian_feature.tolist()},
                "objects": [
                    {
                        "cat": o.category.value,
                        "box": o.box.as_list(),
                        "feat": o.feature.tolist(),
                        "cam_dx": o.camera_offset_x,
                    }
                    for o in f.objects
                ],
                "label": f.crossing_label,
            }
            for f in s.frames
        ],
    }


def serialize(scenarios: Sequence[Scenario]) -> str:
    return "".join(json.dumps(scenario_to_record(s), separators=(",", ":")) + "\n" for s in scenarios)


def write_text_atomic(path, text: str) -> None:
    """Replace ``path`` with ``text`` so readers see the old file or the new one.

    The text goes to a temporary file in the same directory, is flushed to
    disk, and is renamed over ``path``. If any step fails the temporary file
    is removed and an existing file at ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_dataset(path, scenarios: Sequence[Scenario], config: "SynthConfig | None" = None) -> None:
    """Write scenarios as JSONL; with a config, also drop a provenance sidecar."""
    write_text_atomic(path, serialize(scenarios))
    if config is not None:
        sidecar = {
            "format": "sequence-jsonl-v1",
            "count": len(scenarios),
            "generator": config.to_dict(),
        }
        write_text_atomic(str(path) + ".meta.json", json.dumps(sidecar, indent=2) + "\n")


_MASK64 = (1 << 64) - 1


def splitmix64(seed: int, index: int) -> int:
    """Derive the ``index``-th independent 64-bit stream seed from ``seed``.

    Standard splitmix64 finalizer applied to seed + index * golden-gamma, all
    modulo 2**64; documented so external tooling can reproduce any single
    scenario without generating the ones before it.
    """
    z = (seed + index * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1EE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


# Walker-kind mix (toward / parallel / still) and feature-projection tags.
_TOWARD_PROB = 0.7
_PARALLEL_PROB = 0.15
_OBJ_PROJ_TAG = 0x0BEC7
_PED_PROJ_TAG = 0x9ED


@dataclass(frozen=True)
class SynthConfig:
    """Geometry and size of a synthetic draw; lengths are pixels, px/frame.

    Sizes are capped at 100,000 scenarios, 1,000 frames per scenario, D = 4,096
    and 100 vehicles per frame, so that a typo such as D = 2**62 is a config
    error instead of a failed allocation or a draw that never ends.
    """

    n_scenarios: int = 32
    frames_per_scenario: int = 16
    D: int = 16
    seed: int = 0
    frame_width: float = 1280.0
    frame_height: float = 720.0
    fps: float = 10.0
    crosswalk_center_range: tuple[float, float] = (0.3, 0.7)
    vehicle_count_range: tuple[int, int] = (0, 3)
    ped_speed_range: tuple[float, float] = (3.0, 14.0)
    theta_x_frac: float = 0.15
    theta_v_frac: float = 0.10

    def __post_init__(self):
        object.__setattr__(self, "crosswalk_center_range", tuple(self.crosswalk_center_range))
        object.__setattr__(self, "vehicle_count_range", tuple(self.vehicle_count_range))
        object.__setattr__(self, "ped_speed_range", tuple(self.ped_speed_range))
        for name, minimum, maximum in (
            ("n_scenarios", 1, 100_000), ("frames_per_scenario", 2, 1_000), ("D", 1, 4_096), ("seed", 0, None)
        ):
            check_int(name, getattr(self, name), minimum, maximum)
        for name in ("frame_width", "frame_height", "fps"):
            check_real(name, getattr(self, name), 0)
        lo, hi = self.crosswalk_center_range
        if not (is_finite_real(lo) and is_finite_real(hi) and 0 <= lo <= hi <= 1):
            raise ConfigError(f"crosswalk_center_range must satisfy 0 <= lo <= hi <= 1, got {self.crosswalk_center_range}")
        vlo, vhi = self.vehicle_count_range
        check_int("vehicle_count_range lo", vlo, 0, 100)
        check_int("vehicle_count_range hi", vhi, vlo, 100)
        slo, shi = self.ped_speed_range
        check_real("ped_speed_range lo", slo, 0)
        check_real("ped_speed_range hi", shi, slo, include_low=True)
        for name in ("theta_x_frac", "theta_v_frac"):
            check_real(name, getattr(self, name), 0, 1)

    @classmethod
    def from_dict(cls, mapping: Mapping) -> "SynthConfig":
        return from_mapping(cls, mapping, where="synth.")

    def to_dict(self) -> dict:
        return to_plain_dict(self)


def oracle_thresholds(cfg: SynthConfig) -> tuple[float, float]:
    return cfg.theta_x_frac * cfg.frame_width, cfg.theta_v_frac * cfg.frame_width


def _ped_x_velocities(frames: Sequence[FrameObservation]) -> list[float]:
    centers = [f.pedestrian_box.center[0] for f in frames]
    if len(centers) == 1:
        return [0.0]
    diffs = [centers[i] - centers[i - 1] for i in range(1, len(centers))]
    return [diffs[0], *diffs]


def oracle_labels(scenario: Scenario, theta_x: float, theta_v: float) -> list[int]:
    """Recompute every crossing label from boxes alone (see module docstring)."""
    velocities = _ped_x_velocities(scenario.frames)
    labels = []
    for frame, vx in zip(scenario.frames, velocities):
        pcx, pcy = frame.pedestrian_box.center
        crosswalk_dxc = None
        for obj in frame.objects:
            if obj.category in CROSSWALK_CATEGORIES:
                dxc = obj.aligned_box().center[0] - pcx
                if crosswalk_dxc is None or abs(dxc) < abs(crosswalk_dxc):
                    crosswalk_dxc = dxc
        if crosswalk_dxc is None or not (abs(crosswalk_dxc) < theta_x and crosswalk_dxc * vx > 0):
            labels.append(0)
            continue
        blocked = False
        for obj in frame.objects:
            if obj.category in VEHICLE_CATEGORIES:
                ocx, ocy = obj.aligned_box().center
                if math.hypot(ocx - pcx, ocy - pcy) < theta_v:
                    blocked = True
                    break
        labels.append(0 if blocked else 1)
    return labels


_VEHICLE_CHOICES = tuple(sorted(VEHICLE_CATEGORIES, key=lambda c: c.value))
_DESCRIPTOR_LEN = 8


def _embedding(cfg: SynthConfig, tag: int) -> np.ndarray:
    """Fixed dataset-wide linear embedding of 8-dim descriptors into R^D.

    For D >= 8 the descriptor occupies the leading coordinates unchanged
    (zero padding); smaller D falls back to a seeded random projection so
    tiny desk-scale configs still work.
    """
    if cfg.D >= _DESCRIPTOR_LEN:
        e = np.zeros((_DESCRIPTOR_LEN, cfg.D))
        e[:, :_DESCRIPTOR_LEN] = np.eye(_DESCRIPTOR_LEN)
        return e
    rng = np.random.default_rng(splitmix64(cfg.seed, tag))
    return rng.standard_normal((_DESCRIPTOR_LEN, cfg.D)) / math.sqrt(_DESCRIPTOR_LEN)


def _object_feature(cfg: SynthConfig, p_obj: np.ndarray, category: ObjectCategory, box: BoundingBox) -> np.ndarray:
    cx, cy = box.center
    desc = np.array(
        [
            1.0 if category in CROSSWALK_CATEGORIES else 0.0,
            1.0 if category in VEHICLE_CATEGORIES else 0.0,
            cx / cfg.frame_width,
            cy / cfg.frame_height,
            box.width / cfg.frame_width,
            box.height / cfg.frame_height,
            category.index / len(ObjectCategory),
            1.0,
        ]
    )
    return _read_only(desc @ p_obj)


def _ped_feature(cfg: SynthConfig, p_ped: np.ndarray, box: BoundingBox, vx: float, vy: float) -> np.ndarray:
    v_ref = cfg.ped_speed_range[1]
    cx, cy = box.center
    desc = np.array(
        [
            cx / cfg.frame_width,
            cy / cfg.frame_height,
            box.width / cfg.frame_width,
            box.height / cfg.frame_height,
            vx / v_ref,
            vy / v_ref,
            box.bottom_center[1] / cfg.frame_height,
            1.0,
        ]
    )
    return _read_only(desc @ p_ped)


def _box_at(cx: float, cy: float, w: float, h: float) -> BoundingBox:
    return BoundingBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def _margins_ok(cfg: SynthConfig, cw_cx, vehicles, pcx, pcy, vx, vy) -> bool:
    """Reject draws whose labels hinge on near-threshold geometry.

    Every frame must sit decisively on one side of each oracle clause:
    |dxc| clear of theta_x, dxc clear of zero (approach sign), and vehicle
    distance clear of theta_v. Without this, held-out labels flip on
    sub-pixel differences no model could resolve.
    """
    theta_x, theta_v = oracle_thresholds(cfg)
    m_zero = 0.01 * cfg.frame_width
    m_near = 0.02 * cfg.frame_width
    m_veh = 0.03 * cfg.frame_width
    for t in range(cfg.frames_per_scenario):
        dxc = cw_cx - (pcx + t * vx)
        if abs(dxc) < m_zero and vx != 0.0:
            return False
        if abs(abs(dxc) - theta_x) < m_near:
            return False
        py = pcy + t * vy
        for _, _, vcx, vcy in vehicles:
            if abs(math.hypot(vcx - (pcx + t * vx), vcy - py) - theta_v) < m_veh:
                return False
    return True


def _generate_one(cfg: SynthConfig, index: int, p_obj: np.ndarray, p_ped: np.ndarray) -> Scenario:
    rng = np.random.default_rng(splitmix64(cfg.seed, index + 1))
    w_frame, h_frame = cfg.frame_width, cfg.frame_height
    theta_x, theta_v = oracle_thresholds(cfg)
    slo, shi = cfg.ped_speed_range
    lo, hi = cfg.crosswalk_center_range
    vlo, vhi = cfg.vehicle_count_range

    # Redraw the whole scene until no label sits on a knife edge; the loop is
    # part of the seeded stream, so generation stays deterministic.
    for _ in range(200):
        cw_cat = ObjectCategory.CROSSWALK_ZEBRA if rng.random() < 0.5 else ObjectCategory.CROSSWALK_PLAIN
        cw_cx = rng.uniform(lo, hi) * w_frame
        cw_w = 0.22 * w_frame
        cw_ymin = 0.66 * h_frame
        cw_box = BoundingBox(cw_cx - cw_w / 2, cw_ymin, cw_cx + cw_w / 2, cw_ymin + 0.08 * h_frame)

        # Vehicles: parked, so future occlusion is inferable from any one frame.
        n_veh = int(rng.integers(vlo, vhi + 1))
        vehicles = []
        for _ in range(n_veh):
            cat = _VEHICLE_CHOICES[int(rng.integers(0, len(_VEHICLE_CHOICES)))]
            vw = rng.uniform(0.10, 0.16) * w_frame
            vcx = rng.uniform(0.0, 1.0) * w_frame
            vcy = rng.uniform(0.55, 0.75) * h_frame
            vehicles.append((cat, vw, vcx, vcy))

        # Pedestrian: toward the crosswalk, parallel to it, or standing still.
        pw = 0.03 * w_frame
        ph = 0.17 * h_frame
        pcy = rng.uniform(0.70, 0.85) * h_frame - ph / 2
        kind = rng.random()
        if kind < _TOWARD_PROB:
            side = -1.0 if rng.random() < 0.5 else 1.0
            pcx = cw_cx + side * rng.uniform(0.04, 0.18) * w_frame
            vx = -side * rng.uniform(slo, shi)
            vy = 0.0
        elif kind < _TOWARD_PROB + _PARALLEL_PROB:
            pcx = rng.uniform(0.1, 0.9) * w_frame
            vx = 0.0
            vy = rng.uniform(slo, shi) / 2 * (1.0 if rng.random() < 0.5 else -1.0)
        else:
            pcx = rng.uniform(0.1, 0.9) * w_frame
            vx = 0.0
            vy = 0.0
        if _margins_ok(cfg, cw_cx, vehicles, pcx, pcy, vx, vy):
            break
    else:
        raise ValueError(
            f"synthetic scenario {index}: none of 200 draws kept every label clear of its threshold margins "
            f"(vehicle_count_range {cfg.vehicle_count_range})"
        )

    # The crosswalk and the parked vehicles are the same instances in every frame.
    boxes = [(cw_cat, cw_box)] + [(cat, _box_at(vcx, vcy, vw, 0.16 * h_frame)) for cat, vw, vcx, vcy in vehicles]
    objects = tuple(ObjectObservation(category=c, box=b, feature=_object_feature(cfg, p_obj, c, b)) for c, b in boxes)
    vehicle_centers = [b.center for _, b in boxes[1:]]
    frames = []
    for t in range(cfg.frames_per_scenario):
        ped_box = _box_at(pcx + t * vx, pcy + t * vy, pw, ph)

        # Label straight from the rule; vx here is the true walker velocity.
        pcx_t, pcy_t = ped_box.center
        dxc = cw_box.center[0] - pcx_t
        near = abs(dxc) < theta_x
        toward = dxc * vx > 0
        clear = all(math.hypot(ocx - pcx_t, ocy - pcy_t) >= theta_v for ocx, ocy in vehicle_centers)
        label = 1 if (near and toward and clear) else 0

        frames.append(
            FrameObservation(
                timestamp_index=t,
                pedestrian_box=ped_box,
                pedestrian_feature=_ped_feature(cfg, p_ped, ped_box, vx, vy),
                objects=objects,
                crossing_label=label,
            )
        )
    return Scenario(id=f"synth-{cfg.seed}-{index:05d}", frames=tuple(frames), fps=cfg.fps)


def _require_finite_draw(scenario: Scenario) -> Scenario:
    """Raise ValueError if a config at the float range's edge drew a non-finite box or feature."""
    frames = scenario.frames
    # each distinct objects tuple once: a generated scenario's frames share one
    objects = [o for scene in {id(f.objects): f.objects for f in frames}.values() for o in scene]
    boxes = np.array([b.as_list() for b in (*(f.pedestrian_box for f in frames), *(o.box for o in objects))])
    feats = np.array([*(f.pedestrian_feature for f in frames), *(o.feature for o in objects)])
    if not (np.isfinite(boxes).all() and np.isfinite(feats).all()):
        raise ValueError(f"scenario {scenario.id!r}: non-finite box or feature; the synth geometry overflows")
    return scenario


def generate_synthetic(cfg: SynthConfig) -> list[Scenario]:
    """Draw cfg.n_scenarios labeled scenarios (see module docstring).

    ValueError if a draw overflows, or if 200 draws of one scenario all put
    a label within its margin of a threshold (a crowded vehicle_count_range).
    """
    p_obj = _embedding(cfg, _OBJ_PROJ_TAG)
    p_ped = _embedding(cfg, _PED_PROJ_TAG)
    return [_require_finite_draw(_generate_one(cfg, i, p_obj, p_ped)) for i in range(cfg.n_scenarios)]


def label_prevalence(scenarios: Sequence[Scenario]) -> float:
    """Fraction of positive labels over every frame of every scenario."""
    total = sum(len(s.frames) for s in scenarios)
    positive = sum(f.crossing_label for s in scenarios for f in s.frames)
    return positive / total if total else 0.0


def split(dataset: Sequence[Scenario], train_fraction: float, seed: int) -> tuple[list[Scenario], list[Scenario]]:
    """Seeded shuffle then disjoint, exhaustive split by scenario."""
    if not (0.0 <= train_fraction <= 1.0):
        raise ValueError(f"train_fraction must lie in [0, 1], got {train_fraction}")
    order = np.random.default_rng(seed).permutation(len(dataset))
    cut = int(math.floor(train_fraction * len(dataset)))
    train = [dataset[int(i)] for i in order[:cut]]
    test = [dataset[int(i)] for i in order[cut:]]
    return train, test
