"""Categories, boxes, spatial relations, and the plain observation and scenario records."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intent_graph.scene import (
    CATEGORY_COUNT,
    CROSSWALK_CATEGORIES,
    RIDER_CATEGORIES,
    VEHICLE_CATEGORIES,
    BoundingBox,
    FrameObservation,
    ObjectCategory,
    ObjectObservation,
    Scenario,
    spatial_relation,
)

from reference_ops import category_one_hot

# Hand-derived reference: ped (10,20,30,60), obj (40,25,70,55).
# deltas object-minus-ped: corners (30,5,40,-5); centers (55,40)-(20,40)=(35,0);
# union box (10,20,70,60) so extent (60,40).
PED = BoundingBox(10, 20, 30, 60)
OBJ = BoundingBox(40, 25, 70, 55)
RELATION = [30.0, 5.0, 40.0, -5.0, 35.0, 0.0, 60.0, 40.0]


def test_category_taxonomy():
    assert CATEGORY_COUNT == 15
    assert len(VEHICLE_CATEGORIES) == 8
    assert len(RIDER_CATEGORIES) == 3
    assert len(CROSSWALK_CATEGORIES) == 2
    assert ObjectCategory.from_name("car") is ObjectCategory.CAR
    with pytest.raises(ValueError):
        ObjectCategory.from_name("pedestrian")
    one_hot = category_one_hot(ObjectCategory.BUS)
    assert one_hot.sum() == 1.0 and one_hot[ObjectCategory.BUS.index] == 1.0


def test_box_basics():
    assert PED.width == 20 and PED.height == 40
    assert PED.center == (20.0, 40.0)
    assert PED.bottom_center == (20.0, 60.0)
    assert PED.shift_x(5).as_list() == [15, 20, 35, 60]


def _rows(*boxes):
    return np.array([b.as_list() for b in boxes], dtype=np.float64).reshape(-1, 4)


def test_spatial_relation_frozen_vector():
    rel = spatial_relation(_rows(PED), _rows(OBJ))
    assert rel.dtype == np.float64
    assert rel.tolist() == [RELATION]


def _scalar_relation(src, tgt):
    """Straight-line reference for one row: target minus source, union extent."""
    sx0, sy0, sx1, sy1 = src
    tx0, ty0, tx1, ty1 = tgt
    return [
        tx0 - sx0,
        ty0 - sy0,
        tx1 - sx1,
        ty1 - sy1,
        0.5 * (tx0 + tx1) - 0.5 * (sx0 + sx1),
        0.5 * (ty0 + ty1) - 0.5 * (sy0 + sy1),
        max(sx1, tx1) - min(sx0, tx0),
        max(sy1, ty1) - min(sy0, ty0),
    ]


def test_relation_block_is_bytewise_the_scalar_rows():
    rng = np.random.default_rng(7)
    corner = rng.uniform(-2000.0, 2000.0, size=(9, 2))
    boxes = np.hstack([corner, corner + rng.uniform(0.5, 300.0, size=(9, 2))])
    center, objs = boxes[:1], boxes[1:]
    for m in (1, 2, 3, 8):
        got = spatial_relation(center, objs[:m])
        want = np.array([_scalar_relation(center[0].tolist(), row.tolist()) for row in objs[:m]])
        assert got.shape == (m, 8)
        assert got.tobytes() == want.tobytes()
    src, tgt = np.triu_indices(8, 1)
    got = spatial_relation(objs[src], objs[tgt])
    want = np.array([_scalar_relation(objs[i].tolist(), objs[j].tolist()) for i, j in zip(src, tgt)])
    assert got.shape == (28, 8)
    assert got.tobytes() == want.tobytes()
    assert spatial_relation(center, objs[:0]).shape == (0, 8)
    assert spatial_relation(objs[:0], objs[:0]).shape == (0, 8)


def test_relation_overflow_is_rejected():
    # both boxes are finite, but their corner difference exceeds the float range
    far_left = _rows(BoundingBox(-1.7e308, 0.0, -1.6e308, 1.0))
    far_right = _rows(BoundingBox(1.6e308, 0.0, 1.7e308, 1.0))
    with pytest.raises(ValueError, match="non-finite"):
        spatial_relation(far_left, far_right)


finite = st.floats(-1e4, 1e4, allow_nan=False)
extent = st.floats(1.0, 500.0, allow_nan=False)


def boxes():
    return st.builds(
        lambda x, y, w, h: BoundingBox(x, y, x + w, y + h), finite, finite, extent, extent
    )


DXMIN, DYMIN, DXMAX, DYMAX, DXC, DYC, W_UNION, H_UNION = range(8)


@settings(max_examples=60, deadline=None)
@given(boxes(), boxes())
def test_relation_center_deltas_antisymmetric(a, b):
    fwd = spatial_relation(_rows(a), _rows(b))[0]
    rev = spatial_relation(_rows(b), _rows(a))[0]
    assert fwd[DXC] == -rev[DXC] and fwd[DYC] == -rev[DYC]
    assert fwd[W_UNION] == rev[W_UNION] and fwd[H_UNION] == rev[H_UNION]


@settings(max_examples=60, deadline=None)
@given(boxes(), boxes(), st.floats(-500, 500, allow_nan=False))
def test_relation_translation_invariant(a, b, dx):
    base = spatial_relation(_rows(a), _rows(b))[0]
    moved = spatial_relation(_rows(a.shift_x(dx)), _rows(b.shift_x(dx)))[0]
    assert moved[DXC] == pytest.approx(base[DXC], abs=1e-9)
    assert moved[DXMIN] == pytest.approx(base[DXMIN], abs=1e-9)
    assert moved[W_UNION] == pytest.approx(base[W_UNION], abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(boxes(), boxes())
def test_union_extent_dominates_either_box(a, b):
    rel = spatial_relation(_rows(a), _rows(b))[0]
    assert rel[W_UNION] >= max(a.width, b.width)
    assert rel[H_UNION] >= max(a.height, b.height)


def test_relation_of_box_with_itself_is_zero_deltas():
    rel = spatial_relation(_rows(PED), _rows(PED))
    assert rel.tolist() == [[0, 0, 0, 0, 0, 0, PED.width, PED.height]]


# -- observations and scenarios ----------------------------------------------


def _frame(t, width=3, label=0, objects=()):
    return FrameObservation(
        timestamp_index=t,
        pedestrian_box=PED,
        pedestrian_feature=np.ones(width),
        objects=tuple(objects),
        crossing_label=label,
    )


def test_object_observation_validation():
    obs = ObjectObservation(ObjectCategory.CAR, OBJ, np.array([1.0]), camera_offset_x=-3.0)
    assert obs.aligned_box() == OBJ.shift_x(-3.0)
    zero = ObjectObservation(ObjectCategory.CAR, OBJ, np.array([1.0]))
    assert zero.aligned_box() is zero.box


def test_frame_label_validation():
    # the 0/1 rule belongs to data.load (the "label" rows of test_data.py); a frame keeps its label
    frames = (_frame(0, label=1), _frame(1, label=0))
    assert Scenario(id="s", frames=frames, fps=10.0).labels() == [1, 0]


def test_scenario_timestamp_and_width_validation():
    ok = Scenario(id="s", frames=(_frame(0), _frame(2), _frame(5)), fps=10.0)
    assert ok.feature_width == 3
    assert ok.labels() == [0, 0, 0]


def test_camera_offset_shifts_x_terms_by_exactly_the_offset():
    offset = -12.5
    obs = ObjectObservation(ObjectCategory.CAR, OBJ, np.ones(3), camera_offset_x=offset)
    base = spatial_relation(_rows(PED), _rows(OBJ))[0]
    moved = spatial_relation(_rows(PED), _rows(obs.aligned_box()))[0]
    for x_term in (DXMIN, DXMAX, DXC):
        assert moved[x_term] == base[x_term] + offset
    # y geometry is untouched by a horizontal alignment shift
    for y_term in (DYMIN, DYMAX, DYC, H_UNION):
        assert moved[y_term] == base[y_term]
