"""Scenario file IO, the synthetic generator, and the two-route labeling check."""

import dataclasses
import hashlib
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intent_graph import data as data_module
from intent_graph.configs import ConfigError
from intent_graph.model import ModelConfig, init_parameters, save_checkpoint
from intent_graph.data import (
    FeatureWidthError,
    RecordParseError,
    SequenceFileError,
    SynthConfig,
    TimestampOrderError,
    generate_synthetic,
    label_prevalence,
    load,
    oracle_labels,
    oracle_thresholds,
    scenario_to_record,
    serialize,
    split,
    splitmix64,
    write_dataset,
)
from intent_graph.scene import (
    BoundingBox,
    FrameObservation,
    ObjectCategory,
    ObjectObservation,
    Scenario,
)


def _record(**overrides):
    base = {
        "id": "s-1",
        "fps": 10.0,
        "frames": [
            {
                "t": 0,
                "ped": {"box": [0.0, 0.0, 10.0, 20.0], "feat": [1.0, 2.0]},
                "objects": [
                    {
                        "cat": "car",
                        "box": [30.0, 0.0, 60.0, 15.0],
                        "feat": [0.5, -0.5],
                        "cam_dx": 1.5,
                    }
                ],
                "label": 0,
            }
        ],
    }
    base.update(overrides)
    return base


def _set(path: str, value):
    """A mutation that sets the entry at dotted ``path`` of a record; digits index lists."""

    def mutate(rec):
        *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]
        for key in parents:
            rec = rec[key]
        rec[last] = value

    return mutate


def _raw(literal: str) -> str:
    """A placeholder that the malformed-record test writes as the bare JSON text ``literal``."""
    return f"raw:{literal}"


def _write(tmp_path, lines):
    path = tmp_path / "data.jsonl"
    path.write_text("".join(json.dumps(l) + "\n" for l in lines), encoding="utf-8")
    return path


def test_load_roundtrip_and_cam_dx(tmp_path):
    path = _write(tmp_path, [_record()])
    [scenario] = load(path)
    assert scenario.id == "s-1"
    assert scenario.frames[0].objects[0].camera_offset_x == 1.5
    assert scenario.frames[0].objects[0].aligned_box().xmin == 31.5


def test_cam_dx_defaults_to_zero(tmp_path):
    rec = _record()
    del rec["frames"][0]["objects"][0]["cam_dx"]
    [scenario] = load(_write(tmp_path, [rec]))
    assert scenario.frames[0].objects[0].camera_offset_x == 0.0


def test_serialize_then_load_is_byte_identical(tmp_path):
    cfg = SynthConfig(n_scenarios=4, frames_per_scenario=5, D=6, seed=9)
    scenarios = generate_synthetic(cfg)
    text = serialize(scenarios)
    path = tmp_path / "x.jsonl"
    path.write_text(text, encoding="utf-8")
    loaded = load(path)
    assert serialize(loaded) == text
    for frame in (f for s in loaded for f in s.frames):
        assert frame.pedestrian_feature.dtype == np.float64
        assert all(o.feature.dtype == np.float64 for o in frame.objects)


def _features(scenarios):
    return [x for s in scenarios for f in s.frames for x in (f.pedestrian_feature, *(o.feature for o in f.objects))]


def test_loaded_and_generated_features_are_read_only(tmp_path):
    # the model keeps a packed copy of a record's arrays, which a write would leave stale
    generated = generate_synthetic(SynthConfig(n_scenarios=3, frames_per_scenario=4, D=6, seed=2))
    path = tmp_path / "x.jsonl"
    text = serialize(generated)
    path.write_text(text, encoding="utf-8")
    loaded = load(path)
    for scenarios in (generated, loaded):
        features = _features(scenarios)
        assert features and not any(x.flags.writeable for x in features)
        with pytest.raises(ValueError, match="read-only"):
            scenarios[0].frames[0].pedestrian_feature[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            scenarios[0].frames[1].objects[0].feature[:] = 0.0
    assert serialize(loaded) == text
    assert path.read_text(encoding="utf-8") == text


MALFORMED = [
    (lambda r: r["frames"][0].__setitem__("label", 2), RecordParseError, "label"),
    (lambda r: r["frames"][0].__setitem__("label", True), RecordParseError, "label"),
    pytest.param(_set("frames.0.label", 1.0), RecordParseError, "label must be 0 or 1, got 1.0", id="label-float-one"),
    pytest.param(_set("frames.0.label", 0.0), RecordParseError, "label must be 0 or 1, got 0.0", id="label-float-zero"),
    (lambda r: r["frames"][0].__setitem__("extra", 1), RecordParseError, "unknown key"),
    (lambda r: r.__setitem__("bogus", 1), RecordParseError, "unknown key"),
    (lambda r: r["frames"][0]["objects"][0].__setitem__("cat", "zeppelin"), RecordParseError, "category"),
    (lambda r: r["frames"][0]["ped"]["box"].__setitem__(2, -5.0), RecordParseError, "degenerate"),
    (lambda r: r["frames"][0]["ped"].__setitem__("box", [1.0, 2.0]), RecordParseError, "4 entries"),
    (lambda r: r.__setitem__("fps", 0), RecordParseError, "fps"),
    (lambda r: r.__setitem__("frames", []), RecordParseError, "frames"),
    (lambda r: r["frames"][0].__setitem__("t", 1.5), RecordParseError, "integer"),
    (lambda r: r["frames"][0]["ped"].__setitem__("feat", []), RecordParseError, "non-empty"),
    (lambda r: r["frames"][0]["ped"]["feat"].__setitem__(0, None), RecordParseError, "number"),
    # the number rule: exactly an int or a float, finite, within the float range
    pytest.param(_set("frames.0.ped.feat.1", "1.5"), RecordParseError, "number", id="ped-feat-string"),
    pytest.param(_set("frames.0.objects.0.feat.0", "1.5"), RecordParseError, "number", id="object-feat-string"),
    pytest.param(_set("frames.0.ped.box.0", "1.5"), RecordParseError, "number", id="ped-box-string"),
    pytest.param(_set("frames.0.objects.0.box.3", True), RecordParseError, "number", id="object-box-bool"),
    pytest.param(_set("frames.0.ped.feat.0", [1.0]), RecordParseError, "number", id="feat-nested-list"),
    pytest.param(_set("frames.0.ped.feat.0", _raw("NaN")), RecordParseError, "number", id="feat-NaN"),
    pytest.param(_set("frames.0.ped.box.2", _raw("Infinity")), RecordParseError, "number", id="box-Infinity"),
    pytest.param(_set("frames.0.objects.0.feat.1", _raw("1e999")), RecordParseError, "number", id="feat-1e999"),
    pytest.param(_set("frames.0.ped.feat.0", 10**400), RecordParseError, "number", id="feat-400-digit-int"),
    pytest.param(_set("fps", -(10**400)), RecordParseError, "fps", id="fps-400-digit-int"),
    pytest.param(_set("frames.0.objects.0.cam_dx", True), RecordParseError, "cam_dx", id="cam_dx-bool"),
    pytest.param(_set("frames.0.objects.0.cam_dx", _raw("NaN")), RecordParseError, "cam_dx", id="cam_dx-NaN"),
    # rules that data.load owns alone: the scene records check nothing
    pytest.param(_set("frames.0.objects.0.box.0", 70.0), RecordParseError, "degenerate", id="object-box-xmin-above-xmax"),
    pytest.param(_set("frames.0.ped.box.1", 25.0), RecordParseError, "degenerate", id="ped-box-ymin-above-ymax"),
    pytest.param(_set("fps", -1.0), RecordParseError, "fps", id="fps-negative"),
    pytest.param(_set("frames.0.objects.0.feat", []), RecordParseError, "non-empty", id="object-feat-empty"),
    # json.loads itself refuses integer literals of more than 4300 digits
    pytest.param(_set("frames.0.ped.feat.0", _raw("1" * 5000)), RecordParseError, "JSON", id="feat-5000-digit-int"),
]


def _write_mutated(path, mutate):
    rec = _record()
    mutate(rec)
    path.write_text(re.sub(r'"raw:([^"]*)"', r"\1", json.dumps(rec)) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("mutate,kind,fragment", MALFORMED)
def test_malformed_records_rejected_with_kind(tmp_path, mutate, kind, fragment):
    path = _write_mutated(tmp_path / "data.jsonl", mutate)
    with pytest.raises(kind) as excinfo:
        load(path)
    assert excinfo.value.line == 1
    assert fragment in str(excinfo.value)


def test_error_line_numbers_point_at_the_bad_record(tmp_path):
    bad = _record()
    bad["frames"][0]["label"] = 2
    with pytest.raises(RecordParseError) as excinfo:
        load(_write(tmp_path, [_record(), _record(id="s-2"), bad]))
    assert excinfo.value.line == 3


def test_invalid_json_line(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text(json.dumps(_record()) + "\n{oops\n", encoding="utf-8")
    with pytest.raises(RecordParseError) as excinfo:
        load(path)
    assert excinfo.value.line == 2
    assert "JSON" in str(excinfo.value)


def test_feature_width_drift_is_its_own_error(tmp_path):
    wide = _record(id="s-2")
    wide["frames"][0]["ped"]["feat"] = [1.0, 2.0, 3.0]
    wide["frames"][0]["objects"] = []
    with pytest.raises(FeatureWidthError) as excinfo:
        load(_write(tmp_path, [_record(), wide]))
    assert excinfo.value.line == 2
    assert issubclass(FeatureWidthError, SequenceFileError)


def test_object_width_must_match_ped_width(tmp_path):
    rec = _record()
    rec["frames"][0]["objects"][0]["feat"] = [1.0, 2.0, 3.0]
    with pytest.raises(FeatureWidthError):
        load(_write(tmp_path, [rec]))


def test_timestamp_order_is_its_own_error(tmp_path):
    rec = _record()
    frame2 = json.loads(json.dumps(rec["frames"][0]))
    rec["frames"].append(frame2)  # duplicate t = 0
    with pytest.raises(TimestampOrderError) as excinfo:
        load(_write(tmp_path, [rec]))
    assert excinfo.value.line == 1


def test_min_frames_enforced(tmp_path):
    path = _write(tmp_path, [_record()])
    assert len(load(path, min_frames=1)) == 1
    with pytest.raises(RecordParseError, match="at least 3"):
        load(path, min_frames=3)


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "gaps.jsonl"
    path.write_text(json.dumps(_record()) + "\n\n" + json.dumps(_record(id="s-2")) + "\n")
    assert [s.id for s in load(path)] == ["s-1", "s-2"]


def test_write_dataset_sidecar(tmp_path):
    cfg = SynthConfig(n_scenarios=2, frames_per_scenario=4, D=4, seed=1)
    out = tmp_path / "d.jsonl"
    write_dataset(out, generate_synthetic(cfg), config=cfg)
    meta = json.loads((tmp_path / "d.jsonl.meta.json").read_text())
    assert meta["count"] == 2
    assert meta["generator"]["seed"] == 1
    assert SynthConfig.from_dict(meta["generator"]) == cfg


@pytest.mark.parametrize("target", ["d.jsonl", "d.jsonl.meta.json", "model.json"])
def test_interrupted_write_keeps_the_old_file(tmp_path, monkeypatch, target):
    cfg = SynthConfig(n_scenarios=2, frames_per_scenario=4, D=4, seed=1)
    for name in ("d.jsonl", "d.jsonl.meta.json", "model.json"):
        (tmp_path / name).write_text(f"old {name}\n")
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst).name == target:
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="disk full"):
        if target == "model.json":
            mcfg = ModelConfig(D=4, D_e=3, hidden=4, T=2, K=2)
            save_checkpoint(tmp_path / target, mcfg, init_parameters(mcfg))
        else:
            write_dataset(tmp_path / "d.jsonl", generate_synthetic(cfg), config=cfg)
    assert (tmp_path / target).read_text() == f"old {target}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "d.jsonl.meta.json", "model.json"]


# -- the bulk check and the walk --------------------------------------------------
#
# load checks each record in bulk and walks it field by field only when the
# bulk check declines it; the walk alone words an error.


def _walk_load(path):
    """load(path) with the bulk check declining every record, so that each is walked."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(data_module, "_bulk_record", lambda obj, width: None)
        return load(path)


_NUMBERS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, 0.0, -0.0, 1e308, -5e-324]),
)


@st.composite
def _box(draw):
    (x0, x1), (y0, y1) = sorted([draw(_NUMBERS), draw(_NUMBERS)]), sorted([draw(_NUMBERS), draw(_NUMBERS)])
    return [x0, y0, x1, y1]


@st.composite
def _object(draw, width):
    entry = {
        "cat": draw(st.sampled_from([c.value for c in ObjectCategory])),
        "box": draw(_box()),
        "feat": draw(st.lists(_NUMBERS, min_size=width, max_size=width)),
    }
    if draw(st.booleans()):
        entry["cam_dx"] = draw(_NUMBERS)
    return entry


@st.composite
def _valid_records(draw):
    """1-3 valid records of one feature width in 1..20, with int and float numbers."""
    width = draw(st.integers(1, 20))
    records = []
    for _ in range(draw(st.integers(1, 3))):
        frames = [
            {
                "t": t,
                "ped": {"box": draw(_box()), "feat": draw(st.lists(_NUMBERS, min_size=width, max_size=width))},
                "objects": draw(st.lists(_object(width), max_size=3)),
                "label": draw(st.sampled_from([0, 1])),
            }
            for t in sorted(draw(st.sets(st.integers(-(2**40), 2**40), min_size=1, max_size=4)))
        ]
        fps = draw(st.one_of(st.integers(1, 10**6), st.floats(min_value=5e-324, allow_infinity=False)))
        records.append({"id": draw(st.text(min_size=1, max_size=6)), "fps": fps, "frames": frames})
    return records


@settings(max_examples=40, deadline=None)
@given(records=_valid_records())
def test_the_bulk_check_builds_what_the_walk_builds(tmp_path_factory, records):
    path = tmp_path_factory.getbasetemp() / "bulk.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    width = [None]
    assert all(data_module._bulk_record(r, width) is not None for r in records)  # no valid record is walked
    loaded, walked = load(path), _walk_load(path)
    assert serialize(loaded) == serialize(walked)
    for a, b in zip(loaded, walked):
        assert type(a.fps) is type(b.fps) is float
        for f, g in zip(a.frames, b.frames):
            assert type(f.timestamp_index) is type(g.timestamp_index) is int
            assert type(f.crossing_label) is type(g.crossing_label) is int
            assert [type(o.camera_offset_x) for o in f.objects] == [float] * len(g.objects)
    features = _features(loaded)
    assert [x.tobytes() for x in features] == [x.tobytes() for x in _features(walked)]
    assert {x.dtype for x in features} == {np.dtype(np.float64)}
    assert not any(x.flags.writeable for x in features)
    for a, b in zip(loaded, walked):  # one column block per record, the same from both
        bulk, walk = a.frames[0].objects.columns, b.frames[0].objects.columns
        assert all(f.objects.columns is bulk for f in a.frames) and all(g.objects.columns is walk for g in b.frames)
        assert [x.dtype for x in bulk] == [x.dtype for x in walk] == [np.dtype(np.float64)] * 2 + [np.dtype(np.intp), np.dtype(np.float64)]
        assert [x.shape for x in bulk] == [x.shape for x in walk]
        assert [x.tobytes() for x in bulk] == [x.tobytes() for x in walk]
        assert not any(x.flags.writeable for x in (*bulk, *walk))
        assert {type(v) for v in bulk.cam_dx.tolist()} <= {float}
        assert all(f.pedestrian_feature.base is bulk.feats.base is not None for f in a.frames)  # one feature block


def _frame_again(rec):
    rec["frames"].append(json.loads(json.dumps(rec["frames"][0])))


# shapes the bulk check must decline without raising, for the walk to word
DECLINED = [
    pytest.param(_set("frames.0.objects.0.cat", ["car"]), RecordParseError, "category", id="cat-array"),
    pytest.param(_set("frames.0.objects.0.cat", 3), RecordParseError, "category", id="cat-number"),
    pytest.param(_set("frames.0.objects", {}), RecordParseError, "objects", id="objects-object"),
    pytest.param(lambda r: r["frames"][0]["objects"].append(5), RecordParseError, "object", id="object-number"),
    pytest.param(lambda r: r["frames"][0]["objects"][0].pop("box"), RecordParseError, "missing", id="object-no-box"),
    pytest.param(_set("frames.0", []), RecordParseError, "frame", id="frame-array"),
    pytest.param(_set("frames.0.ped", []), RecordParseError, "ped", id="ped-array"),
    pytest.param(_set("frames.0.ped.box", {"a": 1}), RecordParseError, "ped.box", id="box-object"),
    pytest.param(_set("frames.0.ped.feat", [[1.0], [2.0]]), RecordParseError, "number", id="feat-of-arrays"),
    pytest.param(_set("frames.0.objects.0.feat", [1.0, 2.0, 3.0]), FeatureWidthError, "width", id="object-width"),
    pytest.param(_set("frames.0.t", True), RecordParseError, "integer", id="t-bool"),
    pytest.param(_frame_again, TimestampOrderError, "increase", id="t-repeated"),
    pytest.param(_set("fps", "10"), RecordParseError, "fps", id="fps-string"),
    pytest.param(_set("fps", True), RecordParseError, "fps", id="fps-bool"),
    pytest.param(_set("id", ""), RecordParseError, "id", id="id-empty"),
    pytest.param(_set("frames", {}), RecordParseError, "frames", id="frames-object"),
]


def _worded_as_the_walk(path):
    with pytest.raises(SequenceFileError) as walked:
        _walk_load(path)
    with pytest.raises(SequenceFileError) as loaded:
        load(path)
    assert type(loaded.value) is type(walked.value)
    assert (loaded.value.line, str(loaded.value)) == (walked.value.line, str(walked.value))
    return walked.value


@pytest.mark.parametrize("mutate,kind,fragment", MALFORMED + DECLINED)
def test_load_words_every_error_as_the_walk_does(tmp_path, mutate, kind, fragment):
    error = _worded_as_the_walk(_write_mutated(tmp_path / "data.jsonl", mutate))
    assert type(error) is kind and fragment in str(error)


def test_load_words_a_later_records_error_as_the_walk_does(tmp_path):
    wide = _record(id="s-2")
    wide["frames"][0]["ped"]["feat"] = [1.0, 2.0, 3.0]
    wide["frames"][0]["objects"] = []
    bad = _record(id="s-3")
    bad["frames"][0]["label"] = 2
    assert _worded_as_the_walk(_write(tmp_path, [_record(), wide])).line == 2
    assert _worded_as_the_walk(_write(tmp_path, [_record(), _record(id="s-2"), bad])).line == 3
    (tmp_path / "data.jsonl").write_text(json.dumps(_record()) + "\n\n{oops\n", encoding="utf-8")
    assert _worded_as_the_walk(tmp_path / "data.jsonl").line == 3


# -- seed derivation -----------------------------------------------------------


def test_splitmix64_frozen_vectors():
    # first-party freeze of the documented formula (golden-gamma increment
    # followed by the 30/27/31 xor-multiply finalizer)
    assert [splitmix64(0, i) for i in (1, 2, 3)] == [
        13448307817581644442,
        4999578403848631258,
        7772906441447660929,
    ]
    assert splitmix64(42, 1) == 15646366499638615638
    assert splitmix64(2**64 - 1, 5) == 971081503446677075  # wraps mod 2**64


def test_splitmix64_streams_do_not_collide():
    seen = {splitmix64(seed, i) for seed in range(20) for i in range(50)}
    assert len(seen) == 20 * 50
    assert all(0 <= v < 2**64 for v in seen)


# -- synthetic generator --------------------------------------------------------


def test_synth_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(n_scenarios=0)
    with pytest.raises(ConfigError):
        SynthConfig(frames_per_scenario=1)
    with pytest.raises(ConfigError):
        SynthConfig(vehicle_count_range=(3, 1))
    with pytest.raises(ConfigError):
        SynthConfig(ped_speed_range=(0.0, 5.0))
    with pytest.raises(ConfigError):
        SynthConfig(theta_x_frac=1.5)
    with pytest.raises(ConfigError):
        SynthConfig.from_dict({"frame_widht": 100})


def test_synth_config_dict_roundtrip():
    cfg = SynthConfig(n_scenarios=3, seed=5, crosswalk_center_range=(0.4, 0.6))
    again = SynthConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_generation_is_deterministic_and_prefix_stable():
    a = generate_synthetic(SynthConfig(n_scenarios=6, frames_per_scenario=5, D=8, seed=4))
    b = generate_synthetic(SynthConfig(n_scenarios=6, frames_per_scenario=5, D=8, seed=4))
    assert serialize(a) == serialize(b)
    longer = generate_synthetic(SynthConfig(n_scenarios=9, frames_per_scenario=5, D=8, seed=4))
    assert serialize(longer[:6]) == serialize(a)  # scenario i depends only on (seed, i)
    other = generate_synthetic(SynthConfig(n_scenarios=6, frames_per_scenario=5, D=8, seed=5))
    assert serialize(other) != serialize(a)


# sha256 of serialize(generate_synthetic(...)) at seeds 0 and 7, 20 scenes each,
# over geometries the benchmark's pinned inputs do not reach. A change to the
# draw, the labels, the features or the serialization moves these bytes.
GENERATOR_PINS = [
    ({}, "ccf279e548aec42ef29050376c621ab36fb74cdcf7e92bc6a907daf7183bbcce"),
    ({"vehicle_count_range": (7, 7)}, "ad22a17fa4e65da69549d42283932f418d47a79df888ac403d33f06ce72ddcd9"),
    ({"vehicle_count_range": (6, 8)}, "97420835edbbd0f58487848db9ff8f7fe5a36b94543e970f86e0640953e5a7c9"),
    ({"vehicle_count_range": (0, 0)}, "a683d6db5d8b8f0b03e12fcb3b4a49c7ad8c3fea07539bd6e1510d67f6a8c36d"),
    ({"D": 4}, "c9f911f799f7a676622e355bd8adb79c8b06ac2d70d5c1283751c7e64f991b19"),
    ({"frames_per_scenario": 2}, "cf5abf1e21160f2b9179cf629691a1008c09798c5b48ff528fd262c498346d7e"),
    ({"frames_per_scenario": 40}, "811e00a8bf74a27b37945e5ff6b96f7491ea692962266bb051fa58a0180c5363"),
    ({"frame_width": 640.0, "frame_height": 480.0}, "ca719e0ceb59c0a28e4d1023495fba4b3c1470e9c4ffbf9f66771ba0bbe1f519"),
    ({"theta_x_frac": 0.3, "theta_v_frac": 0.05}, "30b059e7c860a5e856646f6c57a4fd419ecb992309a50993f567ecf87c9a3983"),
    ({"ped_speed_range": (1.0, 30.0)}, "386f90e1a720234a071a158ad481144927283cb9b108ffd06e7209589b704e37"),
    ({"crosswalk_center_range": (0.0, 1.0)}, "ad5cebca301ddcd07b4896e48ba13677dfbde6a53019dae4be8714616fd89078"),
]
PIN_IDS = [",".join(f"{k}={v}" for k, v in o.items()).replace(" ", "") or "default" for o, _ in GENERATOR_PINS]


@pytest.mark.parametrize("overrides, pinned", GENERATOR_PINS, ids=PIN_IDS)
def test_generated_bytes_keep_their_pins(overrides, pinned):
    digest = hashlib.sha256()
    for seed in (0, 7):
        digest.update(serialize(generate_synthetic(SynthConfig(n_scenarios=20, seed=seed, **overrides))).encode())
    assert digest.hexdigest() == pinned


def test_generated_scenarios_are_well_formed():
    cfg = SynthConfig(n_scenarios=10, frames_per_scenario=6, D=12, seed=2)
    for s in generate_synthetic(cfg):
        assert len(s.frames) == 6
        assert s.feature_width == 12
        cats = {o.category for f in s.frames for o in f.objects}
        assert cats & {ObjectCategory.CROSSWALK_PLAIN, ObjectCategory.CROSSWALK_ZEBRA}
        assert s.fps == cfg.fps
        assert all(f.objects is s.frames[0].objects for f in s.frames)  # one scene, drawn once


def test_a_non_finite_draw_is_refused_in_the_shared_scene_and_in_any_frames_pedestrian():
    # the frames share one objects tuple, which is checked once; every frame's pedestrian is checked
    scenario = generate_synthetic(SynthConfig(n_scenarios=1, frames_per_scenario=6, D=4, seed=1))[0]
    assert data_module._require_finite_draw(scenario) is scenario
    shared = scenario.frames[0].objects
    bad_object = dataclasses.replace(shared[-1], feature=np.array([0.5, np.nan, 0.0, 1.0]))
    scene = (*shared[:-1], bad_object)
    bad_feature = scenario.frames[3].pedestrian_feature.copy()
    bad_feature[2] = np.nan
    variants = [
        [dataclasses.replace(f, objects=scene) for f in scenario.frames],
        [dataclasses.replace(f, pedestrian_feature=bad_feature) if f.timestamp_index == 3 else f for f in scenario.frames],
    ]
    for frames in variants:
        with pytest.raises(ValueError, match=r"non-finite box or feature; the synth geometry overflows$"):
            data_module._require_finite_draw(Scenario(id="hand-built", frames=tuple(frames), fps=scenario.fps))


def test_a_scene_too_crowded_for_the_label_margins_is_refused():
    # 30 parked vehicles leave no draw whose pedestrian stays clear of theta_v on every frame;
    # scenario 0 of seed 0 finds one, scenario 1 does not
    crowded = dict(n_scenarios=3, frames_per_scenario=6, D=4, seed=0, vehicle_count_range=(30, 30))
    generate_synthetic(SynthConfig(**dict(crowded, n_scenarios=1)))
    with pytest.raises(ValueError, match=r"^synthetic scenario 1: .* margins \(vehicle_count_range \(30, 30\)\)$"):
        generate_synthetic(SynthConfig(**crowded))


def test_tiny_feature_width_uses_projection():
    cfg = SynthConfig(n_scenarios=2, frames_per_scenario=4, D=4, seed=3)
    for s in generate_synthetic(cfg):
        assert s.feature_width == 4
        for f in s.frames:
            assert np.all(np.isfinite(f.pedestrian_feature))


# A walker slower than the float spacing of its x position never moves its
# box, so the rule's vx (from box centers) is 0 whatever speed was drawn.
@pytest.mark.parametrize("overrides", [{}, {"ped_speed_range": (1e-15, 2e-15)}], ids=["default", "sub-ulp-speed"])
def test_relabeling_from_file_matches_generator(tmp_path, overrides):
    cfg = SynthConfig(n_scenarios=200, frames_per_scenario=10, D=8, seed=13, **overrides)
    out = tmp_path / "gen.jsonl"
    write_dataset(out, generate_synthetic(cfg))
    theta_x, theta_v = oracle_thresholds(cfg)
    disagree = [s.id for s in load(out) if oracle_labels(s, theta_x, theta_v) != s.labels()]
    assert not disagree, f"{len(disagree)} of {cfg.n_scenarios} scenarios relabel differently: {disagree[:3]}"


def test_prevalence_sits_inside_a_sane_band():
    # default geometry, large draw: positives are a real minority but not rare
    cfg = SynthConfig(n_scenarios=1000, D=8, seed=21)
    assert 0.2 <= label_prevalence(generate_synthetic(cfg)) <= 0.6


# -- the labeling rule on hand-built geometry ----------------------------------


def _hand_scenario(frames):
    return Scenario(id="hand", frames=tuple(frames), fps=10.0)


def _hand_frame(t, ped_cx, objects):
    box = BoundingBox(ped_cx - 5, 50, ped_cx + 5, 70)
    return FrameObservation(t, box, np.ones(2), tuple(objects), crossing_label=0)


def _crosswalk(cx):
    return ObjectObservation(
        ObjectCategory.CROSSWALK_ZEBRA, BoundingBox(cx - 20, 60, cx + 20, 70), np.ones(2)
    )


def _car(cx, cy):
    return ObjectObservation(
        ObjectCategory.CAR, BoundingBox(cx - 10, cy - 5, cx + 10, cy + 5), np.ones(2)
    )


def test_rule_requires_all_three_clauses():
    theta_x, theta_v = 15.0, 12.0
    cw = _crosswalk(100.0)
    # walking right toward the crosswalk at 10 px/frame, starting 30 px away
    walk = [_hand_frame(t, 70.0 + 10.0 * t, [cw]) for t in range(4)]
    # frame 0: |dxc|=30 not near; frame 1: |dxc|=20 not near; frame 2: 10 near
    # and toward; frame 3: dxc=0, dxc*vx=0 fails the strict toward test
    assert oracle_labels(_hand_scenario(walk), theta_x, theta_v) == [0, 0, 1, 0]

    # same geometry walking away: never positive
    away = [_hand_frame(t, 100.0 - 10.0 * t, [cw]) for t in range(4)]
    away_labels = oracle_labels(_hand_scenario(away), theta_x, theta_v)
    assert away_labels == [0, 0, 0, 0]

    # a parked car inside theta_v vetoes the otherwise-positive frame
    blocked = [_hand_frame(t, 70.0 + 10.0 * t, [cw, _car(95.0, 60.0)]) for t in range(4)]
    assert oracle_labels(_hand_scenario(blocked), theta_x, theta_v) == [0, 0, 0, 0]

    # the same car just beyond theta_v does not
    clear = [_hand_frame(t, 70.0 + 10.0 * t, [cw, _car(130.0, 60.0)]) for t in range(4)]
    assert oracle_labels(_hand_scenario(clear), theta_x, theta_v) == [0, 0, 1, 0]


def test_rule_frame_zero_uses_forward_difference():
    theta_x, theta_v = 25.0, 12.0
    cw = _crosswalk(100.0)
    near_start = [_hand_frame(t, 90.0 + 5.0 * t, [cw]) for t in range(3)]
    # frame 0 is near (|dxc|=10) and the forward difference (+5) points toward
    assert oracle_labels(_hand_scenario(near_start), theta_x, theta_v)[0] == 1


def test_rule_without_crosswalk_or_motion_is_negative():
    theta_x, theta_v = 25.0, 12.0
    no_cw = [_hand_frame(t, 100.0, [_car(300.0, 60.0)]) for t in range(3)]
    assert oracle_labels(_hand_scenario(no_cw), theta_x, theta_v) == [0, 0, 0]
    still = [_hand_frame(t, 95.0, [_crosswalk(100.0)]) for t in range(3)]
    assert oracle_labels(_hand_scenario(still), theta_x, theta_v) == [0, 0, 0]


def test_rule_uses_nearest_crosswalk():
    theta_x, theta_v = 15.0, 12.0
    near_cw = _crosswalk(110.0)
    far_cw = _crosswalk(400.0)
    frames = [_hand_frame(t, 100.0 + 2.0 * t, [far_cw, near_cw]) for t in range(3)]
    # nearest crosswalk is 10 px away and motion is toward it
    assert oracle_labels(_hand_scenario(frames), theta_x, theta_v) == [1, 1, 1]


def test_rule_single_frame_scenario_has_zero_velocity():
    frames = [_hand_frame(0, 95.0, [_crosswalk(100.0)])]
    assert oracle_labels(_hand_scenario(frames), 25.0, 12.0) == [0]


def test_oracle_respects_camera_alignment():
    theta_x, theta_v = 15.0, 12.0
    # raw box far away, cam_dx slides it inside the near window
    shifted = ObjectObservation(
        ObjectCategory.CROSSWALK_ZEBRA,
        BoundingBox(180, 60, 220, 70),
        np.ones(2),
        camera_offset_x=-90.0,
    )
    frames = [_hand_frame(t, 100.0 + 2.0 * t, [shifted]) for t in range(3)]
    assert oracle_labels(_hand_scenario(frames), theta_x, theta_v) == [1, 1, 1]


# -- splitting -------------------------------------------------------------------


def test_split_is_disjoint_exhaustive_and_seeded():
    data = generate_synthetic(SynthConfig(n_scenarios=10, frames_per_scenario=4, D=4, seed=0))
    train, test = split(data, 0.7, seed=3)
    assert len(train) == 7 and len(test) == 3
    assert {s.id for s in train} | {s.id for s in test} == {s.id for s in data}
    assert not ({s.id for s in train} & {s.id for s in test})
    train2, test2 = split(data, 0.7, seed=3)
    assert [s.id for s in train2] == [s.id for s in train]
    train3, _ = split(data, 0.7, seed=4)
    assert [s.id for s in train3] != [s.id for s in train]


def test_split_fraction_bounds():
    data = generate_synthetic(SynthConfig(n_scenarios=4, frames_per_scenario=4, D=4, seed=0))
    with pytest.raises(ValueError):
        split(data, 1.2, seed=0)
    empty_train, all_test = split(data, 0.0, seed=0)
    assert empty_train == [] and len(all_test) == 4


def test_scenario_to_record_schema():
    data = generate_synthetic(SynthConfig(n_scenarios=1, frames_per_scenario=3, D=4, seed=0))
    rec = scenario_to_record(data[0])
    assert set(rec) == {"id", "fps", "frames"}
    assert set(rec["frames"][0]) == {"t", "ped", "objects", "label"}
    assert set(rec["frames"][0]["objects"][0]) == {"cat", "box", "feat", "cam_dx"}
    assert math.isfinite(rec["fps"])
