"""Loaded records hold their objects as columns.

``data.load`` gives each record one read-only ``ObjectColumns`` block and each
frame a ``LoadedObjects`` sequence over its rows. No per-object record is
built by loading, by a pass of any graph mode, or by the CLI's eval and
predict; reading a frame's objects builds that frame's, and only those.
"""

import collections
import contextlib
import dataclasses
import json
import pickle

import numpy as np
import pytest

from intent_graph import model
from intent_graph.cli import main
from intent_graph.data import SynthConfig, generate_synthetic, load, oracle_labels, oracle_thresholds, serialize, write_dataset
from intent_graph.model import ModelConfig, forward, init_parameters, save_checkpoint
from intent_graph.scene import BoundingBox, FrameObservation, LoadedObjects, ObjectCategory, ObjectObservation, Scenario
from intent_graph.training import TrainConfig, evaluate, train

from reference_ops import object_sort_key

MODES = ("star", "fully_connected", "concat_baseline", "pedestrian_only")


@contextlib.contextmanager
def _constructions(monkeypatch):
    """Count the ObjectObservation and BoundingBox instances built inside the block."""
    counts = collections.Counter()
    for cls in (ObjectObservation, BoundingBox):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    try:
        yield counts
    finally:
        monkeypatch.undo()


@pytest.fixture
def dense_file(tmp_path):
    path = tmp_path / "dense.jsonl"
    write_dataset(path, generate_synthetic(SynthConfig(n_scenarios=6, frames_per_scenario=7, D=6, seed=4, vehicle_count_range=(6, 8))))
    return path


def _cfg(mode):
    hidden = 6 if mode in ("star", "fully_connected") else 7
    return ModelConfig(D=6, D_e=5, hidden=hidden, T=4, K=3, spatial_scale=1 / 1280, graph_mode=mode, seed=2)


def test_load_and_every_pass_build_no_object_record(monkeypatch, dense_file):
    with _constructions(monkeypatch) as built:
        scenarios = load(dense_file)
    frames = sum(len(s.frames) for s in scenarios)
    assert built == {"BoundingBox": frames}  # one pedestrian box per frame, no object
    assert all(type(f.objects) is LoadedObjects for s in scenarios for f in s.frames)
    for mode in MODES:
        cfg = _cfg(mode)
        values = init_parameters(cfg)
        with _constructions(monkeypatch) as built:
            evaluate(scenarios, cfg, values)
            forward(scenarios[0], cfg, values)
            train(scenarios, cfg, TrainConfig(epochs=1, batch_size=4), initial=values)
            fresh = load(dense_file)
            forward(fresh[1], cfg, values)  # a cold pass on fresh records
            evaluate(fresh, cfg, values)
        assert built == {"BoundingBox": frames}, mode  # the second load's pedestrian boxes only
        assert all(s.window.key == (cfg.T, mode) for s in scenarios + fresh)


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_cli_eval_and_predict_build_no_object_record(monkeypatch, capsys, tmp_path, dense_file, command):
    checkpoint = tmp_path / "model.json"
    cfg = _cfg("fully_connected")
    save_checkpoint(checkpoint, cfg, init_parameters(cfg))
    frames = sum(len(s.frames) for s in load(dense_file))
    with _constructions(monkeypatch) as built:
        code = main([command, "--model", str(checkpoint), "--data", str(dense_file)])
    assert code == 0 and json.loads(capsys.readouterr().out)["command"] == command
    assert built == {"BoundingBox": frames}


def test_reading_a_frame_builds_that_frames_objects_as_the_file_holds_them(monkeypatch, dense_file):
    [record] = [json.loads(line) for line in dense_file.read_text().splitlines()[2:3]]
    scenario = load(dense_file)[2]
    entries = record["frames"][1]["objects"]
    objects = scenario.frames[1].objects
    assert len(objects) == len(entries) > 0
    with _constructions(monkeypatch) as built:
        first = tuple(objects)
    assert built == {"ObjectObservation": len(entries), "BoundingBox": len(entries)}
    with _constructions(monkeypatch) as built:
        again = (*objects[:2], *objects[2:])
    assert not built and all(a is b for a, b in zip(first, again))  # built once, kept like a tuple's
    for o, entry in zip(first, entries):
        assert o.category is ObjectCategory(entry["cat"])
        assert o.box.as_list() == entry["box"] and all(type(v) is float for v in o.box.as_list())
        assert o.feature.tolist() == entry["feat"] and o.feature.dtype == np.float64 and not o.feature.flags.writeable
        assert type(o.camera_offset_x) is float and o.camera_offset_x == entry["cam_dx"]


def test_a_loaded_records_column_block_is_the_file_row_for_row(dense_file):
    record = json.loads(dense_file.read_text().splitlines()[0])
    scenario = load(dense_file)[0]
    columns = scenario.frames[0].objects.columns
    assert all(f.objects.columns is columns for f in scenario.frames)
    frames = record["frames"]
    entries = [o for f in frames for o in f["objects"]]
    assert [(f.objects.start, f.objects.stop) for f in scenario.frames] == [
        (stop - len(f["objects"]), stop) for f, stop in zip(frames, np.cumsum([len(f["objects"]) for f in frames]).tolist())
    ]
    assert [f.pedestrian_box.as_list() for f in scenario.frames] == [f["ped"]["box"] for f in frames]
    assert [f.pedestrian_feature.tolist() for f in scenario.frames] == [f["ped"]["feat"] for f in frames]
    assert columns.boxes.tolist() == [o["box"] for o in entries]
    assert columns.feats.tolist() == [o["feat"] for o in entries]
    assert columns.categories.tolist() == [ObjectCategory(o["cat"]).index for o in entries]
    assert columns.cam_dx.tolist() == [o["cam_dx"] for o in entries]
    assert not any(arr.flags.writeable for arr in columns)
    assert all(f.pedestrian_feature.base is columns.feats.base is not None and not f.pedestrian_feature.flags.writeable for f in scenario.frames)


def test_a_loaded_record_pickles_and_serializes_as_it_was_read(dense_file):
    text = dense_file.read_text()
    scenarios = load(dense_file)
    assert serialize(pickle.loads(pickle.dumps(scenarios))) == text
    assert serialize(scenarios) == text


def test_serialize_and_oracle_labels_read_the_columns_and_keep_nothing(monkeypatch, tmp_path):
    cfg = SynthConfig(n_scenarios=12, frames_per_scenario=6, D=6, seed=5)
    generated = generate_synthetic(cfg)
    records = [json.loads(line) for line in serialize(generated).splitlines()]
    for i, o in enumerate(o for r in records for f in r["frames"] for o in f["objects"]):
        o["cam_dx"] = dx = (0.0, -0.0, 160.0, -96.5)[i % 4]  # written shifted back, so the aligned box is the generated one
        o["box"] = [o["box"][0] - dx, o["box"][1], o["box"][2] - dx, o["box"][3]]
    path = tmp_path / "shifted.jsonl"
    path.write_text("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records), encoding="utf-8")
    scenarios = load(path)
    with _constructions(monkeypatch) as built:
        assert serialize(scenarios) == path.read_text()
        labels = [oracle_labels(s, *oracle_thresholds(cfg)) for s in scenarios]
    assert not built and not any(hasattr(f.objects, "_built") for s in scenarios for f in s.frames)
    assert labels == [[f.crossing_label for f in s.frames] for s in generated] and any(map(any, labels))
    walked = [dataclasses.replace(s, frames=tuple(dataclasses.replace(f, objects=tuple(f.objects)) for f in s.frames)) for s in scenarios]
    assert [oracle_labels(s, *oracle_thresholds(cfg)) for s in walked] == labels


def test_loaded_objects_that_tie_pack_as_the_walk_packs_them(tmp_path):
    # the canonical order's tie-breaks (same category and xmin, -0.0 against 0.0, equal but for a feature)
    box = BoundingBox(10.0, 20.0, 30.0, 40.0)
    objects = [
        ObjectObservation(ObjectCategory.CAR, box, np.array([1.0, 2.0, 3.0])),
        ObjectObservation(ObjectCategory.CAR, box, np.array([1.0, 2.0, -3.0])),
        ObjectObservation(ObjectCategory.CAR, BoundingBox(10.0, 19.0, 30.0, 40.0), np.array([1.0, 2.0, 3.0]), camera_offset_x=-5.0),
        ObjectObservation(ObjectCategory.CROSSWALK_ZEBRA, BoundingBox(-0.0, 0.0, 5.0, 5.0), np.array([0.0, -0.0, 1.0])),
        ObjectObservation(ObjectCategory.CROSSWALK_ZEBRA, BoundingBox(0.0, 0.0, 5.0, 5.0), np.array([-0.0, 0.0, 1.0])),
        ObjectObservation(ObjectCategory.BIKE, BoundingBox(10.0, 0.0, 12.0, 5.0), np.ones(3), camera_offset_x=2.5),
    ]
    rng = np.random.default_rng(3)
    frames = tuple(
        FrameObservation(t, box, np.zeros(3), tuple(objects[i] for i in rng.permutation(len(objects))[: 6 - t % 3]), 0)
        for t in range(6)
    )
    path = tmp_path / "tied.jsonl"
    write_dataset(path, [Scenario("tied", frames, 10.0)])
    [loaded] = load(path)
    walked = dataclasses.replace(loaded, frames=tuple(dataclasses.replace(f, objects=tuple(f.objects)) for f in loaded.frames))
    mixed = [*loaded.frames[:2], *walked.frames[2:4], *loaded.frames[4:]]
    for observed, reference in ((loaded.frames, frames), (walked.frames, frames), (mixed, frames), (loaded.frames[::-1], frames[::-1])):
        rows = model._object_rows(observed, 3)
        want = [o for f in reference for o in sorted(f.objects, key=object_sort_key)]
        assert rows.counts.tolist() == [len(f.objects) for f in reference]
        assert rows.feats.tobytes() == np.array([o.feature for o in want]).tobytes()
        assert rows.boxes.tobytes() == np.array([o.aligned_box().as_list() for o in want]).tobytes()
        assert rows.categories.tolist() == [o.category.index for o in want] and rows.categories.dtype == np.intp


def test_a_loaded_record_of_another_width_is_refused_by_name(dense_file):
    # a record whose pedestrian features were swapped for D-wide ones still holds width-6 object columns
    scenario = load(dense_file)[0]
    frames = tuple(dataclasses.replace(f, pedestrian_feature=np.zeros(4)) for f in scenario.frames)
    cfg = ModelConfig(D=4, D_e=5, hidden=4, T=4, K=3, spatial_scale=1 / 1280, seed=2)
    with pytest.raises(model.ScenarioError, match=r"object feature of shape \(6,\) in observed frame 0; config expects \(4,\)"):
        forward(dataclasses.replace(scenario, frames=frames), cfg, init_parameters(cfg))
