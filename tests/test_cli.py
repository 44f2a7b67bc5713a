"""Command-line behavior, exercised in process through main(argv).

Stdout must always hold exactly one JSON document; human chatter goes to
stderr. Exit codes: 0 ok, 2 config, 3 data, 4 numeric, 5 internal.
"""

import contextlib
import dataclasses
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intent_graph import cli
from intent_graph.autodiff import GradientTape, ShapeError
from intent_graph.cli import build_parser, main
from intent_graph.data import SynthConfig, generate_synthetic, load, serialize, write_dataset
from intent_graph.model import ModelConfig, init_parameters, load_checkpoint, save_checkpoint
from intent_graph.training import AdamOptimizer, TrainConfig, clip_gradients, scenario_loss_tensor
from intent_graph.scene import BoundingBox, ObjectObservation


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, json.loads(out), err


@pytest.fixture
def cfg_path(tmp_path):
    cfg = {
        "synth": {"n_scenarios": 6, "frames_per_scenario": 7, "D": 8, "seed": 3},
        "model": {
            "D": 8, "D_e": 6, "hidden": 8, "T": 3, "K": 2,
            "spatial_scale": 1 / 1280, "seed": 1,
        },
        "train": {"epochs": 3, "learning_rate": 0.01, "seed": 1},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_synth_train_eval_predict_roundtrip(tmp_path, capsys, cfg_path):
    data = str(tmp_path / "data.jsonl")
    model = str(tmp_path / "model.json")
    metrics = str(tmp_path / "metrics.jsonl")

    code, doc, err = _run(capsys, ["synth", "--config", cfg_path, "--out", data])
    assert code == 0
    assert doc["command"] == "synth" and doc["n_scenarios"] == 6
    assert 0.0 <= doc["prevalence"] <= 1.0
    assert (tmp_path / "data.jsonl.meta.json").exists()
    assert "wrote 6 scenarios" in err

    code, doc, err = _run(
        capsys,
        ["train", "--config", cfg_path, "--data", data, "--out", model, "--metrics", metrics],
    )
    assert code == 0
    assert doc["final"]["epoch"] == 3
    assert doc["parameters"] > 0
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[-1]) == doc["final"]

    manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["model"]["D"] == 8
    assert manifest["data"] == [data]

    mcfg, params = load_checkpoint(model)
    assert mcfg.D == 8 and set(params)

    code, doc, err = _run(capsys, ["eval", "--model", model, "--data", data])
    assert code == 0
    assert doc["n_scenarios"] == 6
    assert 0.0 <= doc["avg_accuracy_1_to_K"] <= 1.0
    assert len(doc["mean_confidence_per_step"]) == 2

    first_id = json.loads((tmp_path / "data.jsonl").read_text().splitlines()[0])["id"]
    code, doc, err = _run(
        capsys, ["predict", "--model", model, "--data", data, "--scenario", first_id]
    )
    assert code == 0
    assert len(doc["results"]) == 1
    rec = doc["results"][0]
    assert rec["id"] == first_id
    assert set(rec) == {"id", "logits", "probabilities", "labels"}
    assert len(rec["logits"]) == 2 and len(rec["labels"]) == 2
    assert all(0.0 <= p <= 1.0 for p in rec["probabilities"])


def test_synth_seed_override_controls_bytes(tmp_path, capsys, cfg_path):
    a, b, c = (str(tmp_path / n) for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
    assert _run(capsys, ["synth", "--config", cfg_path, "--out", a, "--seed", "1"])[0] == 0
    assert _run(capsys, ["synth", "--config", cfg_path, "--out", b, "--seed", "1"])[0] == 0
    assert _run(capsys, ["synth", "--config", cfg_path, "--out", c, "--seed", "2"])[0] == 0
    read = lambda p: open(p, "rb").read()
    assert read(a) == read(b)
    assert read(a) != read(c)


def test_train_same_invocation_is_reproducible(tmp_path, capsys, cfg_path):
    data = str(tmp_path / "data.jsonl")
    _run(capsys, ["synth", "--config", cfg_path, "--out", data])
    outs = []
    for tag in ("one", "two"):
        model = str(tmp_path / f"{tag}.json")
        metrics = str(tmp_path / f"{tag}.metrics.jsonl")
        code, _, _ = _run(
            capsys,
            ["train", "--config", cfg_path, "--data", data, "--out", model, "--metrics", metrics],
        )
        assert code == 0
        outs.append((open(model, "rb").read(), open(metrics, "rb").read()))
    assert outs[0] == outs[1]


def test_train_without_out_writes_nothing(tmp_path, capsys, cfg_path):
    data = str(tmp_path / "data.jsonl")
    _run(capsys, ["synth", "--config", cfg_path, "--out", data])
    before = set(tmp_path.iterdir())
    code, doc, _ = _run(capsys, ["train", "--config", cfg_path, "--data", data])
    assert code == 0 and doc["checkpoint"] is None
    assert set(tmp_path.iterdir()) == before


# -- config errors (exit 2) --------------------------------------------------------


def test_missing_and_malformed_config(tmp_path, capsys):
    code, doc, _ = _run(capsys, ["synth", "--config", str(tmp_path / "nope.json"), "--out", "x"])
    assert code == 2 and doc["error"]["kind"] == "config"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, doc, _ = _run(capsys, ["synth", "--config", str(bad), "--out", "x"])
    assert code == 2

    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    code, doc, _ = _run(capsys, ["synth", "--config", str(arr), "--out", "x"])
    assert code == 2


def test_non_finite_learning_rate_is_a_config_error(tmp_path, capsys, cfg_path):
    cfg = json.loads(Path(cfg_path).read_text())
    cfg["train"]["learning_rate"] = float("inf")
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(cfg))
    assert '"learning_rate": Infinity' in path.read_text()  # json.load accepts this
    code, doc, _ = _run(capsys, ["train", "--config", str(path), "--data", str(tmp_path / "d.jsonl")])
    assert code == 2 and doc["error"]["kind"] == "config"
    assert "learning_rate" in doc["error"]["message"]


@pytest.mark.parametrize(
    "key,value",
    [("D", 2**62), ("vehicle_count_range", [0, 2**70]), ("n_scenarios", 10**12), ("frames_per_scenario", 10**9)],
    ids=["D", "vehicle_count_range", "n_scenarios", "frames_per_scenario"],
)
def test_synth_size_beyond_its_cap_is_a_config_error(tmp_path, capsys, cfg_path, key, value):
    cfg = json.loads(Path(cfg_path).read_text())
    cfg["synth"][key] = value
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "x.jsonl"
    code, doc, _ = _run(capsys, ["synth", "--config", str(path), "--out", str(out)])
    assert (code, doc["error"]["kind"]) == (2, "config")
    assert key in doc["error"]["message"] and not out.exists()


def test_unknown_section_and_unused_section_typos_fail(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"modle": {}}))
    code, doc, _ = _run(capsys, ["synth", "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == 2 and "modle" in doc["error"]["message"]

    # a typo in a section this command never reads must still fail
    path.write_text(json.dumps({"synth": {"n_scenarios": 2}, "model": {"bogus": 1}}))
    code, doc, _ = _run(capsys, ["synth", "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == 2 and "bogus" in doc["error"]["message"]


def test_tampered_checkpoint_is_a_config_error(tmp_path, capsys, cfg_path):
    data = str(tmp_path / "data.jsonl")
    model = tmp_path / "model.json"
    _run(capsys, ["synth", "--config", cfg_path, "--out", data])
    _run(capsys, ["train", "--config", cfg_path, "--data", data, "--out", str(model)])
    doc = json.loads(model.read_text())
    doc["format_version"] = 99
    model.write_text(json.dumps(doc))
    code, doc, _ = _run(capsys, ["eval", "--model", str(model), "--data", data])
    assert code == 2 and doc["error"]["kind"] == "config"


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda entry: [entry["shape"], entry["values"]],  # entry is not an object
        lambda entry: dict(entry, values="not numbers"),  # values are not numeric
    ],
    ids=["entry-is-a-list", "values-is-a-string"],
)
def test_malformed_checkpoint_entry_is_a_config_error(tmp_path, capsys, cfg_path, corrupt):
    data = str(tmp_path / "data.jsonl")
    model = tmp_path / "model.json"
    _run(capsys, ["synth", "--config", cfg_path, "--out", data])
    with open(cfg_path) as fh:
        mcfg = ModelConfig.from_dict(json.load(fh)["model"])
    save_checkpoint(model, mcfg, init_parameters(mcfg))
    doc = json.loads(model.read_text())
    name = sorted(doc["parameters"])[0]
    doc["parameters"][name] = corrupt(doc["parameters"][name])
    model.write_text(json.dumps(doc))
    code, doc, _ = _run(capsys, ["eval", "--model", str(model), "--data", data])  # one JSON document
    assert code == 2 and doc["error"]["kind"] == "config"
    assert name in doc["error"]["message"]


# -- numbers beyond the float range (exit 2 or 3, never 5) ---------------------------

_INT_BEYOND_FLOAT = "1" + "0" * 400


def _with_literal(doc, path, literal: str) -> str:
    """``doc`` as JSON text with the entry at key ``path`` written as the bare ``literal``."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "@literal@"
    return json.dumps(doc).replace('"@literal@"', literal)


@pytest.mark.parametrize("where", ["data", "checkpoint", "config"])
def test_int_beyond_float_range_is_an_input_error(tmp_path, capsys, cfg_path, where):
    data = tmp_path / "data.jsonl"
    model = tmp_path / "model.json"
    cfg = json.loads(Path(cfg_path).read_text())
    mcfg = ModelConfig.from_dict(cfg["model"])
    _run(capsys, ["synth", "--config", cfg_path, "--out", str(data)])
    save_checkpoint(model, mcfg, init_parameters(mcfg))
    bad = tmp_path / "bad.json"
    if where == "data":
        record = json.loads(data.read_text().splitlines()[0])
        bad.write_text(_with_literal(record, ["frames", 0, "ped", "feat", 0], _INT_BEYOND_FLOAT) + "\n")
        argv, expected = ["predict", "--model", str(model), "--data", str(bad)], (3, "data")
    elif where == "checkpoint":
        doc = json.loads(model.read_text())
        name = sorted(doc["parameters"])[0]
        bad.write_text(_with_literal(doc, ["parameters", name, "values", 0], _INT_BEYOND_FLOAT))
        argv, expected = ["eval", "--model", str(bad), "--data", str(data)], (2, "config")
    else:
        bad.write_text(_with_literal(cfg, ["train", "learning_rate"], _INT_BEYOND_FLOAT))
        argv, expected = ["synth", "--config", str(bad), "--out", str(tmp_path / "x.jsonl")], (2, "config")
    code, doc, _ = _run(capsys, argv)  # one JSON document
    assert (code, doc["error"]["kind"]) == expected


# Every input path either works or fails with a typed error: replace one leaf
# of a valid record, checkpoint or config with a value of the wrong kind.
_FUZZ_LITERALS = ("true", '"x"', "null", "[]", "[[1]]", "NaN", "1e999", _INT_BEYOND_FLOAT, "-1")
_FUZZ_MODEL = {"D": 4, "D_e": 4, "hidden": 4, "T": 3, "K": 2, "spatial_scale": 1 / 1280}
_FUZZ_CONFIG = {
    "synth": {"n_scenarios": 2, "frames_per_scenario": 5, "D": 4, "vehicle_count_range": [1, 1]},
    "model": _FUZZ_MODEL,
    "train": {"epochs": 1, "learning_rate": 0.01},
}


def _leaves(doc, path=()):
    """Key paths to every scalar of ``doc``; of a long array only the first and last entries."""
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list):
        items = list(enumerate(doc))
        items = items if len(items) <= 4 else [items[0], items[-1]]
    else:
        return [path]
    return [leaf for key, value in items for leaf in _leaves(value, (*path, key))]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    mcfg = ModelConfig(**_FUZZ_MODEL)
    save_checkpoint(root / "model.json", mcfg, init_parameters(mcfg))
    [scenario, _] = generate_synthetic(SynthConfig.from_dict(_FUZZ_CONFIG["synth"]))
    record = json.loads(serialize([scenario]))
    (root / "data.jsonl").write_text(json.dumps(record) + "\n")
    return {
        "record": (record, "data.jsonl", ["predict", "--model", str(root / "model.json"), "--data"]),
        "checkpoint": (json.loads((root / "model.json").read_text()), "model.json",
                       ["eval", "--data", str(root / "data.jsonl"), "--model"]),
        "config": (_FUZZ_CONFIG, "cfg.json", ["synth", "--out", str(root / "out.jsonl"), "--config"]),
    }


def _run_with_leaf(fuzz_inputs, target, leaf, literal):
    """Run the target's command on its input with ``leaf`` written as ``literal``;
    stdout must hold one JSON document and the exit code must be typed."""
    doc, name, argv = fuzz_inputs[target]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(_with_literal(doc, leaf, literal) + "\n")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(path)])
    assert code in (0, 2, 3), err.getvalue()
    text = out.getvalue()
    result, end = json.JSONDecoder().raw_decode(text)
    assert not text[end:].strip()
    return code, result


def _is_version_or_shape(target, leaf):
    """Checkpoint leaves that must hold exactly an int: no other literal may load."""
    return target == "checkpoint" and (leaf == ("format_version",) or (len(leaf) == 4 and leaf[2] == "shape"))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_one_wrong_leaf_gives_one_json_document_and_a_typed_exit(fuzz_inputs, data):
    target = data.draw(st.sampled_from(sorted(fuzz_inputs)), label="target")
    doc = fuzz_inputs[target][0]
    leaf = data.draw(st.sampled_from(_leaves(doc)), label="leaf")
    value = doc
    for key in leaf:
        value = value[key]
    twin = (json.dumps(float(value)),) if type(value) is int else ()  # same value, wrong type
    literal = data.draw(st.sampled_from(_FUZZ_LITERALS + twin), label="literal")
    code, _ = _run_with_leaf(fuzz_inputs, target, leaf, literal)
    if _is_version_or_shape(target, leaf):
        assert code != 0


@pytest.mark.parametrize(
    "leaf,literal",
    [
        (("format_version",), "true"),
        (("format_version",), "1.0"),
        (("parameters", "readout.b", "shape", 0), "true"),
        (("parameters", "readout.w", "shape", 0), "4.0"),
    ],
    ids=["version-true", "version-1.0", "shape-true", "shape-4.0"],
)
def test_checkpoint_version_and_shape_must_be_ints(fuzz_inputs, leaf, literal):
    assert _is_version_or_shape("checkpoint", leaf)
    code, doc = _run_with_leaf(fuzz_inputs, "checkpoint", leaf, literal)
    assert (code, doc["error"]["kind"]) == (2, "config")


# -- data errors (exit 3) -----------------------------------------------------------


def test_missing_and_malformed_data(tmp_path, capsys, cfg_path):
    code, doc, _ = _run(
        capsys, ["train", "--config", cfg_path, "--data", str(tmp_path / "nope.jsonl")]
    )
    assert code == 3 and doc["error"]["kind"] == "data"

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x"}\n')
    code, doc, _ = _run(capsys, ["train", "--config", cfg_path, "--data", str(bad)])
    assert code == 3


def test_too_short_scenarios_rejected_at_load(tmp_path, capsys, cfg_path):
    short = json.loads(open(cfg_path).read())
    short["synth"]["frames_per_scenario"] = 4  # model needs T + K = 5
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps(short))
    data = str(tmp_path / "short.jsonl")
    _run(capsys, ["synth", "--config", str(cfg2), "--out", data])
    code, doc, _ = _run(capsys, ["train", "--config", str(cfg2), "--data", data])
    assert code == 3 and "frames" in doc["error"]["message"]


def _error_cases(tmp_path, cfg_path):
    """One (data files, checkpoint, culprit) per way an eval or predict input can be wrong."""
    sections = json.loads(Path(cfg_path).read_text())
    mcfg = ModelConfig.from_dict(sections["model"])
    model = str(tmp_path / "model.json")
    save_checkpoint(model, mcfg, init_parameters(mcfg))
    good = generate_synthetic(SynthConfig(**sections["synth"]))

    def dataset(name, scenarios):
        path = str(tmp_path / f"{name}.jsonl")
        write_dataset(path, scenarios)
        return path

    short = generate_synthetic(SynthConfig(**dict(sections["synth"], frames_per_scenario=4, seed=8)))[0]
    wide = generate_synthetic(SynthConfig(**dict(sections["synth"], D=9, seed=9)))[0]
    frames = list(good[2].frames)
    first = frames[1].objects[0]
    huge = ObjectObservation(first.category, BoundingBox(-1.7e308, 0.0, 1.7e308, 10.0), first.feature)
    frames[1] = dataclasses.replace(frames[1], objects=(huge, *frames[1].objects[1:]))
    overflow = dataclasses.replace(good[2], frames=tuple(frames))
    broken = json.loads(Path(model).read_text())
    del broken["parameters"]["gcn.W"]
    broken_model = str(tmp_path / "broken.json")
    Path(broken_model).write_text(json.dumps(broken))
    data = dataset("good", good)
    return {
        "short": ([data, dataset("short", [short])], model, short.id, (3, "data")),
        "width": ([data, dataset("wide", [wide])], model, wide.id, (3, "data")),
        "overflow": ([dataset("overflow", [good[0], overflow, good[3]])], model, overflow.id, (3, "data")),
        "checkpoint": ([data], broken_model, "parameters", (2, "config")),
    }


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("case", ["short", "width", "overflow", "checkpoint"])
def test_bad_inputs_give_one_typed_error_naming_the_culprit(tmp_path, capsys, cfg_path, command, case):
    paths, model, culprit, expected = _error_cases(tmp_path, cfg_path)[case]
    argv = [command, "--model", model]
    for path in paths:
        argv += ["--data", path]
    code, doc, _ = _run(capsys, argv)  # json.loads: exactly one document
    assert (code, doc["error"]["kind"]) == expected
    assert culprit in doc["error"]["message"]


def test_predict_unknown_scenario_id(tmp_path, capsys, cfg_path):
    data = str(tmp_path / "data.jsonl")
    model = str(tmp_path / "model.json")
    _run(capsys, ["synth", "--config", cfg_path, "--out", data])
    _run(capsys, ["train", "--config", cfg_path, "--data", data, "--out", model])
    code, doc, _ = _run(
        capsys, ["predict", "--model", model, "--data", data, "--scenario", "ghost"]
    )
    assert code == 3 and "ghost" in doc["error"]["message"]


# -- non-finite logits (exit 4) ----------------------------------------------------

# One epoch of one batch at learning rate 1e300 moves every weight by about
# 1e300: the checkpoint stays finite, its logits do not.
_BLOWN = {
    "synth": {"n_scenarios": 4, "frames_per_scenario": 6, "D": 8, "seed": 0},
    "model": {"D": 8, "D_e": 6, "hidden": 8, "T": 3, "K": 2, "spatial_scale": 0.00078125, "seed": 1},
    "train": {"epochs": 1, "learning_rate": 1e300, "batch_size": 4, "seed": 1},
}


def _strict_json(text):
    """json.loads that rejects NaN and Infinity, as jq and other strict parsers do."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.fixture
def blown(tmp_path, capsys):
    """(config, dataset, checkpoint) paths; the checkpoint is one such step from its init."""
    cfg, data, model = (str(tmp_path / name) for name in ("blown.json", "data.jsonl", "model.json"))
    Path(cfg).write_text(json.dumps(_BLOWN))
    assert main(["synth", "--config", cfg, "--out", data]) == 0
    mcfg, tcfg = ModelConfig(**_BLOWN["model"]), TrainConfig(**_BLOWN["train"])
    values, grads = init_parameters(mcfg), {}
    for scenario in load(data):
        tape = GradientTape()
        for name, g in tape.backward(scenario_loss_tensor(scenario, mcfg, values, tape)).items():
            grads[name] = grads.get(name, 0.0) + g / _BLOWN["synth"]["n_scenarios"]
    grads, _ = clip_gradients(grads, tcfg.grad_clip_norm)
    save_checkpoint(model, mcfg, AdamOptimizer(tcfg).step(values, grads))
    capsys.readouterr()
    return cfg, data, model


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_train_with_non_finite_logits_is_a_numeric_error(blown, capsys):
    cfg, data, _ = blown
    out = cfg + ".ckpt"
    code = main(["train", "--config", cfg, "--data", data, "--out", out])
    doc = _strict_json(capsys.readouterr().out)
    assert (code, doc["error"]["kind"]) == (4, "numeric")
    assert "epoch 1" in doc["error"]["message"] and "synth-0-0000" in doc["error"]["message"]
    assert not Path(out).exists()
    assert not Path(out + ".manifest.json").exists()  # a manifest only for a run that finished


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_non_finite_logits_are_a_numeric_error(blown, capsys, command):
    _, data, model = blown
    code = main([command, "--model", model, "--data", data])
    doc = _strict_json(capsys.readouterr().out)
    assert (code, doc["error"]["kind"]) == (4, "numeric")
    assert "non-finite logits for scenario 'synth-0-0000" in doc["error"]["message"]


# -- synth geometry past the float range (exit 3) ----------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
@pytest.mark.parametrize(
    "command,synth",
    [
        ("synth", {"frame_height": 1.7e308}),
        ("synth", {"frame_width": 5e-324}),
        ("synth", {"ped_speed_range": [1, 1.7e308]}),
        ("gradcheck", {"frame_height": 1.7e308}),
    ],
)
def test_synth_config_that_overflows_is_a_data_error(tmp_path, capsys, command, synth):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"n_scenarios": 4, "frames_per_scenario": 6, "D": 8, "seed": 0, **synth}}))
    out = tmp_path / "data.jsonl"
    argv = ["synth", "--config", str(cfg), "--out", str(out)] if command == "synth" else ["gradcheck", "--config", str(cfg)]
    code = main(argv)
    doc = _strict_json(capsys.readouterr().out)
    assert (code, doc["error"]["kind"]) == (3, "data")
    assert "non-finite" in doc["error"]["message"] and "feature" in doc["error"]["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]  # no dataset, sidecar or .tmp file


# -- gradcheck (exit 0 or 4) ---------------------------------------------------------


def test_gradcheck_passes_with_defaults(capsys):
    code, doc, err = _run(capsys, ["gradcheck"])
    assert code == 0
    assert doc["passed"] is True
    assert doc["max_rel_error"] <= 1e-4
    assert doc["checked"] > 100  # every coordinate of every parameter


def test_gradcheck_impossible_tolerance_exits_4(capsys):
    code, doc, _ = _run(capsys, ["gradcheck", "--tol", "1e-18"])
    assert code == 4
    assert doc["error"]["kind"] == "numeric"
    assert "max rel error" in doc["error"]["message"]


@pytest.mark.parametrize("flag", ["--step", "--tol"])
@pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
def test_gradcheck_step_and_tol_must_be_finite_and_positive(capsys, flag, value):
    code, doc, err = _run(capsys, ["gradcheck", flag, value])
    assert (code, doc["error"]["kind"]) == (2, "config")
    assert flag in doc["error"]["message"]
    assert "checking" not in err  # rejected before any work


def _seed_argv(tmp_path, cfg_path):
    """A valid invocation of every subcommand that takes --seed."""
    data, model = str(tmp_path / "data.jsonl"), str(tmp_path / "model.json")
    sections = json.loads(Path(cfg_path).read_text())
    write_dataset(data, generate_synthetic(SynthConfig(**sections["synth"])))
    mcfg = ModelConfig.from_dict(sections["model"])
    save_checkpoint(model, mcfg, init_parameters(mcfg))
    return {
        "synth": ["synth", "--config", cfg_path, "--out", str(tmp_path / "out.jsonl")],
        "train": ["train", "--config", cfg_path, "--data", data, "--out", str(tmp_path / "out.json")],
        "eval": ["eval", "--model", model, "--data", data],
        "predict": ["predict", "--model", model, "--data", data],
        "gradcheck": ["gradcheck"],
        "ablate": ["ablate", "--config", cfg_path, "--data", data, "--out", str(tmp_path / "out.json")],
    }


@pytest.mark.parametrize("command", ["synth", "train", "eval", "predict", "gradcheck", "ablate"])
def test_negative_seed_is_a_config_error_for_every_subcommand(tmp_path, capsys, cfg_path, command):
    argv = _seed_argv(tmp_path, cfg_path)[command]
    assert build_parser().parse_args(argv).command == command  # valid without the seed
    code, doc, _ = _run(capsys, argv + ["--seed", "-1"])
    assert (code, doc["error"]["kind"]) == (2, "config")
    assert "--seed" in doc["error"]["message"]
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith("out.")]


@pytest.mark.parametrize("where", ["config", "checkpoint"])
def test_location_centric_is_a_config_error(tmp_path, capsys, cfg_path, where):
    argv = _seed_argv(tmp_path, cfg_path)["train" if where == "config" else "eval"]
    if where == "config":
        sections = json.loads(Path(cfg_path).read_text())
        sections["model"]["location_centric"] = True
        Path(cfg_path).write_text(json.dumps(sections))
    else:
        path = tmp_path / "model.json"
        doc = json.loads(path.read_text())
        doc["model"]["location_centric"] = True
        path.write_text(json.dumps(doc))
    code, doc, _ = _run(capsys, argv)
    assert (code, doc["error"]["kind"]) == (2, "config")
    assert "removed" in doc["error"]["message"]


# -- ablate -----------------------------------------------------------------------


def test_ablate_grid_runs_and_reports(tmp_path, capsys, cfg_path):
    data = str(tmp_path / "data.jsonl")
    out = tmp_path / "ablate.json"
    _run(capsys, ["synth", "--config", cfg_path, "--out", data])
    fast = json.loads(open(cfg_path).read())
    fast["train"]["epochs"] = 2
    cfg2 = tmp_path / "fast.json"
    cfg2.write_text(json.dumps(fast))
    code, doc, _ = _run(
        capsys,
        [
            "ablate", "--config", str(cfg2), "--data", data,
            "--grid", '{"model.num_layers": [0, 2]}', "--out", str(out),
        ],
    )
    assert code == 0
    assert doc["n_train"] == 3 and doc["n_test"] == 3
    assert [r["overrides"] for r in doc["runs"]] == [
        {"model.num_layers": 0}, {"model.num_layers": 2},
    ]
    for run in doc["runs"]:
        assert set(run) == {"overrides", "parameters", "train", "test"}
    assert json.loads(out.read_text()) == doc
    assert (tmp_path / "ablate.json.manifest.json").exists()


def test_ablate_manifest_records_the_config_sections_as_read(tmp_path, capsys, cfg_path):
    data = str(tmp_path / "data.jsonl")
    _run(capsys, ["synth", "--config", cfg_path, "--out", data])
    sections = json.loads(Path(cfg_path).read_text())
    sections["model"]["temporal"] = {"use_ctxt_gru": False}
    sections["train"]["epochs"] = 1
    Path(cfg_path).write_text(json.dumps(sections))
    out = str(tmp_path / "ablate.json")
    code, doc, _ = _run(
        capsys,
        ["ablate", "--config", cfg_path, "--data", data,
         "--grid", '{"model.temporal.use_ctxt_gru": [true]}', "--out", out],
    )
    assert code == 0
    manifest = json.loads(Path(out + ".manifest.json").read_text())
    assert manifest["config"]["sections"]["model"] == sections["model"]  # not the override


@pytest.mark.parametrize("target", ["model.json.manifest.json", "ablate.json"])
def test_interrupted_output_write_keeps_the_old_file(tmp_path, capsys, cfg_path, monkeypatch, target):
    data = str(tmp_path / "data.jsonl")
    _run(capsys, ["synth", "--config", cfg_path, "--out", data])
    (tmp_path / target).write_text("old\n")
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst).name == target:
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    if target == "ablate.json":
        argv = ["ablate", "--config", cfg_path, "--data", data,
                "--grid", '{"model.num_layers": [0]}', "--out", str(tmp_path / target)]
    else:
        argv = ["train", "--config", cfg_path, "--data", data, "--out", str(tmp_path / "model.json")]
    code, doc, _ = _run(capsys, argv)
    assert code == 3 and doc["error"]["kind"] == "data"
    assert "disk full" in doc["error"]["message"]
    assert (tmp_path / target).read_text() == "old\n"
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_failed_manifest_write_leaves_no_fresh_output(tmp_path, capsys, cfg_path, monkeypatch, command):
    data = str(tmp_path / "data.jsonl")
    _run(capsys, ["synth", "--config", cfg_path, "--out", data])
    out = tmp_path / f"{command}.json"
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst).name == out.name + ".manifest.json":
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    argv = [command, "--config", cfg_path, "--data", data, "--out", str(out)]
    if command == "ablate":
        argv += ["--grid", '{"model.num_layers": [0]}']
    code = main(argv)
    doc = _strict_json(capsys.readouterr().out)
    assert (code, doc["error"]["kind"]) == (3, "data")
    assert "disk full" in doc["error"]["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "data.jsonl", "data.jsonl.meta.json"]


@pytest.mark.parametrize(
    "grid,fraction",
    [
        ("not json", "0.5"),
        ("{}", "0.5"),
        ('{"model.num_layers": []}', "0.5"),
        ('{"optimizer.lr": [0.1]}', "0.5"),
        ('{"model.num_layers": [1]}', "1.5"),
    ],
)
def test_ablate_rejects_bad_grids_and_fractions(tmp_path, capsys, cfg_path, grid, fraction):
    data = str(tmp_path / "data.jsonl")
    _run(capsys, ["synth", "--config", cfg_path, "--out", data])
    code, doc, _ = _run(
        capsys,
        ["ablate", "--config", cfg_path, "--data", data, "--grid", grid,
         "--train-fraction", fraction],
    )
    assert code == 2, doc


def test_ablate_degenerate_split_is_a_data_error(tmp_path, capsys, cfg_path):
    data = str(tmp_path / "data.jsonl")
    _run(capsys, ["synth", "--config", cfg_path, "--out", data])
    code, doc, _ = _run(
        capsys,
        ["ablate", "--config", cfg_path, "--data", data,
         "--grid", '{"model.num_layers": [1]}', "--train-fraction", "0.05"],
    )
    assert code == 3


# -- internal errors (exit 5) --------------------------------------------------------


@pytest.mark.parametrize(
    "bug", [ShapeError("matmul: inner dimensions differ"), KeyError("edge.proj_i")], ids=["shape", "other"]
)
def test_program_bugs_are_internal_errors(tmp_path, capsys, cfg_path, monkeypatch, bug):
    # a ShapeError is a ValueError, but it signals an engine bug, not bad data
    data = str(tmp_path / "data.jsonl")
    model = str(tmp_path / "model.json")
    _run(capsys, ["synth", "--config", cfg_path, "--out", data])
    with open(cfg_path) as fh:
        mcfg = ModelConfig.from_dict(json.load(fh)["model"])
    save_checkpoint(model, mcfg, init_parameters(mcfg))

    def broken(*args, **kwargs):
        raise bug

    monkeypatch.setattr(cli, "forward_batch", broken)
    code, doc, err = _run(capsys, ["predict", "--model", model, "--data", data])  # one JSON document
    assert code == 5
    assert doc == {"error": {"kind": "internal", "message": f"{type(bug).__name__}: {bug}"}}
    assert "Traceback" in err


# -- argparse plumbing ---------------------------------------------------------------


def test_version_flag_and_missing_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "intent-graph" in capsys.readouterr().out
    code, doc, _ = _run(capsys, [])
    assert (code, doc["error"]["kind"]) == (2, "config")
    assert "command" in doc["error"]["message"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gradcheck", "--step", "abc"], "--step"),
        (["train", "--data", "x.jsonl", "--seed", "1.5"], "--seed"),
        (["eval", "--model", "m.json", "--data", "x.jsonl", "--seed", "1.5"], "--seed"),
        (["predict", "--model", "m.json"], "--data"),
        (["synth", "--out", "x.jsonl", "--bogus"], "--bogus"),
        (["frobnicate"], "frobnicate"),
    ],
)
def test_bad_command_lines_give_one_json_config_error(capsys, argv, flag):
    code, doc, err = _run(capsys, argv)
    assert (code, doc["error"]["kind"]) == (2, "config")
    assert flag in doc["error"]["message"]
    assert "usage:" not in err


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_eval_and_predict_reject_config_and_seed(tmp_path, capsys, cfg_path, command):
    argv = _seed_argv(tmp_path, cfg_path)[command]
    code, doc, _ = _run(capsys, argv)
    assert code == 0
    for extra in (["--config", "/nonexistent.json"], ["--seed", "7"]):
        code, doc, _ = _run(capsys, argv + extra)
        assert (code, doc["error"]["kind"]) == (2, "config")
        assert extra[0] in doc["error"]["message"]


def test_eval_on_empty_data_file_is_a_data_error(tmp_path, capsys, cfg_path):
    data = str(tmp_path / "data.jsonl")
    model = str(tmp_path / "model.json")
    _run(capsys, ["synth", "--config", cfg_path, "--out", data])
    _run(capsys, ["train", "--config", cfg_path, "--data", data, "--out", model])
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, doc, _ = _run(capsys, ["eval", "--model", model, "--data", str(empty)])
    assert code == 3
    assert doc["error"]["kind"] == "data"
