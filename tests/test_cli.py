"""Command-line behavior, exercised in process through main(argv).

Stdout must always hold exactly one JSON document; human chatter goes to
stderr. Exit codes: 0 ok, 2 config, 3 data, 4 numeric, 5 internal.
"""

import json
import os
from pathlib import Path

import pytest

from intent_graph import cli
from intent_graph.autodiff import ShapeError
from intent_graph.cli import main
from intent_graph.model import ModelConfig, init_parameters, load_checkpoint, save_checkpoint


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


def test_predict_unknown_scenario_id(tmp_path, capsys, cfg_path):
    data = str(tmp_path / "data.jsonl")
    model = str(tmp_path / "model.json")
    _run(capsys, ["synth", "--config", cfg_path, "--out", data])
    _run(capsys, ["train", "--config", cfg_path, "--data", data, "--out", model])
    code, doc, _ = _run(
        capsys, ["predict", "--model", model, "--data", data, "--scenario", "ghost"]
    )
    assert code == 3 and "ghost" in doc["error"]["message"]


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

    monkeypatch.setattr(cli, "forward", broken)
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
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


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
