"""Release criteria, one test per numbered criterion.

Each test pins its tolerances inline; the conftest summary hook prints one
ACCEPTANCE line per criterion at the end of the run. The learnability
fixture (criteria 6-8) trains the full layer sweep once per session.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from intent_graph import autodiff as ad
from intent_graph.cli import main as cli_main
from intent_graph.data import SynthConfig, generate_synthetic
from intent_graph.graph import build_adjacency, graph_conv
from intent_graph.model import (
    ModelConfig,
    forward_logits,
    init_parameters,
    parameter_count,
)
from intent_graph.training import TrainConfig, evaluate, train


def test_criterion_01_gradient_fidelity(capsys, acceptance_notes):
    started = time.perf_counter()
    code = cli_main(["gradcheck"])
    elapsed = time.perf_counter() - started
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["passed"] is True
    assert doc["max_rel_error"] <= 1e-4
    assert elapsed < 30.0
    acceptance_notes[1] = (
        f"max rel err {doc['max_rel_error']:.2e} over {doc['checked']} coords in {elapsed:.1f}s"
    )


def test_criterion_02_star_adjacency_properties():
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        n = int(rng.integers(0, 11))
        values = rng.uniform(1e-9, 1.0 - 1e-9, size=n)
        a = build_adjacency(values.reshape(1, n))[0][0]
        assert a.shape == (n + 1, n + 1)
        assert np.array_equal(a, a.T)
        assert np.array_equal(np.diag(a), np.ones(n + 1))
        off = a - np.diag(np.diag(a))
        assert np.count_nonzero(off) == 2 * n
        nz = off[off != 0.0]
        assert np.all((nz > 0.0) & (nz < 1.0))


def _with_objects(frame, objects):
    return dataclasses.replace(frame, objects=tuple(objects))


def test_criterion_03_permutation_invariance(acceptance_notes):
    scenarios = generate_synthetic(
        SynthConfig(n_scenarios=100, frames_per_scenario=6, D=8, seed=1)
    )
    cfg = ModelConfig(D=8, D_e=6, hidden=8, T=4, K=2, spatial_scale=1 / 1280, seed=2)
    values = init_parameters(cfg)
    rng = np.random.default_rng(0)
    for scenario in scenarios:
        base = [t.item() for t in forward_logits(scenario, cfg, values)]
        frames = [
            _with_objects(f, (f.objects[i] for i in rng.permutation(len(f.objects))))
            for f in scenario.frames
        ]
        shuffled = dataclasses.replace(scenario, frames=tuple(frames))
        again = [t.item() for t in forward_logits(shuffled, cfg, values)]
        assert again == base, scenario.id  # bitwise, not approximate
    acceptance_notes[3] = "100/100 scenarios bit-identical"


def test_criterion_04_hand_instance_conformance():
    a = ad.constant(build_adjacency(np.array([[0.5, 0.25]]))[0][0])
    want = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.0], [0.25, 0.0, 1.0]])
    assert np.max(np.abs(a.data - want)) <= 1e-12

    # N=1, one layer, w1=0.5: pedestrian row of Z must equal (x_ped + 0.5 x_obj) W
    adj = build_adjacency(np.array([[0.5]]))[0]
    x = ad.constant(np.array([[1.0, 2.0], [3.0, -1.0]]))
    w = ad.constant(np.array([[1.0, 0.0], [2.0, 1.0]]))
    z = ad.constant(graph_conv(adj, x.data[None], [w.data])[0][0])
    hand = (np.array([1.0, 2.0]) + 0.5 * np.array([3.0, -1.0])) @ w.data
    assert np.max(np.abs(z.data[0] - hand)) <= 1e-12
    assert np.max(np.abs(z.data[0] - np.array([5.5, 1.5]))) <= 1e-12


def test_criterion_05_single_scenario_overfit(learn_recipe, acceptance_notes):
    scenario = generate_synthetic(
        SynthConfig(n_scenarios=1, frames_per_scenario=8, D=16, seed=0)
    )
    cfg = ModelConfig(**learn_recipe["model"])
    result = train(scenario, cfg, TrainConfig(epochs=200, learning_rate=0.01, seed=3))
    final = result.history[-1]
    assert final.loss < 0.05
    assert final.avg_accuracy_1_to_K == 1.0
    acceptance_notes[5] = f"loss {final.loss:.4f}, accuracy {final.avg_accuracy_1_to_K:.0%}"


def test_criterion_06_learnability(learnability, acceptance_notes):
    run = learnability.by_layers[2]
    train_acc = run.train_report.avg_accuracy_1_to_K
    test_acc = run.test_report.avg_accuracy_1_to_K
    acceptance_notes[6] = (
        f"train {train_acc:.1%}, test {test_acc:.1%}, {run.train_seconds:.0f}s"
    )
    assert len(learnability.train_set) == 32 and len(learnability.test_set) == 32
    assert train_acc >= 0.95
    assert test_acc >= 0.85
    assert run.train_seconds < 600.0


def test_criterion_07_layers_help(learnability, acceptance_notes):
    accs = {
        layers: run.test_report.avg_accuracy_1_to_K
        for layers, run in sorted(learnability.by_layers.items())
    }
    acceptance_notes[7] = "test acc by layers " + ", ".join(
        f"{k}: {v:.1%}" for k, v in accs.items()
    )
    assert accs[2] >= accs[0]


def test_criterion_08_horizon_degradation(learnability, acceptance_notes):
    run = learnability.by_layers[2]
    notes = []
    for horizon in (4, 8):
        cfg = dataclasses.replace(run.cfg, K=horizon)
        report = evaluate(learnability.test_set, cfg, run.params)
        per_step = ", ".join(f"{c:.2f}" for c in report.mean_confidence_per_step)
        notes.append(
            f"K={horizon}: acc@K {report.accuracy_at_K:.1%} vs avg "
            f"{report.avg_accuracy_1_to_K:.1%}, conf [{per_step}]"
        )
        assert report.accuracy_at_K <= report.avg_accuracy_1_to_K, horizon
    acceptance_notes[8] = "; ".join(notes)


def test_criterion_09_seeded_runs_are_byte_identical(tmp_path, capsys):
    cfg = {
        "synth": {"n_scenarios": 6, "frames_per_scenario": 7, "D": 8, "seed": 3},
        "model": {
            "D": 8, "D_e": 6, "hidden": 8, "T": 3, "K": 2,
            "spatial_scale": 1 / 1280, "seed": 1,
        },
        "train": {"epochs": 5, "learning_rate": 0.01, "seed": 1},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    data = str(tmp_path / "data.jsonl")
    assert cli_main(["synth", "--config", str(cfg_path), "--out", data]) == 0
    capsys.readouterr()

    artifacts = []
    for tag in ("first", "second"):
        model = tmp_path / f"{tag}.model.json"
        metrics = tmp_path / f"{tag}.metrics.jsonl"
        assert (
            cli_main(
                ["train", "--config", str(cfg_path), "--data", data,
                 "--out", str(model), "--metrics", str(metrics)]
            )
            == 0
        )
        capsys.readouterr()
        assert cli_main(["eval", "--model", str(model), "--data", data]) == 0
        eval_stdout = capsys.readouterr().out
        artifacts.append((metrics.read_bytes(), model.read_bytes(), eval_stdout))

    assert artifacts[0][0] == artifacts[1][0]  # metrics files byte-identical
    assert artifacts[0][1] == artifacts[1][1]  # checkpoints byte-identical
    assert artifacts[0][2] == artifacts[1][2]  # eval reports identical


def test_criterion_10_shared_parameter_count(learn_recipe, acceptance_notes):
    base = learn_recipe["model"]
    two = parameter_count(ModelConfig(num_layers=2, **base))
    three = parameter_count(ModelConfig(num_layers=3, **base))
    acceptance_notes[10] = f"{two} parameters at both depths"
    assert two == three
