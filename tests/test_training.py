"""Optimizer math, loss reductions, the train loop, and evaluation metrics."""

import io
import json
import math

import numpy as np
import pytest

from intent_graph import training
from intent_graph.autodiff import GradientTape
from intent_graph.configs import ConfigError
from intent_graph.data import SynthConfig, generate_synthetic
from intent_graph.model import ModelConfig, forward_logits, future_labels, init_parameters
from intent_graph.training import (
    AdamOptimizer,
    EmptyDatasetError,
    NumericError,
    TrainConfig,
    aggregate_metrics,
    clip_gradients,
    evaluate,
    loss_from_logits,
    metrics_record,
    scenario_loss_tensor,
    train,
)


def _dataset(n=3, frames=8, seed=4):
    return generate_synthetic(SynthConfig(n_scenarios=n, frames_per_scenario=frames, D=8, seed=seed))


def _mcfg(**kw):
    base = dict(D=8, D_e=6, hidden=8, T=3, K=2, spatial_scale=1 / 1280, seed=1)
    base.update(kw)
    return ModelConfig(**base)


# -- Adam -------------------------------------------------------------------------


def _reference_adam(w, grads_seq, lr, b1=0.9, b2=0.999, eps=1e-8):
    # independent transcription of the bias-corrected update rule
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for k, g in enumerate(grads_seq, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**k)
        v_hat = v / (1 - b2**k)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


def test_adam_steps_match_hand_formula():
    w0 = np.array([[1.0, -2.0], [0.5, 3.0]])
    g1 = np.array([[0.5, -1.0], [0.0, 2.0]])
    g2 = np.array([[-0.25, 0.75], [1.0, -0.5]])
    opt = AdamOptimizer(TrainConfig(learning_rate=0.1))
    values = opt.step({"w": w0}, {"w": g1})
    values = opt.step(values, {"w": g2})
    want = _reference_adam(w0, [g1, g2], lr=0.1)
    assert np.allclose(values["w"], want, atol=1e-15)


def test_first_adam_step_is_signed_step():
    # with zero moment history the bias-corrected update is lr * g/(|g|+eps)
    opt = AdamOptimizer(TrainConfig(learning_rate=0.01))
    out = opt.step({"w": np.array([[2.0]])}, {"w": np.array([[123.0]])})
    assert out["w"][0, 0] == pytest.approx(2.0 - 0.01, rel=1e-7)


def test_zero_learning_rate_is_a_no_op():
    data = _dataset()
    cfg = _mcfg()
    init = init_parameters(cfg)
    res = train(data, cfg, TrainConfig(learning_rate=0.0, epochs=2), initial=init)
    for name in init:
        assert np.array_equal(res.params[name], init[name]), name


# -- gradient clipping -----------------------------------------------------------


def test_clip_gradients_norm_math():
    grads = {"a": np.array([[3.0]]), "b": np.array([[4.0]])}
    same, norm = clip_gradients(dict(grads), max_norm=10.0)
    assert norm == 5.0
    assert np.array_equal(same["a"], grads["a"])
    clipped, norm = clip_gradients(dict(grads), max_norm=2.0)
    assert norm == 5.0  # reports the pre-clip norm
    assert np.allclose(clipped["a"], [[1.2]]) and np.allclose(clipped["b"], [[1.6]])
    total = math.sqrt(sum(float(np.sum(g * g)) for g in clipped.values()))
    assert total == pytest.approx(2.0)
    zeros, norm = clip_gradients({"a": np.zeros((2, 2))}, max_norm=1.0)
    assert norm == 0.0 and np.all(zeros["a"] == 0.0)


# -- losses -----------------------------------------------------------------------


def test_loss_from_logits_frozen_values():
    assert loss_from_logits([0.0], [1]) == pytest.approx(math.log(2.0), abs=1e-15)
    want = (math.log1p(math.exp(-2.0)) + math.log1p(math.exp(-3.0))) / 2
    assert loss_from_logits([2.0, -3.0], [1, 0]) == pytest.approx(want, abs=1e-15)
    # stable at extreme logits
    assert loss_from_logits([800.0], [1]) == 0.0
    assert loss_from_logits([-800.0], [0]) == 0.0
    assert loss_from_logits([800.0], [0]) == pytest.approx(800.0)


def test_loss_from_logits_validation():
    with pytest.raises(ValueError):
        loss_from_logits([0.0, 1.0], [1])
    with pytest.raises(ValueError):
        loss_from_logits([], [])
    with pytest.raises(ValueError):
        loss_from_logits([0.0], [2])


def test_scenario_loss_tensor_equals_scalar_loss():
    data = _dataset(n=1)
    cfg = _mcfg()
    values = init_parameters(cfg)
    tape = GradientTape()
    tensor_loss = scenario_loss_tensor(data[0], cfg, values, tape).item()
    logits = [t.item() for t in forward_logits(data[0], cfg, values)]
    assert tensor_loss == pytest.approx(loss_from_logits(logits, future_labels(data[0], cfg)), abs=1e-14)


# -- metric aggregation ----------------------------------------------------------


def test_aggregate_metrics_hand_case():
    per = [
        ([0.9, 0.4], [1, 1], 0.3),
        ([0.2, 0.5], [0, 1], 0.1),  # 0.5 sits on the boundary and predicts 1
    ]
    report = aggregate_metrics(per)
    assert report.avg_accuracy_1_to_K == pytest.approx(3 / 4)
    assert report.accuracy_at_K == pytest.approx(1 / 2)
    assert report.mean_confidence_per_step == pytest.approx((0.55, 0.45))
    assert report.loss == pytest.approx(0.2)
    assert report.to_dict()["mean_confidence_per_step"] == list(report.mean_confidence_per_step)


def test_aggregate_metrics_rejects_mixed_horizons():
    with pytest.raises(ValueError):
        aggregate_metrics([([0.9], [1], 0.0), ([0.9, 0.1], [1, 0], 0.0)])
    with pytest.raises(EmptyDatasetError):
        aggregate_metrics([])


# -- train loop -------------------------------------------------------------------


def test_train_emits_one_metrics_line_per_epoch():
    data = _dataset()
    cfg = _mcfg()
    out = io.StringIO()
    res = train(data, cfg, TrainConfig(epochs=4, learning_rate=0.01), metrics_out=out)
    assert len(res.history) == 4
    lines = out.getvalue().splitlines()
    assert len(lines) == 4
    for i, line in enumerate(lines, start=1):
        rec = json.loads(line)
        assert rec["epoch"] == i
        assert set(rec) == {"epoch", "loss", "avg_acc", "acc_at_K", "confidences"}
        assert len(rec["confidences"]) == cfg.K
    assert json.loads(lines[-1]) == metrics_record(4, res.history[-1])


def test_training_reduces_loss_on_one_scenario():
    data = _dataset(n=1)
    cfg = _mcfg()
    res = train(data, cfg, TrainConfig(epochs=60, learning_rate=0.05))
    assert res.history[-1].loss < res.history[0].loss


def test_same_seed_training_is_byte_identical():
    data = _dataset()
    cfg = _mcfg()
    streams = []
    for _ in range(2):
        out = io.StringIO()
        train(data, cfg, TrainConfig(epochs=3, learning_rate=0.05), metrics_out=out)
        streams.append(out.getvalue())
    assert streams[0] == streams[1]
    out = io.StringIO()
    train(data, cfg, TrainConfig(epochs=3, learning_rate=0.05, seed=99), metrics_out=out)
    assert out.getvalue() != streams[0]  # shuffle order feeds the trajectory


def test_batching_changes_trajectory_but_stays_deterministic():
    data = _dataset(n=4)
    cfg = _mcfg()
    a = train(data, cfg, TrainConfig(epochs=2, learning_rate=0.05, batch_size=4))
    b = train(data, cfg, TrainConfig(epochs=2, learning_rate=0.05, batch_size=4))
    c = train(data, cfg, TrainConfig(epochs=2, learning_rate=0.05, batch_size=1))
    assert a.history[-1] == b.history[-1]
    assert a.history[-1] != c.history[-1]


def test_nonfinite_loss_raises_numeric_error():
    data = _dataset(n=1)
    cfg = _mcfg()
    init = init_parameters(cfg)
    init["readout.b"] = np.array([[np.inf]])
    with pytest.raises(NumericError, match="epoch 1"):
        train(data, cfg, TrainConfig(epochs=1), initial=init)


def test_empty_dataset_rejected():
    cfg = _mcfg()
    with pytest.raises(EmptyDatasetError):
        train([], cfg, TrainConfig())
    with pytest.raises(EmptyDatasetError):
        evaluate([], cfg, init_parameters(cfg))


# -- evaluation -------------------------------------------------------------------


def test_evaluate_is_pure_and_repeatable():
    data = _dataset()
    cfg = _mcfg()
    values = init_parameters(cfg)
    assert evaluate(data, cfg, values) == evaluate(data, cfg, values)


# -- config -----------------------------------------------------------------------


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(epsilon=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(grad_clip_norm=0.0)
    with pytest.raises(ConfigError, match="train."):
        TrainConfig.from_dict({"learning_rate": 0.1, "bogus": 1})


def test_train_config_dict_roundtrip():
    cfg = TrainConfig(learning_rate=0.02, epochs=7, batch_size=3, seed=5)
    assert TrainConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_train_re_evaluates_through_the_module_global(monkeypatch):
    # the benchmark's training.epoch_eval span wraps training.evaluate, so
    # train() must look it up there once per epoch
    data = _dataset()
    cfg = _mcfg()
    tcfg = TrainConfig(epochs=3, learning_rate=0.01, seed=2)
    plain = io.StringIO()
    train(data, cfg, tcfg, metrics_out=plain)
    calls = []
    original = training.evaluate

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    monkeypatch.setattr(training, "evaluate", counting)
    counted = io.StringIO()
    train(data, cfg, tcfg, metrics_out=counted)
    assert calls == [len(data)] * 3
    assert counted.getvalue() == plain.getvalue()


def test_final_history_entry_matches_a_fresh_evaluation():
    data = _dataset()
    cfg = _mcfg()
    res = train(data, cfg, TrainConfig(epochs=3, learning_rate=0.01, seed=2))
    assert res.history[-1] == evaluate(data, cfg, res.params)


def test_untrained_model_sits_near_the_coin_flip_loss():
    # zero readout bias and small random weights keep every logit near 0,
    # so the per-step loss starts in a window around ln 2
    data = _dataset(n=6, frames=9, seed=11)
    cfg = _mcfg(seed=7)
    report = evaluate(data, cfg, init_parameters(cfg))
    assert abs(report.loss - math.log(2.0)) < 0.05
