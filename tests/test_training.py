"""Optimizer math, loss reductions, the train loop, and evaluation metrics."""

import copy
import dataclasses
import io
import json
import math
import pickle
import re

import numpy as np
import pytest

from intent_graph import training
from intent_graph.autodiff import GradientTape, Tensor
from intent_graph.configs import ConfigError
from intent_graph.data import SynthConfig, generate_synthetic
from intent_graph.model import (
    ModelConfig,
    Parameters,
    check_parameters,
    forward,
    forward_chunk,
    forward_logits,
    future_labels,
    init_parameters,
    parameter_count,
    parameter_shapes,
)
from intent_graph.recurrent import TemporalConfig
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

from intent_graph.scene import BoundingBox

from reference_ops import ReferenceAdam, reference_aggregate_metrics, reference_clip, reference_train
from test_model import _batch_cfg, _mixed_batch, unchecked_parameters


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


def _adam_buffer(w0):
    buffer = np.zeros((4, w0.size))
    buffer[0] = w0.reshape(-1)
    return buffer


def test_adam_steps_match_hand_formula():
    w0 = np.array([[1.0, -2.0], [0.5, 3.0]])
    g1 = np.array([[0.5, -1.0], [0.0, 2.0]])
    g2 = np.array([[-0.25, 0.75], [1.0, -0.5]])
    opt = AdamOptimizer(TrainConfig(learning_rate=0.1))
    buffer = _adam_buffer(w0)
    for g in (g1, g2):
        buffer[1] = g.reshape(-1)
        opt.step(buffer)
    want = _reference_adam(w0, [g1, g2], lr=0.1)
    assert np.allclose(buffer[0].reshape(2, 2), want, atol=1e-15)


def test_first_adam_step_is_signed_step():
    # with zero moment history the bias-corrected update is lr * g/(|g|+eps)
    opt = AdamOptimizer(TrainConfig(learning_rate=0.01))
    buffer = _adam_buffer(np.array([[2.0]]))
    buffer[1] = 123.0
    opt.step(buffer)
    assert buffer[0, 0] == pytest.approx(2.0 - 0.01, rel=1e-7)


def test_flat_adam_is_bit_identical_to_the_per_parameter_update():
    # signed zeros included: a -0.0 gradient keeps its sign through the first moment
    rng = np.random.default_rng(3)
    cfg = ModelConfig(D=2, D_e=2, hidden=2, graph_mode="pedestrian_only")
    shapes = parameter_shapes(cfg)
    values = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    values["pred_gru.b_r"][0, 1] = -0.0
    tcfg = TrainConfig(learning_rate=0.02)
    buffer = np.zeros((4, parameter_count(cfg)))
    views = Parameters(cfg, buffer[0])  # the views train() builds over its buffer
    for name, value in values.items():
        views[name][...] = value
    flat, reference = AdamOptimizer(tcfg), ReferenceAdam(tcfg)
    for step in range(4):
        grads = {name: rng.standard_normal(shape) * 10.0 ** (step - 2) for name, shape in shapes.items()}
        grads["pred_gru.b_r"][0, 1] = -0.0
        buffer[1] = np.concatenate([g.reshape(-1) for g in grads.values()])
        flat.step(buffer)
        values = reference.step(values, grads)
        for name in shapes:
            assert views[name].tobytes() == values[name].tobytes(), (step, name)


def _assert_views_of_the_row(p, cfg, lead=()):
    # every view and every cell block is a reshape of its span of p.row, in parameter_shapes
    # order: its bytes are the span's, and it shares the row's memory (a reshape that copied
    # would not)
    assert set(p.cells) == {"ped_gru", "ctxt_gru", "agg_gru", "pred_gru"}
    assert p.row.shape == (*lead, parameter_count(cfg))
    at = 0
    for name, (rows, cols) in parameter_shapes(cfg).items():
        view = p[name]
        assert view.shape == (*lead, rows, cols) and np.shares_memory(view, p.row), name
        assert view.tobytes() == p.row[..., at : at + rows * cols].tobytes(), name
        at += rows * cols
    for cell, (W, b) in p.cells.items():
        for block, gates in ((W, ("W_z", "W_r", "W_h")), (b, ("b_z", "b_r", "b_h"))):
            assert block.shape[:-2] == (*lead, 3) and np.shares_memory(block, p.row)
            for k, gate in enumerate(gates):
                view = p[f"{cell}.{gate}"]
                assert np.shares_memory(block[..., k, :, :], view), (cell, gate)
                assert block[..., k, :, :].tobytes() == view.tobytes(), (cell, gate)


def test_cell_blocks_and_train_views_share_the_flat_row(monkeypatch):
    # a cell's gate blocks are reshapes of its spans of the one row, made once: neither
    # check_parameters nor train() re-stacks them per call; a (B, P) row leads every view with B
    cfg = _mcfg(temporal=TemporalConfig(use_ctxt_gru=True))
    _assert_views_of_the_row(check_parameters(cfg, init_parameters(cfg)), cfg)
    rows = np.random.default_rng(5).standard_normal((3, parameter_count(cfg)))
    rows[1, 7] = -0.0
    p = Parameters(cfg, rows)
    _assert_views_of_the_row(p, cfg, lead=(3,))
    for b in range(3):
        alone = Parameters(cfg, rows[b])
        for name, view in p.items():
            assert view[b].tobytes() == alone[name].tobytes(), (b, name)
    seen, outs, chunk_gradients = [], [], training._chunk_gradients

    def spy(chunk, cfg, p, epoch=None, out=None):
        seen.append(p)
        outs.append(out)
        return chunk_gradients(chunk, cfg, p, epoch, out)

    monkeypatch.setattr(training, "_chunk_gradients", spy)
    train(_dataset(), cfg, TrainConfig(epochs=2))
    assert len(seen) == 6 and all(views is seen[0] for views in seen)  # one set of views for the whole run
    assert all(grads is outs[0] for grads in outs) and outs[0].row.shape == (1, parameter_count(cfg))  # one gradient row too
    views = seen[0]
    assert views.row.base.shape == (4, parameter_count(cfg))  # the value row of train()'s buffer
    assert all(np.shares_memory(view, views.row) for view in views.values())
    for W, b in views.cells.values():
        assert np.shares_memory(W, views.row) and np.shares_memory(b, views.row)


def test_chunk_gradients_are_views_of_one_batch_row():
    # backward_chunk writes every scenario's gradients into its row of one (B, P) array
    cfg = _mcfg(temporal=TemporalConfig(use_ctxt_gru=True), graph_mode="fully_connected")
    _, grads = training._chunk_gradients(_dataset(n=4), cfg, check_parameters(cfg, init_parameters(cfg)))
    _assert_views_of_the_row(grads, cfg, lead=(4,))


def test_train_returns_parameters_over_a_row_of_their_own(monkeypatch):
    # one copy of the value row, which check_parameters then takes as it is
    cfg = _mcfg()
    buffers, step = [], training.AdamOptimizer.step
    monkeypatch.setattr(training.AdamOptimizer, "step", lambda self, buffer: buffers.append(buffer) or step(self, buffer))
    result = train(_dataset(), cfg, TrainConfig(epochs=2))
    params = result.params
    assert isinstance(params, Parameters) and params.row.shape == (parameter_count(cfg),)
    assert isinstance(params, dict)  # the benchmark's digest hashes a dict output by name, anything else by its repr
    assert check_parameters(cfg, params) is params
    for q in (copy.deepcopy(params), pickle.loads(pickle.dumps(params))):  # rebuilt over a row of their own
        assert check_parameters(cfg, q) is q and q.row.tobytes() == params.row.tobytes()
        assert not np.shares_memory(q.row, params.row) and all(np.shares_memory(v, q.row) for v in q.values())
    before = params.row.tobytes()
    assert buffers[-1][0].tobytes() == before  # the value row at the end of the run
    buffers[-1][:] = np.nan
    assert params.row.tobytes() == before and not np.shares_memory(params.row, buffers[-1])
    # as an initial value it is read, not trained in place
    assert train(_dataset(), cfg, TrainConfig(epochs=2), initial=params).params.row.tobytes() != before
    assert params.row.tobytes() == before


def test_an_empty_initial_mapping_is_refused():
    # an empty mapping is given parameters with every name missing, not "no initial parameters"
    with pytest.raises(ConfigError, match=r"^parameter names do not match the config \(missing \['agg_gru\.W_h'"):
        train(_dataset(), _mcfg(), TrainConfig(epochs=1), initial={})


def test_zero_learning_rate_is_a_no_op():
    data = _dataset()
    cfg = _mcfg()
    init = init_parameters(cfg)
    res = train(data, cfg, TrainConfig(learning_rate=0.0, epochs=2), initial=init)
    for name in init:
        assert np.array_equal(res.params[name], init[name]), name


# -- gradient clipping -----------------------------------------------------------


def test_clip_gradients_norm_math():
    cfg = _mcfg()
    grads = Parameters(cfg, np.zeros(parameter_count(cfg)))
    grads["readout.w"][0, 0], grads["readout.b"][0, 0] = 3.0, 4.0  # the 1-entry readout.b is a block of its own
    assert clip_gradients(grads, max_norm=10.0) == 5.0
    assert grads["readout.w"][0, 0] == 3.0 and grads["readout.b"][0, 0] == 4.0
    assert clip_gradients(grads, max_norm=2.0) == 5.0  # reports the pre-clip norm, scales in place
    assert np.allclose([grads["readout.w"][0, 0], grads["readout.b"][0, 0]], [1.2, 1.6])
    assert math.sqrt(float(np.sum(grads.row * grads.row))) == pytest.approx(2.0)
    zeros = Parameters(cfg, np.zeros(parameter_count(cfg)))
    assert clip_gradients(zeros, max_norm=1.0) == 0.0 and np.all(zeros.row == 0.0)


def _clip_case(rng, cfg):
    """{name: gradient} of cfg's shapes, mixed magnitudes and signed zeros, and Parameters over the flat row holding them."""
    shapes = parameter_shapes(cfg)
    grads = {name: rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape) for name, shape in shapes.items()}
    for g in grads.values():
        g[rng.random(g.shape) < 0.1] = -0.0
    return grads, Parameters(cfg, np.concatenate([g.reshape(-1) for g in grads.values()]))


def _assert_clips_as_the_reference(rng, cfg, max_norm):
    grads, p = _clip_case(rng, cfg)
    want, want_norm = reference_clip(grads, max_norm)
    assert clip_gradients(p, max_norm) == want_norm, cfg
    assert p.row.tobytes() == np.concatenate([want[name].reshape(-1) for name in grads]).tobytes(), cfg


def test_clip_gradients_keeps_the_per_parameter_norm_and_scaling():
    # the flat row's norm has the bits of one np.sum per parameter: every parameter shape of the
    # batch configs and of the benchmark's, at norms either side of the bound
    rng = np.random.default_rng(9)
    stacks = ("L2-shared", "L3-unshared-norm-cls")
    for mode in ("star", "fully_connected", "concat_baseline", "pedestrian_only"):
        configs = [_batch_cfg(mode, temporal, stack) for temporal in ("default", "ctxt", "pooled") for stack in stacks]
        configs.append(ModelConfig(D=16, D_e=16, hidden=16, graph_mode=mode, temporal=TemporalConfig(use_ctxt_gru=True)))
        for cfg in configs:
            for _ in range(10):
                _assert_clips_as_the_reference(rng, cfg, float(rng.choice([1e-3, 5.0, 1e9])))


def test_clip_gradients_sums_each_block_row_by_row_as_lone_parameters():
    # a GRU cell's three weights, or three biases, are one (3, rows, cols) block reduced along its rows; each row must
    # keep the bits of that parameter's own np.sum, also past NumPy's 8192-entry buffer (a width-96 cell's
    # 288 x 96 weights, a 96 x 96 gcn.W) and for 1 x 1 entries (width 1, and readout.b in every config)
    rng = np.random.default_rng(13)
    ctxt = TemporalConfig(use_ctxt_gru=True)
    wide = ModelConfig(D=96, D_e=96, hidden=96, num_layers=3, shared_weights=False, temporal=ctxt)
    narrow = ModelConfig(D=1, D_e=1, hidden=1, graph_mode="fully_connected", include_object_class=True)
    assert max(r * c for r, c in parameter_shapes(wide).values()) > 8192
    for cfg in (wide, narrow, dataclasses.replace(wide, graph_mode="pedestrian_only")):
        for max_norm in (1e-3, 1e12):
            _assert_clips_as_the_reference(rng, cfg, max_norm)


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
    mixed = [([0.9], [1], 0.0), ([0.9, 0.1], [1, 0], 0.0)]
    short_labels = [([0.9, 0.1], [1, 0], 0.0), ([0.9, 0.1], [1], 0.0)]
    for aggregate in (aggregate_metrics, reference_aggregate_metrics):
        for per in (mixed, short_labels):
            with pytest.raises(ValueError, match="inconsistent horizons"):
                aggregate(per)
        with pytest.raises(EmptyDatasetError):
            aggregate([])
    with pytest.raises(ValueError, match="empty horizon"):
        aggregate_metrics([([], [], 0.0)])
    with pytest.raises(ValueError, match="inconsistent horizons"):  # not empty: one scenario has frames
        aggregate_metrics([([], [], 0.0), ([0.9], [1], 0.0)])
    with pytest.raises(IndexError):  # the loop kept as the reference has no final step to read
        reference_aggregate_metrics([([], [], 0.0)])


def _report_bits(report):
    """Every float of an EvalReport, so that -0.0 and +0.0 differ."""
    floats = [report.avg_accuracy_1_to_K, report.accuracy_at_K, *report.mean_confidence_per_step, report.loss]
    return np.array(floats).tobytes()


def _random_triples(rng, n, horizon):
    scale = rng.choice([1.0, 1e-8, 1e8], size=(n, horizon))  # mixed magnitudes, so the order of the sums shows
    probs = (rng.random((n, horizon)) * scale).tolist()
    labels = rng.integers(0, 2, (n, horizon)).tolist()
    return list(zip(probs, labels, (rng.random(n) * 3.0).tolist()))


@pytest.mark.parametrize("horizon", [1, 2, 4])
@pytest.mark.parametrize("n", [9, 64, 257])
def test_aggregate_metrics_matches_the_loop_on_random_triples(n, horizon):
    # at horizon 1, np.sum over the scenarios would add pairwise and differ from the loop
    per = _random_triples(np.random.default_rng(n * horizon), n, horizon)
    got, want = aggregate_metrics(per), reference_aggregate_metrics(per)
    assert got == want
    assert _report_bits(got) == _report_bits(want)


@pytest.mark.parametrize(
    "per",
    [
        [([0.5, 0.4999999999999999], [1, 0], 0.2), ([0.5, 0.5], [0, 1], 0.1)],  # 0.5 predicts crossing
        [([-0.0, 0.3], [0, 0], 0.1)],  # the sum starts at +0.0: the mean is +0.0, not -0.0
        [([-0.0, -0.0], [0, 1], -0.0), ([0.0, 0.7], [0, 1], 0.0)],
        [([0.9, 0.1], [2, 0], 0.3), ([0.1, 0.9], [-1, 1.0], 0.4)],  # labels outside {0, 1} are misses
        [([0.9, 0.1], [True, False], 0.3)],
    ],
    ids=["half", "negative-zero", "negative-zero-loss", "stray-labels", "bool-labels"],
)
def test_aggregate_metrics_matches_the_loop_on_edge_cases(per):
    got, want = aggregate_metrics(per), reference_aggregate_metrics(per)
    assert got == want
    assert _report_bits(got) == _report_bits(want)


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


# -- tape-free training: bit for bit the taped loop ----------------------------------


def _training_set():
    """20 scenarios whose frames hold 0 to 6 objects, some frames empty: batch 3 and 8 leave a
    ragged last batch, and at CHUNK 8 batch 20 spans three stacked passes, the last ragged."""
    extra = generate_synthetic(
        SynthConfig(n_scenarios=13, frames_per_scenario=7, D=6, seed=22, vehicle_count_range=(0, 5))
    )
    return [*_mixed_batch(), *extra]


TRAIN_CASES = [
    ("star", "default", "L2-shared"),
    ("fully_connected", "ctxt", "L3-unshared-norm-cls"),
    ("star", "pooled", "L0"),
    ("fully_connected", "no-ped-gru", "L2-shared"),
    ("concat_baseline", "default", "L2-shared"),
    ("pedestrian_only", "pooled", "L2-shared"),
]


@pytest.mark.parametrize("batch_size", [1, 3, 8, 20])
@pytest.mark.parametrize("case", TRAIN_CASES, ids="-".join)
def test_train_matches_the_taped_reference_loop(monkeypatch, case, batch_size):
    monkeypatch.setattr(training, "CHUNK", 8)
    data = _training_set()
    assert training.CHUNK < 20 == len(data)
    cfg = _batch_cfg(*case)
    tcfg = TrainConfig(epochs=2, learning_rate=0.05, batch_size=batch_size, seed=1)
    got_lines, want_lines = io.StringIO(), io.StringIO()
    got = train(data, cfg, tcfg, metrics_out=got_lines)
    want = reference_train(data, cfg, tcfg, metrics_out=want_lines)
    assert got_lines.getvalue() == want_lines.getvalue()
    assert list(got.params) == list(want.params)
    for name, value in want.params.items():
        assert got.params[name].tobytes() == value.tobytes(), name


def test_train_and_gradcheck_gradients_build_no_tensor(monkeypatch):
    data = _training_set()[:5]
    cfg = _batch_cfg("fully_connected", "ctxt", "L3-unshared-norm-cls")
    tcfg = TrainConfig(epochs=1, learning_rate=0.05, batch_size=3)
    want = train(data, cfg, tcfg)

    def refuse(*args, **kwargs):
        raise AssertionError("a Tensor was built")

    monkeypatch.setattr(Tensor, "__init__", refuse)
    got = train(data, cfg, tcfg)
    training.scenario_gradients(data[0], cfg, init_parameters(cfg))
    assert got.history == want.history
    with pytest.raises(AssertionError, match="Tensor"):  # the patch does bite
        training.scenario_loss_tensor(data[0], cfg, init_parameters(cfg), GradientTape())


def _with_frame(scenario, t, **changes):
    frames = list(scenario.frames)
    frames[t] = dataclasses.replace(frames[t], **changes)
    return dataclasses.replace(scenario, id=f"{scenario.id}-{len(changes)}{t}", frames=tuple(frames))


def _with_boxes(scenario, t, *boxes):
    objects = scenario.frames[t].objects
    moved = tuple(dataclasses.replace(o, box=box) for o, box in zip(objects, boxes))
    return _with_frame(scenario, t, objects=moved + objects[len(boxes) :])


def _failing_set(cfg):
    """(config, scenarios, parameters) where every scenario fails, first at different checks and frames.

    Unscaled relations, the largest float as a relation weight in
    edge.proj_i and a zero edge.proj_o make every edge weight NaN: the
    union width is at least the pedestrian's, so e_i overflows to +inf, and
    inf * 0 is NaN. So a scenario fails at the first
    frame with objects, at its relation if that overflows, else at its
    weights; a scenario without objects but with a NaN pedestrian feature
    is refused before any of that, by the check of a record's values.
    Without edges (concat_baseline) the losses are what fails.
    """
    good = generate_synthetic(
        SynthConfig(n_scenarios=6, frames_per_scenario=7, D=6, seed=23, vehicle_count_range=(2, 4))
    )
    values = init_parameters(cfg)
    if cfg.graph_mode == "concat_baseline":  # an object mean that overflows
        huge = tuple(dataclasses.replace(o, feature=np.full(6, 1.7e308)) for o in good[1].frames[2].objects)
        return cfg, [good[0], _with_frame(good[1], 2, objects=huge), good[2], _with_frame(good[3], 0, objects=huge)], values
    values["edge.proj_i"] = np.zeros_like(values["edge.proj_i"])
    values["edge.proj_i"][cfg.hidden + 6] = np.finfo(float).max  # the union width
    values["edge.proj_o"] = np.zeros_like(values["edge.proj_o"])
    huge = BoundingBox(-1.7e308, 0.0, 1.7e308, 10.0)
    bare = good[5]
    for t in range(cfg.T):
        bare = _with_frame(bare, t, objects=())
    scenarios = [
        good[0],  # edge weight 0 of frame 0
        _with_boxes(good[1], 0, huge),  # the relation of frame 0, checked before its weights
        _with_boxes(_with_frame(good[2], 0, objects=()), 2, huge),  # frame 1's weights before frame 2's relation
        _with_boxes(_with_frame(_with_frame(good[3], 0, objects=()), 1, objects=()), 2, huge),  # frame 2's relation
        # only the pair union overflows: in fully_connected mode, before the spoke weights fail
        _with_boxes(
            good[4], 0, BoundingBox(8.98e307, 0.0, 8.99e307, 10.0), BoundingBox(-8.99e307, 0.0, -8.98e307, 10.0)
        ),
        _with_frame(bare, 1, pedestrian_feature=np.full(6, np.nan)),  # no edges; a non-finite input
    ]
    return dataclasses.replace(cfg, spatial_scale=1.0), scenarios, values


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
@pytest.mark.parametrize("mode", ["star", "fully_connected", "concat_baseline"])
def test_a_failing_minibatch_raises_what_the_taped_loop_raises(mode):
    cfg, data, values = _failing_set(_batch_cfg(mode, "default", "L0"))
    seen = set()
    for seed in range(8):
        for batch_size in (1, 3, len(data)):
            tcfg = TrainConfig(epochs=1, learning_rate=0.05, batch_size=batch_size, seed=seed)
            with pytest.raises(Exception) as want:
                reference_train(data, cfg, tcfg, initial=values)
            with pytest.raises(want.type, match="^" + re.escape(str(want.value)) + "$"):
                train(data, cfg, tcfg, initial=values)
            seen.add(re.sub(r"scenario '.*'", "scenario", str(want.value)))
    if mode == "concat_baseline":
        assert seen == {"non-finite loss nan at epoch 1, scenario"}
    else:
        assert seen == {
            "spatial_relation: non-finite entry",
            "edge weight 0 outside the open interval (0,1): nan",
            "scenario: non-finite pedestrian feature in observed frame 1",
        }


@pytest.mark.parametrize("name", ["edge.proj_i", "edge.proj_o", "gcn.W0"])
def test_a_nan_parameter_is_refused_by_name(name):
    cfg = _mcfg(num_layers=2, shared_weights=False)
    values = init_parameters(cfg)
    values[name][0, 0] = np.nan
    data = _dataset()
    # unchecked, the edge ReLUs and the ReLU after graph layer 0 turn the NaN into zeros
    assert np.isfinite(forward_chunk(data, cfg, unchecked_parameters(cfg, values))[0]).all()
    refused = pytest.raises(ConfigError, match=f"^parameter {re.escape(name)} holds a NaN$")
    with refused:
        forward(data[0], cfg, values)
    with refused:
        evaluate(data, cfg, values)
    with refused:
        train(data, cfg, TrainConfig(epochs=1), initial=values)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("name", ["edge.proj_i", "gcn.W0"])
def test_an_infinite_parameter_is_refused_by_name(name, value):
    cfg = _mcfg(num_layers=2, shared_weights=False)
    values = init_parameters(cfg)
    values[name][0, 0] = value
    data = _dataset()
    if value < 0:  # unchecked, the edge ReLUs and the ReLU after graph layer 0 turn it into zeros
        assert np.isfinite(forward_chunk(data, cfg, unchecked_parameters(cfg, values))[0]).all()
    refused = pytest.raises(ConfigError, match=f"^parameter {re.escape(name)} holds an infinite value$")
    with refused:
        forward(data[0], cfg, values)
    with refused:
        evaluate(data, cfg, values)
    with refused:
        train(data, cfg, TrainConfig(epochs=1), initial=values)


def test_a_step_that_makes_a_parameter_nan_is_a_numeric_error(monkeypatch):
    cfg = _mcfg()
    shapes = parameter_shapes(cfg)
    at = sum(r * c for r, c in list(shapes.values())[: list(shapes).index("edge.proj_i")])  # its first value
    step = training.AdamOptimizer.step

    def poisoned(self, buffer):  # the buffer's first row holds every parameter, in parameter_shapes' order
        step(self, buffer)
        buffer[0, at] = np.nan

    monkeypatch.setattr(training.AdamOptimizer, "step", poisoned)
    with pytest.raises(NumericError, match=r"^epoch 1: parameter edge\.proj_i holds a NaN$"):
        train(_dataset(), cfg, TrainConfig(epochs=2, batch_size=3))  # one step, then the epoch's evaluation


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
