"""End-to-end model semantics.

The heart of this module is a straight-line numpy reimplementation of the
whole forward pass (no tape, no Tensor) used to cross-check forward_logits
on real generated scenarios for every graph mode. Everything else covers
parameter bookkeeping, invariances, checkpointing, and input validation.
"""

import copy
import dataclasses
import functools
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intent_graph import model
from intent_graph.autodiff import GradientTape, Tensor, sigmoid_values
from intent_graph.configs import ConfigError, finite_array, is_finite_real
from intent_graph.data import SynthConfig, generate_synthetic
from intent_graph.graph import edge_weight, open_unit, outer_rows, pair_indices
from intent_graph.model import (
    CheckpointError,
    EdgeCheckError,
    ModelConfig,
    Parameters,
    ScenarioError,
    _fold,
    _object_rows,
    _outer_sum,
    forward,
    forward_batch,
    forward_logits,
    frame_vector_width,
    future_labels,
    init_parameters,
    load_checkpoint,
    parameter_count,
    parameter_shapes,
    save_checkpoint,
)
from intent_graph.recurrent import TemporalConfig
from intent_graph.scene import (
    CATEGORY_COUNT,
    RELATION_OVERFLOW,
    BoundingBox,
    FrameObservation,
    ObjectCategory,
    ObjectObservation,
    relation_rows,
    spatial_relation,
)
from intent_graph.training import (
    TrainConfig,
    _chunk_gradients,
    aggregate_metrics,
    evaluate,
    loss,
    scenario_gradients,
    scenario_loss,
    scenario_loss_tensor,
    train,
)

from reference_ops import category_one_hot, object_sort_key, reference_aggregate_metrics, taped_gradients


def unchecked_parameters(cfg, values):
    """Parameters over one flat row of ``values``, laid out as check_parameters lays them out, without its checks."""
    return Parameters(cfg, np.concatenate([values[name] for name in parameter_shapes(cfg)], axis=None))


def _scenario(D=6, frames=5, seed=2, vehicles=(2, 2)):
    cfg = SynthConfig(
        n_scenarios=1, frames_per_scenario=frames, D=D, seed=seed, vehicle_count_range=vehicles
    )
    return generate_synthetic(cfg)[0]


# -- straight-line numpy mirror -------------------------------------------------


def _sig(x):
    with np.errstate(over="ignore"):
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def _gru(v, prefix, x, h):
    xh = np.hstack([x, h])
    z = _sig(xh @ v[f"{prefix}.W_z"] + v[f"{prefix}.b_z"])
    r = _sig(xh @ v[f"{prefix}.W_r"] + v[f"{prefix}.b_r"])
    xrh = np.hstack([x, r * h])
    cand = np.tanh(xrh @ v[f"{prefix}.W_h"] + v[f"{prefix}.b_h"])
    return (1.0 - z) * h + z * cand


def _mirror_relation(src, tgt, scale):
    """The 1x8 relation of box ``tgt`` to box ``src``, from the corners, times ``scale``."""
    return np.array(
        [
            [
                tgt.xmin - src.xmin,
                tgt.ymin - src.ymin,
                tgt.xmax - src.xmax,
                tgt.ymax - src.ymax,
                0.5 * (tgt.xmin + tgt.xmax) - 0.5 * (src.xmin + src.xmax),
                0.5 * (tgt.ymin + tgt.ymax) - 0.5 * (src.ymin + src.ymax),
                max(src.xmax, tgt.xmax) - min(src.xmin, tgt.xmin),
                max(src.ymax, tgt.ymax) - min(src.ymin, tgt.ymin),
            ]
        ]
    ) * scale


def _mirror_edge(v, cfg, center_row, ped_box, obj):
    svec = _mirror_relation(ped_box, obj.aligned_box(), cfg.spatial_scale)
    v_i = np.hstack([center_row, svec])
    feat = obj.feature.reshape(1, -1)
    if cfg.include_object_class:
        feat = np.hstack([feat, category_one_hot(obj.category).reshape(1, -1)])
    e_i = np.maximum(v_i @ v["edge.proj_i"], 0.0)
    e_o = np.maximum(feat @ v["edge.proj_o"], 0.0)
    raw = _sig(np.array([[(e_i @ e_o.T).item()]]))
    return np.clip(raw, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)).item()


def _mirror_forward(scenario, cfg, v):
    """The full pedestrian-centric forward pass, re-derived without the tape."""
    frames = scenario.frames[: cfg.T]
    h = np.zeros((1, cfg.hidden))
    centers = []
    for f in frames:
        x = f.pedestrian_feature.reshape(1, -1)
        if cfg.temporal.use_temporal and cfg.temporal.use_ped_gru:
            h = _gru(v, "ped_gru", x, h)
            centers.append(h)
        else:
            centers.append(x)

    frame_vecs = []
    h_ctxt = np.zeros((1, cfg.hidden))
    for t, f in enumerate(frames):
        objs = sorted(f.objects, key=object_sort_key)
        center = centers[t]
        if cfg.graph_mode == "pedestrian_only":
            frame_vecs.append(center)
            continue
        if cfg.graph_mode == "concat_baseline":
            if objs:
                pooled = np.mean([o.feature for o in objs], axis=0).reshape(1, -1)
            else:
                pooled = np.zeros((1, cfg.D))
            frame_vecs.append(np.hstack([center, pooled]))
            continue

        n = len(objs)
        a = np.eye(n + 1)
        for j, obj in enumerate(objs):
            w = _mirror_edge(v, cfg, center, f.pedestrian_box, obj)
            a[0, j + 1] = a[j + 1, 0] = w
        if cfg.graph_mode == "fully_connected":
            for i in range(n):
                for j in range(i + 1, n):
                    svec = _mirror_relation(objs[i].aligned_box(), objs[j].aligned_box(), cfg.spatial_scale)
                    v_i = np.hstack([objs[i].feature.reshape(1, -1), svec])
                    tgt = objs[j].feature.reshape(1, -1)
                    if cfg.include_object_class:
                        tgt = np.hstack([tgt, category_one_hot(objs[j].category).reshape(1, -1)])
                    e_i = np.maximum(v_i @ v["edge.proj_i"], 0.0)
                    e_o = np.maximum(tgt @ v["edge.proj_o"], 0.0)
                    w = np.clip(
                        _sig(np.array([[(e_i @ e_o.T).item()]])),
                        np.nextafter(0.0, 1.0),
                        np.nextafter(1.0, 0.0),
                    ).item()
                    a[i + 1, j + 1] = a[j + 1, i + 1] = w
        if cfg.normalize_adjacency:
            a = a / a.sum(axis=1, keepdims=True)

        x = np.vstack([center] + [o.feature.reshape(1, -1) for o in objs])
        z = x
        for layer in range(cfg.num_layers):
            w_mat = v["gcn.W"] if cfg.shared_weights else v[f"gcn.W{layer}"]
            z = a @ z @ w_mat
            if layer < cfg.num_layers - 1:
                z = np.maximum(z, 0.0)
        refined = z[0:1]
        ctx = z[1:].mean(axis=0, keepdims=True) if n else np.zeros((1, cfg.hidden))
        if cfg.temporal.use_temporal and cfg.temporal.use_ctxt_gru:
            h_ctxt = _gru(v, "ctxt_gru", ctx, h_ctxt)
            ctx = h_ctxt
        frame_vecs.append(np.hstack([refined, ctx]))

    if cfg.temporal.use_temporal:
        h_agg = np.zeros((1, cfg.hidden))
        for vec in frame_vecs:
            h_agg = _gru(v, "agg_gru", vec, h_agg)
    else:
        h_agg = np.mean(np.vstack(frame_vecs), axis=0, keepdims=True) @ v["temporal_pool.proj"]

    logits = []
    h = h_agg
    for _ in range(cfg.K):
        h = _gru(v, "pred_gru", np.zeros((1, 0)), h)
        logits.append(float((h @ v["readout.w"] + v["readout.b"])[0, 0]))
    return logits


MODE_CASES = [
    ModelConfig(D=6, D_e=5, hidden=6, T=3, K=2, spatial_scale=1 / 1280, seed=7),
    ModelConfig(D=6, D_e=5, hidden=6, T=3, K=2, spatial_scale=1 / 1280, seed=7, num_layers=0),
    ModelConfig(
        D=6, D_e=5, hidden=6, T=3, K=2, spatial_scale=1 / 1280, seed=7,
        num_layers=3, shared_weights=False,
    ),
    ModelConfig(
        D=6, D_e=5, hidden=6, T=3, K=2, spatial_scale=1 / 1280, seed=7,
        graph_mode="fully_connected", include_object_class=True,
    ),
    ModelConfig(D=6, D_e=5, hidden=7, T=3, K=2, seed=7, graph_mode="pedestrian_only"),
    ModelConfig(D=6, D_e=5, hidden=7, T=3, K=2, seed=7, graph_mode="concat_baseline"),
    ModelConfig(
        D=6, D_e=5, hidden=6, T=3, K=2, spatial_scale=1 / 1280, seed=7,
        normalize_adjacency=True,
    ),
    ModelConfig(
        D=6, D_e=5, hidden=6, T=3, K=2, spatial_scale=1 / 1280, seed=7,
        temporal=TemporalConfig(use_temporal=True, use_ped_gru=False, use_ctxt_gru=True),
    ),
    ModelConfig(
        D=6, D_e=5, hidden=6, T=3, K=2, spatial_scale=1 / 1280, seed=7,
        temporal=TemporalConfig(use_temporal=False, use_ped_gru=False, use_ctxt_gru=False),
    ),
]


@pytest.mark.parametrize("cfg", MODE_CASES, ids=lambda c: f"{c.graph_mode}-L{c.num_layers}-{'sh' if c.shared_weights else 'ind'}-{'T' if c.temporal.use_temporal else 'pool'}{'-cls' if c.include_object_class else ''}{'-norm' if c.normalize_adjacency else ''}{'-ctxt' if c.temporal.use_ctxt_gru else ''}")
def test_forward_matches_numpy_mirror(cfg):
    scenario = _scenario(D=cfg.D)
    values = init_parameters(cfg)
    got = [t.item() for t in forward_logits(scenario, cfg, values)]
    want = _mirror_forward(scenario, cfg, values)
    assert np.allclose(got, want, atol=1e-12), (got, want)


def test_forward_with_tape_matches_tape_free():
    cfg = MODE_CASES[0]
    scenario = _scenario(D=cfg.D)
    values = init_parameters(cfg)
    free = [t.item() for t in forward_logits(scenario, cfg, values)]
    tape = GradientTape()
    taped = [t.item() for t in forward_logits(scenario, cfg, values, tape=tape)]
    assert free == taped


# -- batched inference: bit for bit the per-scenario forward -----------------------


def _without_objects(scenario, frames):
    """``scenario`` with the objects of the given frame indices removed."""
    return type(scenario)(
        id=scenario.id + "-bare",
        frames=tuple(
            type(f)(
                timestamp_index=f.timestamp_index,
                pedestrian_box=f.pedestrian_box,
                pedestrian_feature=f.pedestrian_feature,
                objects=() if t in frames else f.objects,
                crossing_label=f.crossing_label,
            )
            for t, f in enumerate(scenario.frames)
        ),
        fps=scenario.fps,
    )


def _mixed_batch(D=6):
    """Scenarios whose frames hold 0 to 6 objects, some frames of a scenario empty."""
    data = generate_synthetic(
        SynthConfig(n_scenarios=5, frames_per_scenario=7, D=D, seed=21, vehicle_count_range=(0, 5))
    )
    return [*data, _without_objects(data[0], {1}), _without_objects(data[1], {0, 1, 2, 3})]


BATCH_TEMPORALS = {
    "default": TemporalConfig(),
    "ctxt": TemporalConfig(use_ctxt_gru=True),
    "no-ped-gru": TemporalConfig(use_ped_gru=False),
    "pooled": TemporalConfig(use_temporal=False, use_ped_gru=False),
}
BATCH_STACKS = {
    "L2-shared": dict(num_layers=2),
    "L3-unshared-norm-cls": dict(num_layers=3, shared_weights=False, normalize_adjacency=True, include_object_class=True),
    "L0": dict(num_layers=0),
}


def _batch_cfg(mode, temporal, stack):
    hidden = 6 if mode in ("star", "fully_connected") else 7
    return ModelConfig(
        D=6, D_e=5, hidden=hidden, T=4, K=3, spatial_scale=1 / 1280, seed=11,
        graph_mode=mode, temporal=BATCH_TEMPORALS[temporal], **BATCH_STACKS[stack],
    )


def _unbatched_logits(scenario, cfg, values):
    return np.array([t.item() for t in forward_logits(scenario, cfg, values)])


@pytest.mark.parametrize("stack", sorted(BATCH_STACKS))
@pytest.mark.parametrize("temporal", sorted(BATCH_TEMPORALS))
@pytest.mark.parametrize("mode", ["star", "fully_connected", "concat_baseline", "pedestrian_only"])
def test_batched_logits_are_bit_identical_to_forward_logits(mode, temporal, stack):
    cfg = _batch_cfg(mode, temporal, stack)
    values = init_parameters(cfg)
    batch = _mixed_batch()
    counts = {len(f.objects) for s in batch for f in s.frames[: cfg.T]}
    assert 0 in counts and len(counts) >= 4
    got = forward_batch(batch, cfg, values)
    assert got.shape == (len(batch), cfg.K)
    for scenario, row in zip(batch, got):
        assert row.tobytes() == _unbatched_logits(scenario, cfg, values).tobytes(), scenario.id
    one = forward_batch(batch[-1:], cfg, values)
    assert one.tobytes() == got[-1:].tobytes()


@pytest.mark.parametrize("mode", ["star", "fully_connected"])
def test_batched_row_ignores_its_batch_mates_and_their_order(mode):
    cfg = _batch_cfg(mode, "ctxt", "L3-unshared-norm-cls")
    values = init_parameters(cfg)
    batch = _mixed_batch()
    base = forward_batch(batch, cfg, values)
    order = np.random.default_rng(4).permutation(len(batch))
    shuffled = forward_batch([batch[i] for i in order], cfg, values)
    for row, i in zip(shuffled, order):
        assert row.tobytes() == base[i].tobytes()
    for i, scenario in enumerate(batch):
        assert forward_batch([scenario], cfg, values).tobytes() == base[i : i + 1].tobytes()


# -- tape-free training pass: bit for bit the tape's gradients ----------------------


@pytest.mark.parametrize("stack", sorted(BATCH_STACKS))
@pytest.mark.parametrize("temporal", sorted(BATCH_TEMPORALS))
@pytest.mark.parametrize("mode", ["star", "fully_connected", "concat_baseline", "pedestrian_only"])
def test_tape_free_gradients_are_bit_identical_to_the_tape(mode, temporal, stack):
    _assert_tape_gradients(_batch_cfg(mode, temporal, stack), _mixed_batch())


@pytest.mark.parametrize("stack", ["L2-shared", "L3-unshared-norm-cls"])
def test_tape_free_gradients_are_bit_identical_to_the_tape_at_width_one(stack):
    # D = D_e = 1: without the object class edge.proj_o is (1, 1), the one shape _outer_sum folds
    # instead of contracting; with it, (16, 1). At seed 17 enough one-wide edge rows stay positive
    # that einsum's own sum would differ from the tape's in most scenarios.
    cfg = dataclasses.replace(_batch_cfg("fully_connected", "default", stack), D=1, D_e=1, hidden=1, seed=17)
    _assert_tape_gradients(cfg, _mixed_batch(D=1))


def _assert_tape_gradients(cfg, batch):
    values = init_parameters(cfg)
    for scenario in batch:
        got_loss, grads = scenario_gradients(scenario, cfg, values)
        want_loss, want = taped_gradients(scenario, cfg, values)
        assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes(), scenario.id
        assert set(grads) == set(want)
        for name, g in want.items():
            assert grads[name].shape == g.shape and grads[name].tobytes() == g.tobytes(), (scenario.id, name)


@pytest.mark.parametrize("mode", ["star", "fully_connected", "concat_baseline", "pedestrian_only"])
def test_scenario_gradients_ignore_their_batch_mates_and_their_order(mode):
    cfg = _batch_cfg(mode, "ctxt", "L3-unshared-norm-cls")
    values = init_parameters(cfg)
    batch = _mixed_batch()
    p = unchecked_parameters(cfg, values)
    losses, grads = _chunk_gradients(batch, cfg, p)
    order = np.random.default_rng(4).permutation(len(batch))
    shuffled_losses, shuffled = _chunk_gradients([batch[i] for i in order], cfg, p)
    for row, i in enumerate(order):
        assert shuffled_losses[row] == losses[i]
        for name in grads:
            assert shuffled[name][row].tobytes() == grads[name][i].tobytes(), (batch[i].id, name)
    for i, scenario in enumerate(batch):
        loss, alone = scenario_gradients(scenario, cfg, values)
        assert loss == losses[i]
        for name in grads:
            assert alone[name].tobytes() == grads[name][i].tobytes(), (scenario.id, name)


def test_fold_adds_left_to_right_whatever_the_stack():
    rng = np.random.default_rng(6)
    stacks = [rng.standard_normal((n, *inner)) * 10.0 ** rng.uniform(-8, 8, (n, *[1] * len(inner)))
              for n, inner in [(9, (1, 1)), (40, (1, 1)), (3, (2, 5)), (150, (24, 16)), (12, (3, 16, 16))]]
    stacks.append(rng.standard_normal((4, 6, 16, 16)).swapaxes(0, 1))  # a strided view
    signed = np.full((5, 2, 3), -0.0)
    signed[3, 0, 0] = 1.0  # -0.0 everywhere but one entry, which a fold from +0.0 would also keep
    stacks += [signed, np.full((1, 4, 4), -0.0)]
    for stack in stacks:
        want = functools.reduce(np.add, stack)
        assert _fold(stack).tobytes() == want.tobytes(), stack.shape


def _outer_sum_cases(rng):
    """(rows, g) pairs: random sizes, mixed magnitudes and signed zeros; products that overflow; M = 1; R * C = 1."""
    def draw(m, r, c, spread):
        pair = []
        for width in (r, c):
            x = rng.standard_normal((m, width)) * 10.0 ** rng.uniform(-spread, spread, (m, 1))
            x[rng.random(x.shape) < 0.15] = 0.0
            x[rng.random(x.shape) < 0.15] = -0.0
            pair.append(x)
        return pair

    for _ in range(150):
        m, r, c = int(rng.integers(1, 200)), int(rng.choice([1, 2, 7, 14, 24])), int(rng.choice([1, 5, 16]))
        if r * c > 1:
            yield draw(m, r, c, 8)
    for _ in range(20):
        yield draw(int(rng.integers(1, 50)), 14, 5, 200)  # products beyond the float range: inf, NaN, 0
        yield draw(1, int(rng.choice([1, 14])), int(rng.choice([1, 16])), 8)
        yield draw(int(rng.integers(1, 200)), 1, 1, 8)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the extreme draws overflow
def test_outer_sum_adds_the_edges_in_order_like_the_tape():
    # pins einsum's loop order: the tape adds one outer product per edge, left to right
    for rows, g in _outer_sum_cases(np.random.default_rng(7)):
        want = functools.reduce(np.add, outer_rows(rows, g))
        assert _outer_sum(rows, g).tobytes() == want.tobytes(), (rows.shape, g.shape)
        # the backward passes each scenario's edges as reversed views: negative strides must not reorder the sum
        back = np.arange(len(rows))[::-1]
        copies = _outer_sum(rows.take(back, axis=0), g.take(back, axis=0))
        assert _outer_sum(rows[::-1], g[::-1]).tobytes() == copies.tobytes(), (rows.shape, g.shape)


def test_edge_block_holds_each_frames_spokes_then_pairs_as_the_tape_scores_them():
    # without a pedestrian cell, a spoke's source row is the raw pedestrian feature
    cfg = _batch_cfg("fully_connected", "no-ped-gru", "L3-unshared-norm-cls")
    p = model.check_parameters(cfg, init_parameters(cfg))
    batch = _mixed_batch()
    edges = model.forward_chunk(batch, cfg, p, keep=True)[1]["edges"]
    proj = Tensor(p["edge.proj_i"]), Tensor(p["edge.proj_o"])
    at = 0
    for s, scenario in enumerate(batch):
        assert edges.bounds[s] == at
        observed = scenario.frames[: cfg.T]
        objs = _object_rows(observed, cfg.D)
        targets = model._edge_targets(cfg, objs.categories, objs.feats)
        ends = np.cumsum(objs.counts)
        for t, frame in enumerate(observed):
            rows = slice(ends[t] - objs.counts[t], ends[t])
            feats, boxes, tgt = objs.feats[rows], objs.boxes[rows], targets[rows]
            ped = frame.pedestrian_feature.reshape(1, -1)
            rel = spatial_relation(np.array([frame.pedestrian_box.as_list()]), boxes) * cfg.spatial_scale
            i, j = pair_indices(len(feats))
            pair_rel = spatial_relation(boxes[i], boxes[j]) * cfg.spatial_scale
            want = [
                (edge_weight(Tensor(ped), Tensor(rel), Tensor(tgt), *proj), np.hstack([np.repeat(ped, len(feats), 0), rel]), tgt),
                (edge_weight(Tensor(feats[i]), Tensor(pair_rel), Tensor(tgt[j]), *proj), np.hstack([feats[i], pair_rel]), tgt[j]),
            ]
            for weights, v, tgt_rows in want:
                got = slice(at, at + len(v))
                assert open_unit(edges.saved[4][got]).tobytes() == weights.data.tobytes()
                assert edges.v[got].tobytes() == v.tobytes() and edges.targets[got].tobytes() == tgt_rows.tobytes()
                at = got.stop
    assert edges.bounds[-1] == at == len(edges.v)


def test_canonical_object_order_matches_the_sort_key_even_on_ties():
    box = BoundingBox(10.0, 20.0, 30.0, 40.0)
    objects = [
        ObjectObservation(ObjectCategory.CAR, box, np.array([1.0, 2.0, 3.0])),
        ObjectObservation(ObjectCategory.CAR, box, np.array([1.0, 2.0, -3.0])),  # ties up to the last feature
        ObjectObservation(ObjectCategory.CAR, box, np.array([1.0, 2.0, 3.0]), camera_offset_x=-5.0),
        ObjectObservation(ObjectCategory.BUS, box, np.array([9.0, 9.0, 9.0])),
        ObjectObservation(ObjectCategory.CROSSWALK_ZEBRA, BoundingBox(-0.0, 0.0, 5.0, 5.0), np.array([0.0, -0.0, 1.0])),
        ObjectObservation(ObjectCategory.CROSSWALK_ZEBRA, BoundingBox(0.0, 0.0, 5.0, 5.0), np.array([-0.0, 0.0, 1.0])),
        ObjectObservation(ObjectCategory.BIKE, BoundingBox(10.0, 0.0, 12.0, 5.0), np.ones(3), camera_offset_x=2.5),
    ]
    rng = np.random.default_rng(1)
    frames = [
        FrameObservation(
            timestamp_index=t,
            pedestrian_box=box,
            pedestrian_feature=np.zeros(3),
            objects=tuple(objects[i] for i in rng.permutation(len(objects))[: 7 - t]),
            crossing_label=0,
        )
        for t in range(8)
    ]
    rows = _object_rows(frames, 3)
    want = [o for f in frames for o in sorted(f.objects, key=object_sort_key)]
    assert rows.counts.tolist() == [len(f.objects) for f in frames]
    assert rows.feats.tobytes() == np.array([o.feature for o in want]).reshape(-1, 3).tobytes()
    assert rows.boxes.tobytes() == np.array([o.aligned_box().as_list() for o in want]).reshape(-1, 4).tobytes()
    assert rows.categories.tolist() == [o.category.index for o in want]


def test_evaluate_equals_the_aggregation_of_forward_outputs():
    # the eval-dense benchmark gate: one evaluate() report per chunk equals
    # aggregate_metrics over that chunk's forward() outputs
    data = generate_synthetic(
        SynthConfig(n_scenarios=12, frames_per_scenario=8, D=8, seed=5, vehicle_count_range=(6, 8))
    )
    cfg = ModelConfig(D=8, D_e=8, hidden=8, T=4, K=4, spatial_scale=1 / 1280, seed=5)
    values = init_parameters(cfg)
    per_scenario = []
    for scenario in data:
        out = forward(scenario, cfg, values)
        labels = future_labels(scenario, cfg)
        per_scenario.append((list(out.probabilities), labels, loss(out, labels)))
    report = evaluate(data, cfg, values)
    assert report == aggregate_metrics(per_scenario)
    assert repr(report) == repr(reference_aggregate_metrics(per_scenario))


@pytest.mark.parametrize("mode", ["star", "fully_connected", "concat_baseline", "pedestrian_only"])
def test_several_passes_give_the_bytes_of_one_scenario_at_a_time(monkeypatch, mode):
    # 7 scenarios in passes of 3: two full passes and a ragged last one
    cfg = _batch_cfg(mode, "default", "L2-shared")
    values = init_parameters(cfg)
    batch = _mixed_batch()
    one_pass = forward_batch(_fresh(batch), cfg, values)
    monkeypatch.setattr(model, "CHUNK", 3)
    sizes, chunk = [], model.forward_chunk
    monkeypatch.setattr(model, "forward_chunk", lambda scenarios, *rest: sizes.append(len(scenarios)) or chunk(scenarios, *rest))
    got = forward_batch(_fresh(batch), cfg, values)
    assert sizes == [3, 3, 1]
    assert got.tobytes() == one_pass.tobytes()
    per_scenario = []
    for scenario, row in zip(batch, got):
        out = forward(scenario, cfg, values)
        assert row.tobytes() == np.array(out.logits).tobytes(), scenario.id
        labels = future_labels(scenario, cfg)
        per_scenario.append((list(out.probabilities), labels, loss(out, labels)))
    sizes.clear()
    assert evaluate(_fresh(batch), cfg, values) == aggregate_metrics(per_scenario)
    assert sizes == [3, 3, 1]


# -- packed windows: each scenario's observed frames packed once ---------------------


def _fresh(batch):
    """Copies of ``batch`` with empty windows."""
    return [dataclasses.replace(scenario) for scenario in batch]


def _passes(batch, cfg, values):
    """The bytes of forward_batch, evaluate and each scenario's loss and gradients, in one pass over ``batch``."""
    out = [forward_batch(batch, cfg, values).tobytes(), repr(evaluate(batch, cfg, values))]
    for scenario in batch:
        loss, grads = scenario_gradients(scenario, cfg, values)
        out += [np.float64(loss).tobytes(), *(grads[name].tobytes() for name in sorted(grads))]
    return out


@pytest.mark.parametrize("mode", ["star", "fully_connected", "concat_baseline", "pedestrian_only"])
def test_a_warm_pass_gives_the_cold_bytes_without_repacking(monkeypatch, mode):
    cfg = _batch_cfg(mode, "ctxt", "L3-unshared-norm-cls")
    values = init_parameters(cfg)
    batch = _mixed_batch()
    assert all(scenario.window is None for scenario in batch)
    cold = _passes(batch, cfg, values)
    assert all(scenario.window.key == (cfg.T, mode) for scenario in batch)

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} was called")

        return call

    # no mode computes a relation or builds an edge layout on a warm pass: the window holds its edges' relations
    refused = ["_object_rows", "relation_rows", "_pair_rows"]
    with monkeypatch.context() as patched:
        for name in refused:
            patched.setattr(model, name, refuse(name))
        assert _passes(batch, cfg, values) == cold
        assert forward(batch[0], cfg, values).logits == tuple(np.frombuffer(cold[0])[: cfg.K].tolist())
        # a lone warm scenario's pass reads its window, not a copy
        assert model._packed(batch[:1], cfg) is batch[0].window
        if mode == "pedestrian_only":  # packs no objects, cold or warm
            assert forward_batch(_fresh(batch), cfg, values).tobytes() == cold[0]
    # each patch does bite, on the calls the mode's cold pack makes
    bites = {"star": refused[:2], "fully_connected": refused, "concat_baseline": refused[:1], "pedestrian_only": []}
    for name in bites[mode]:
        with monkeypatch.context() as patched, pytest.raises(AssertionError, match=name):
            patched.setattr(model, name, refuse(name))
            forward_batch(_fresh(batch[:1]), cfg, values)
    assert _passes(_fresh(batch), cfg, values) == cold


@pytest.mark.parametrize("mode", ["star", "fully_connected", "concat_baseline", "pedestrian_only"])
def test_a_batch_of_warm_and_cold_scenarios_gives_the_cold_bytes(mode):
    cfg = _batch_cfg(mode, "ctxt", "L3-unshared-norm-cls")
    values = init_parameters(cfg)
    batch = _mixed_batch()
    want = forward_batch(_fresh(batch), cfg, values).tobytes()
    forward_batch(batch[1::2], cfg, values)  # warms every other scenario
    assert [s.window is not None for s in batch] == [i % 2 == 1 for i in range(len(batch))]
    assert forward_batch(batch, cfg, values).tobytes() == want
    assert forward_batch(batch[::-1], cfg, values)[::-1].tobytes() == want


def test_a_pass_at_another_T_repacks():
    cfg4 = _batch_cfg("fully_connected", "default", "L2-shared")
    cfg3 = dataclasses.replace(cfg4, T=3)
    values = init_parameters(cfg4)
    batch = _mixed_batch()
    for cfg in (cfg3, cfg4, cfg3):
        got = forward_batch(batch, cfg, values)
        assert all(scenario.window.key == (cfg.T, cfg.graph_mode) for scenario in batch)
        assert got.tobytes() == forward_batch(_fresh(batch), cfg, values).tobytes()
        assert got[0].tobytes() == _unbatched_logits(batch[0], cfg, values).tobytes()


def test_replace_gives_an_empty_window_and_the_window_is_read_only():
    cfg = _batch_cfg("star", "default", "L2-shared")
    scenario = _mixed_batch()[0]
    forward_batch([scenario], cfg, init_parameters(cfg))
    window = scenario.window
    objects = sum(len(f.objects) for f in scenario.frames[: cfg.T])
    assert window.key == (cfg.T, "star") and window.ped.shape == (cfg.T, cfg.D)
    assert window.src is None and window.tgt is None  # only fully_connected keeps its edges' rows
    assert window.counts.tolist() == [len(f.objects) for f in scenario.frames[: cfg.T]]
    assert window.feats.shape == (objects, cfg.D) and window.categories.shape == (objects,)
    assert not any(arr.flags.writeable for arr in window[1:] if arr is not None)
    # each object's unscaled relation to its frame's pedestrian box, in canonical order
    want = [
        relation_rows(
            np.array([f.pedestrian_box.as_list()]),
            np.array([o.aligned_box().as_list() for o in sorted(f.objects, key=object_sort_key)]).reshape(-1, 4),
        )
        for f in scenario.frames[: cfg.T]
    ]
    assert window.relations.shape == (objects, 8)
    assert window.relations.tobytes() == np.concatenate(want).tobytes()
    assert dataclasses.replace(scenario).window is None
    assert dataclasses.replace(scenario, id="other").window is None
    assert "window" not in repr(scenario)


def test_a_fully_connected_window_keeps_its_edges_in_the_order_they_are_scored():
    cfg = _batch_cfg("fully_connected", "default", "L2-shared")
    scenario = _mixed_batch()[0]
    forward_batch([scenario], cfg, init_parameters(cfg))
    window = scenario.window
    observed = scenario.frames[: cfg.T]
    boxes = [np.array([o.aligned_box().as_list() for o in sorted(f.objects, key=object_sort_key)]).reshape(-1, 4) for f in observed]
    ped_boxes = np.array([f.pedestrian_box.as_list() for f in observed])
    # per frame its spokes, then its object pairs i < j, row-major: each edge's source and target box
    src_boxes, tgt_boxes, src_rows, tgt_rows, start = [], [], [], [], 0
    for t, frame_boxes in enumerate(boxes):
        n = len(frame_boxes)
        i, j = pair_indices(n)
        src_boxes += [ped_boxes[[t] * n], frame_boxes[i]]
        tgt_boxes += [frame_boxes, frame_boxes[j]]
        src_rows += [[len(window.feats) + t] * n, start + i]  # the window's object rows, then its pedestrian rows
        tgt_rows += [start + np.arange(n), start + j]
        start += n
    want = relation_rows(np.concatenate(src_boxes), np.concatenate(tgt_boxes))
    assert window.relations.tobytes() == want.tobytes()
    assert window.src.tolist() == np.concatenate(src_rows).tolist() and window.tgt.tolist() == np.concatenate(tgt_rows).tolist()
    assert not any(arr.flags.writeable for arr in (window.relations, window.src, window.tgt))


def test_an_overflowed_pair_relation_is_refused_on_every_pass():
    # two objects at opposite ends of the float range: each spoke's relation is finite, their pair's is not
    cfg = _batch_cfg("fully_connected", "default", "L2-shared")
    values = init_parameters(cfg)
    good = _mixed_batch()[0]
    far = tuple(
        ObjectObservation(ObjectCategory.CAR, BoundingBox(x0, 0.0, x1, 10.0), np.ones(6))
        for x0, x1 in ((0.8e308, 0.95e308), (-0.95e308, -0.8e308))
    )
    frames = list(good.frames)
    frames[2] = dataclasses.replace(frames[2], objects=far)
    bad = dataclasses.replace(good, id="pair-overflow", frames=tuple(frames))
    with pytest.raises(ValueError, match=RELATION_OVERFLOW):
        forward_logits(bad, cfg, values)
    message = f"^scenario 'pair-overflow': {re.escape(RELATION_OVERFLOW)}$"
    for attempt in ("cold", "warm"):
        mate = dataclasses.replace(good)
        if attempt == "cold":
            bad = dataclasses.replace(bad)
        with pytest.raises(EdgeCheckError, match=message) as raised:
            forward_batch([mate, bad], cfg, values)
        assert raised.value.detail == RELATION_OVERFLOW
        with pytest.raises(EdgeCheckError, match=message):
            forward(bad, cfg, values)
        with pytest.raises(ValueError, match=f"^{re.escape(RELATION_OVERFLOW)}$"):
            train([mate, bad], cfg, TrainConfig(epochs=1, batch_size=2), initial=values)
        # the window keeps the overflowed pair row, and its spokes' rows are finite
        counts = bad.window.counts
        sizes = counts * (counts + 1) // 2
        spokes = np.concatenate([start + np.arange(n) for start, n in zip(sizes.cumsum() - sizes, counts)])
        finite = np.isfinite(bad.window.relations).all(axis=1)
        assert finite[spokes].all() and not finite.all()


@pytest.mark.parametrize("mode", ["star", "fully_connected", "concat_baseline", "pedestrian_only"])
def test_a_cold_pack_computes_the_relation_of_each_scored_edge_once(monkeypatch, mode):
    cfg = _batch_cfg(mode, "default", "L2-shared")
    batch = _mixed_batch()
    counts = [len(f.objects) for s in batch for f in s.frames[: cfg.T]]
    want = {
        "star": [sum(counts)],  # the spokes
        "fully_connected": [sum(n * (n + 1) // 2 for n in counts)],  # the spokes and the object pairs
        "concat_baseline": [],
        "pedestrian_only": [],
    }
    rows, kernel = [], model.relation_rows
    monkeypatch.setattr(model, "relation_rows", lambda src, tgt: rows.append(len(tgt)) or kernel(src, tgt))
    forward_batch(batch, cfg, init_parameters(cfg))
    assert rows == want[mode]
    assert sum(len(s.window.relations) for s in batch if s.window.relations is not None) == sum(want[mode])


def test_passes_that_switch_mode_and_T_repack_and_give_the_cold_bytes(monkeypatch):
    # a window holds what one (T, graph_mode) reads, so each switch repacks every record
    star = _batch_cfg("star", "ctxt", "L3-unshared-norm-cls")
    cfgs = [dataclasses.replace(star, graph_mode=mode) for mode in ("star", "fully_connected", "concat_baseline", "pedestrian_only")]
    cfgs += [star, dataclasses.replace(star, T=3)]
    batch = _mixed_batch()
    packs, pack = [], model._pack
    monkeypatch.setattr(model, "_pack", lambda scenarios, cfg: packs.append(len(scenarios)) or pack(scenarios, cfg))
    for cfg in cfgs:
        values = init_parameters(cfg)
        cold = _passes(_fresh(batch), cfg, values)
        packs.clear()
        assert _passes(batch, cfg, values) == cold
        assert packs == [len(batch)]
        assert forward(batch[0], cfg, values).logits == tuple(np.frombuffer(cold[0])[: cfg.K].tolist())
        for window in (s.window for s in batch):
            assert window.key == (cfg.T, cfg.graph_mode) and "boxes" not in window._fields
            if cfg.graph_mode == "concat_baseline":
                assert window.relations is None and window.feats is not None
            if cfg.graph_mode == "pedestrian_only":
                assert window.counts is None and window.feats is None and window.categories is None


def _writable(scenario):
    """A hand-built copy of ``scenario`` whose feature arrays are writable."""
    frames = tuple(
        dataclasses.replace(
            f,
            pedestrian_feature=f.pedestrian_feature.copy(),
            objects=tuple(dataclasses.replace(o, feature=o.feature.copy()) for o in f.objects),
        )
        for f in scenario.frames
    )
    return dataclasses.replace(scenario, frames=frames)


@pytest.mark.parametrize("mode", ["star", "pedestrian_only"])
def test_a_first_pass_makes_the_packed_features_of_a_hand_built_record_read_only(mode):
    cfg = _batch_cfg(mode, "default", "L2-shared")
    values = init_parameters(cfg)
    scenario = _writable(_mixed_batch()[0])
    observed, later = scenario.frames[: cfg.T], scenario.frames[cfg.T]
    obj = next(o for f in observed for o in f.objects)
    assert observed[0].pedestrian_feature.flags.writeable and obj.feature.flags.writeable
    before = forward_batch([scenario], cfg, values).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        observed[0].pedestrian_feature[0] += 1.0
    if mode == "pedestrian_only":  # its window holds no objects, so their arrays stay as they were
        obj.feature[0] += 1.0
    else:
        with pytest.raises(ValueError, match="read-only"):
            obj.feature[0] += 1.0
    later.pedestrian_feature[0] += 1.0  # beyond T: not packed, so still writable
    assert forward_batch([scenario], cfg, values).tobytes() == before


def test_pedestrian_only_packs_no_objects_and_reads_malformed_ones_as_the_taped_forward_does():
    cfg = _batch_cfg("pedestrian_only", "default", "L2-shared")
    values = init_parameters(cfg)
    good = _mixed_batch()[0]
    frames = list(good.frames)
    obj = frames[1].objects[0]
    frames[1] = dataclasses.replace(frames[1], objects=(*frames[1].objects[1:], dataclasses.replace(obj, feature=np.ones(9))))
    ragged = dataclasses.replace(good, frames=tuple(frames))
    got = forward_batch([ragged, good], cfg, values)
    assert got[0].tobytes() == _unbatched_logits(ragged, cfg, values).tobytes()
    assert got[0].tobytes() == got[1].tobytes()  # objects do not reach pedestrian_only's logits
    assert ragged.window.feats is None and good.window.feats is None
    star = dataclasses.replace(cfg, graph_mode="star", hidden=6)
    with pytest.raises(ValueError):  # a mode that reads objects packs them, and this one fails
        forward_batch([ragged], star, init_parameters(star))
    assert ragged.window.key == (cfg.T, "pedestrian_only")  # the failed build kept nothing
    forward_batch([good], star, init_parameters(star))
    assert good.window.feats is not None
    assert forward_batch([good], cfg, values).tobytes() == got[1].tobytes()
    assert good.window.key == (cfg.T, "pedestrian_only") and good.window.feats is None  # repacked, without objects


def test_a_failing_scenario_leaves_no_window():
    cfg = ModelConfig(D=6, D_e=5, hidden=6, T=4, K=1, spatial_scale=1 / 1280, seed=2)
    values = init_parameters(cfg)
    good, wide = _scenario(D=6, frames=5), _scenario(D=9, frames=5)
    with pytest.raises(ScenarioError, match="width-9 features; config expects D = 6"):
        forward_batch([good, wide], cfg, values)
    assert good.window is None and wide.window is None

    # an object feature of the wrong width fails the packing itself, as it failed _object_rows
    frames = list(good.frames)
    obj = frames[1].objects[0]
    frames[1] = dataclasses.replace(frames[1], objects=(*frames[1].objects[1:], dataclasses.replace(obj, feature=np.ones(9))))
    ragged = dataclasses.replace(good, frames=tuple(frames))
    with pytest.raises(ValueError):
        _object_rows(ragged.frames[: cfg.T], cfg.D)
    with pytest.raises(ValueError):
        forward_batch([ragged], cfg, values)
    assert ragged.window is None
    forward_batch([good], cfg, values)
    assert good.window is not None


@pytest.mark.parametrize("mode", ["star", "fully_connected"])
def test_object_permutation_leaves_warm_batched_logits_bit_identical(mode):
    cfg = _batch_cfg(mode, "ctxt", "L3-unshared-norm-cls")
    values = init_parameters(cfg)
    batch = _mixed_batch()
    rng = np.random.default_rng(0)
    shuffled = [
        dataclasses.replace(
            s, frames=tuple(dataclasses.replace(f, objects=tuple(f.objects[i] for i in rng.permutation(len(f.objects)))) for f in s.frames)
        )
        for s in batch
    ]
    base = forward_batch(batch, cfg, values)
    forward_batch(shuffled, cfg, values)
    assert all(s.window is not None for s in batch + shuffled)
    assert forward_batch(shuffled, cfg, values).tobytes() == base.tobytes()
    assert forward_batch(batch, cfg, values).tobytes() == base.tobytes()


@pytest.mark.parametrize("mode", ["star", "fully_connected", "concat_baseline", "pedestrian_only"])
def test_scenario_loss_is_the_loss_of_scenario_gradients(mode):
    cfg = _batch_cfg(mode, "ctxt", "L3-unshared-norm-cls")
    values = init_parameters(cfg)
    for scenario in _mixed_batch():
        want = scenario_gradients(scenario, cfg, values)[0]
        assert np.float64(scenario_loss(scenario, cfg, values)).tobytes() == np.float64(want).tobytes()
        assert np.float64(evaluate([scenario], cfg, values).loss).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("mode", ["star", "fully_connected", "concat_baseline", "pedestrian_only"])
def test_tape_free_path_builds_no_tensor(monkeypatch, mode):
    # inference runs on the checked parameter arrays alone
    batch = _mixed_batch()
    for temporal, stack in [("default", "L2-shared"), ("ctxt", "L3-unshared-norm-cls")]:
        cfg = _batch_cfg(mode, temporal, stack)
        values = init_parameters(cfg)
        want = forward_batch(batch, cfg, values)

        def refuse(*args, **kwargs):
            raise AssertionError("a Tensor was built")

        with monkeypatch.context() as patched:
            patched.setattr(Tensor, "__init__", refuse)
            got = forward_batch(batch, cfg, values)
            one = forward(batch[0], cfg, values)
            report = evaluate(batch, cfg, values)
        assert got.tobytes() == want.tobytes()
        assert one.logits == tuple(want[0].tolist())
        assert report == evaluate(batch, cfg, values)
        with pytest.raises(AssertionError, match="Tensor"):  # the patch does bite
            with monkeypatch.context() as patched:
                patched.setattr(Tensor, "__init__", refuse)
                forward_logits(batch[0], cfg, values)


def test_batched_forward_keeps_every_check():
    cfg = ModelConfig(D=6, D_e=5, hidden=6, T=4, K=1, spatial_scale=1 / 1280, seed=2)
    values = init_parameters(cfg)
    good = _scenario(D=6, frames=5)
    with pytest.raises(ScenarioError, match="'short'.*frames"):
        forward_batch([good, type(good)(id="short", frames=good.frames[:4], fps=good.fps)], cfg, values)
    with pytest.raises(ScenarioError, match="width"):
        forward_batch([good, _scenario(D=9, frames=5)], cfg, values)
    missing = dict(values)
    missing.pop("readout.b")
    with pytest.raises(ConfigError, match="missing"):
        forward_batch([good], cfg, missing)
    wrong = dict(values, **{"readout.w": np.zeros((7, 1))})
    with pytest.raises(ConfigError, match="shape"):
        forward_batch([good], cfg, wrong)

    # an edge score that is NaN (inf * 0 in the ReLU dot product) fails the open-interval check:
    # unscaled, the union width (relation column 6) is at least the pedestrian's, so its weight
    # of the largest float overflows to e_i = +inf
    unscaled = dataclasses.replace(cfg, spatial_scale=1.0)
    proj_i = np.zeros((14, 5))
    proj_i[6 + 6] = np.finfo(float).max
    blown = dict(values, **{"edge.proj_i": proj_i, "edge.proj_o": np.zeros((6, 5))})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="open interval"):
            forward_logits(good, unscaled, blown)
        with pytest.raises(ValueError, match=f"{good.id!r}: edge weight outside the open interval"):
            forward_batch([good], unscaled, blown)

    huge = BoundingBox(-1.7e308, 0.0, 1.7e308, 10.0)
    frames = list(good.frames)
    frames[2] = type(frames[2])(
        timestamp_index=frames[2].timestamp_index,
        pedestrian_box=frames[2].pedestrian_box,
        pedestrian_feature=frames[2].pedestrian_feature,
        objects=(ObjectObservation(frames[2].objects[0].category, huge, np.ones(6)),),
        crossing_label=frames[2].crossing_label,
    )
    overflow = type(good)(id="overflow", frames=tuple(frames), fps=good.fps)
    with pytest.raises(ValueError, match="non-finite"):
        forward_logits(overflow, cfg, values)
    with pytest.raises(ValueError, match="'overflow': spatial_relation: non-finite"):
        forward_batch([good, overflow, good], cfg, values)
    # the pack keeps the overflowed relation, and each pass over the warm windows refuses it again
    assert not np.isfinite(overflow.window.relations).all()
    with pytest.raises(ValueError, match="'overflow': spatial_relation: non-finite"):
        forward_batch([good, overflow, good], cfg, values)


def _with_first_object(frame, **changes):
    return dataclasses.replace(frame, objects=(dataclasses.replace(frame.objects[0], **changes), *frame.objects[1:]))


@pytest.mark.parametrize("mode", ["star", "fully_connected", "concat_baseline", "pedestrian_only"])
def test_a_non_finite_value_in_a_hand_built_record_is_refused_by_both_forwards(mode):
    # a ReLU would turn the NaN into zeros and train on it; a mode refuses only what it packs
    cfg = _batch_cfg(mode, "default", "L2-shared")
    values = init_parameters(cfg)
    good = _mixed_batch()[0]
    frame = good.frames[2]
    assert frame.objects
    nan_feature = np.array(frame.pedestrian_feature)
    nan_feature[3] = np.nan
    changed = [
        ("pedestrian feature", dataclasses.replace(frame, pedestrian_feature=nan_feature)),
        ("pedestrian box", dataclasses.replace(frame, pedestrian_box=BoundingBox(0.0, np.nan, 10.0, 20.0))),
        ("object feature", _with_first_object(frame, feature=np.full(6, -np.inf))),
        # the first category in canonical order: the frame's first object row
        ("object feature", _with_first_object(frame, category=ObjectCategory.BICYCLIST, feature=np.full(6, np.nan))),
        ("object box", _with_first_object(frame, box=BoundingBox(np.nan, 0.0, 10.0, 20.0))),
        ("object box", _with_first_object(frame, camera_offset_x=np.inf)),  # the aligned box is what is read
    ]
    for case, (what, bad_frame) in enumerate(changed):
        bad = dataclasses.replace(good, id=f"bad-{case}", frames=(*good.frames[:2], bad_frame, *good.frames[3:]))
        if mode == "pedestrian_only" and what.startswith("object"):  # objects are neither packed nor read
            assert forward_batch([bad], cfg, values)[0].tobytes() == _unbatched_logits(bad, cfg, values).tobytes()
            continue
        message = f"^scenario {bad.id!r}: non-finite {what} in observed frame 2$"
        mate = dataclasses.replace(good)
        with pytest.raises(ScenarioError, match=message):
            forward_batch([mate, bad], cfg, values)
        assert bad.window is None and mate.window is None
        with pytest.raises(ScenarioError, match=message):
            forward_logits(bad, cfg, values)
        with pytest.raises(ScenarioError, match=message):
            scenario_gradients(bad, cfg, values)
        with pytest.raises(ScenarioError, match=message):
            train([mate, bad], cfg, TrainConfig(epochs=1, batch_size=2), initial=values)


# -- parameter bookkeeping -------------------------------------------------------


def test_parameter_shapes_star_default():
    cfg = ModelConfig(D=6, D_e=5, hidden=6, T=3, K=2)
    shapes = parameter_shapes(cfg)
    assert shapes["ped_gru.W_z"] == (12, 6)
    assert shapes["edge.proj_i"] == (14, 5)  # hidden + 8 relation components
    assert shapes["edge.proj_o"] == (6, 5)
    assert shapes["gcn.W"] == (6, 6)
    assert shapes["agg_gru.W_z"] == (18, 6)  # frame vector is 2*hidden wide
    assert shapes["pred_gru.W_z"] == (6, 6)  # zero-input rollout cell
    assert shapes["readout.w"] == (6, 1)
    assert "gcn.W0" not in shapes


def test_object_class_flag_widens_target_projection_only():
    base = ModelConfig(D=6, D_e=5, hidden=6)
    wide = ModelConfig(D=6, D_e=5, hidden=6, include_object_class=True)
    assert parameter_shapes(wide)["edge.proj_o"] == (6 + CATEGORY_COUNT, 5)
    assert parameter_shapes(wide)["edge.proj_i"] == parameter_shapes(base)["edge.proj_i"]


def test_unshared_layers_get_their_own_matrices():
    cfg = ModelConfig(D=6, D_e=5, hidden=6, num_layers=3, shared_weights=False)
    shapes = parameter_shapes(cfg)
    assert {"gcn.W0", "gcn.W1", "gcn.W2"} <= set(shapes)
    assert "gcn.W" not in shapes


def test_shared_parameter_count_is_depth_independent():
    two = ModelConfig(D=6, D_e=5, hidden=6, num_layers=2, shared_weights=True)
    three = ModelConfig(D=6, D_e=5, hidden=6, num_layers=3, shared_weights=True)
    assert parameter_count(two) == parameter_count(three)
    two_ind = ModelConfig(D=6, D_e=5, hidden=6, num_layers=2, shared_weights=False)
    assert parameter_count(two_ind) > parameter_count(two)


def test_no_temporal_uses_projection_instead_of_agg_cell():
    cfg = ModelConfig(
        D=6, D_e=5, hidden=6,
        temporal=TemporalConfig(use_temporal=False, use_ped_gru=False, use_ctxt_gru=False),
    )
    shapes = parameter_shapes(cfg)
    assert shapes["temporal_pool.proj"] == (frame_vector_width(cfg), 6)
    assert not any(n.startswith(("agg_gru.", "ped_gru.")) for n in shapes)
    assert any(n.startswith("pred_gru.") for n in shapes)  # rollout stays recurrent


def test_init_is_seeded_with_zero_biases():
    cfg = ModelConfig(D=6, D_e=5, hidden=6, seed=9)
    a = init_parameters(cfg)
    b = init_parameters(cfg)
    for name in a:
        assert np.array_equal(a[name], b[name])
    c = init_parameters(ModelConfig(D=6, D_e=5, hidden=6, seed=10))
    assert any(not np.array_equal(a[n], c[n]) for n in a)
    for name, value in a.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf.startswith("b"):
            assert np.all(value == 0.0), name
        else:
            bound = 1.0 / np.sqrt(value.shape[0])
            assert np.all(np.abs(value) <= bound), name


def test_every_parameter_receives_gradient():
    # wiring check: with every optional piece enabled, no parameter is dead.
    # A single draw can zero the edge projections by chance (both ReLU
    # masks dead on the same component), so accumulate over a few scenarios.
    cfg = ModelConfig(
        D=6, D_e=5, hidden=6, T=3, K=2, spatial_scale=1 / 1280, seed=1,
        temporal=TemporalConfig(use_temporal=True, use_ped_gru=True, use_ctxt_gru=True),
    )
    values = init_parameters(cfg)
    alive: set[str] = set()
    for seed in (4, 5, 6):
        tape = GradientTape()
        grads = tape.backward(scenario_loss_tensor(_scenario(D=6, seed=seed), cfg, values, tape))
        alive |= {n for n, g in grads.items() if np.any(g)}
    dead = sorted(set(values) - alive)
    assert dead == [], dead


def test_config_validation():
    with pytest.raises(ConfigError, match="hidden == D"):
        ModelConfig(D=6, hidden=8)
    with pytest.raises(ConfigError, match="hidden == D"):
        ModelConfig(D=6, hidden=8, graph_mode="fully_connected")
    ModelConfig(D=6, hidden=8, graph_mode="pedestrian_only")  # decoupled widths are fine here
    with pytest.raises(ConfigError):
        ModelConfig(num_layers=4)
    with pytest.raises(ConfigError):
        ModelConfig(graph_mode="ring")
    with pytest.raises(ConfigError):
        ModelConfig(spatial_scale=0.0)
    with pytest.raises(ConfigError, match="removed"):
        ModelConfig(location_centric=True)
    with pytest.raises(ConfigError, match="removed"):
        ModelConfig(location_centric=True, graph_mode="fully_connected")
    with pytest.raises(ConfigError, match="unknown config key"):
        ModelConfig.from_dict({"d": 6})


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: ModelConfig(shared_weights="no"), id="shared_weights=str"),
        pytest.param(lambda: ModelConfig(normalize_adjacency=1), id="normalize_adjacency=int"),
        pytest.param(lambda: ModelConfig(location_centric="yes"), id="location_centric=str"),
        pytest.param(lambda: ModelConfig(include_object_class=None), id="include_object_class=None"),
        pytest.param(lambda: ModelConfig(spatial_scale=True), id="spatial_scale=bool"),
        pytest.param(lambda: TemporalConfig(use_temporal=0), id="use_temporal=int"),
        pytest.param(lambda: TemporalConfig(use_ped_gru="false"), id="use_ped_gru=str"),
        pytest.param(lambda: ModelConfig.from_dict({"temporal": {"use_ctxt_gru": "no"}}), id="use_ctxt_gru=str-from-mapping"),
        pytest.param(lambda: TrainConfig(learning_rate=float("inf")), id="learning_rate=inf"),
        pytest.param(lambda: TrainConfig(learning_rate=True), id="learning_rate=bool"),
        pytest.param(lambda: TrainConfig(epsilon=float("inf")), id="epsilon=inf"),
        pytest.param(lambda: TrainConfig(beta1=False), id="beta1=bool"),
        pytest.param(lambda: TrainConfig(grad_clip_norm=float("inf")), id="grad_clip_norm=inf"),
        pytest.param(lambda: TrainConfig.from_dict(json.loads('{"learning_rate": Infinity}')), id="learning_rate=Infinity-from-json"),
        pytest.param(lambda: SynthConfig(frame_width=True), id="frame_width=bool"),
        pytest.param(lambda: SynthConfig(fps=True), id="fps=bool"),
        pytest.param(lambda: SynthConfig(vehicle_count_range=(False, True)), id="vehicle_count_range=bools"),
        pytest.param(lambda: SynthConfig(ped_speed_range=(True, 5.0)), id="ped_speed_range=bool"),
        pytest.param(lambda: SynthConfig(crosswalk_center_range=(False, True)), id="crosswalk_center_range=bools"),
        pytest.param(lambda: TrainConfig(learning_rate=10**400), id="learning_rate=int-beyond-float-range"),
        pytest.param(lambda: ModelConfig(spatial_scale=10**400), id="spatial_scale=int-beyond-float-range"),
        pytest.param(lambda: SynthConfig(ped_speed_range=(1, 10**400)), id="ped_speed_range=int-beyond-float-range"),
        pytest.param(lambda: ModelConfig(T=10**400), id="T=int-beyond-float-range"),
        pytest.param(lambda: SynthConfig(n_scenarios=10**400), id="n_scenarios=int-beyond-float-range"),
    ],
)
def test_config_rejects_values_of_the_wrong_type(build):
    with pytest.raises(ConfigError):
        build()


@pytest.mark.parametrize(
    "values",
    [["1.5"], [1.0, True], [None], [[1.0]], [float("nan")], [-float("inf")], [10**400], [2.0, -(10**400)]],
)
def test_number_rule_rejects_all_but_finite_ints_and_floats(values):
    assert finite_array(values) is None
    assert not is_finite_real(values[-1])


def test_number_rule_converts_like_float():
    values = [0, -3, 2**64 + 1, 0.1, -1e308, 5e-324]
    arr = finite_array(values)
    assert arr.dtype == np.float64
    assert arr.tobytes() == np.array([float(v) for v in values]).tobytes()
    assert finite_array([]).shape == (0,)


def test_config_dict_roundtrip_including_temporal():
    cfg = ModelConfig(
        D=6, D_e=5, hidden=6, num_layers=1,
        temporal=TemporalConfig(use_temporal=True, use_ped_gru=False, use_ctxt_gru=True),
    )
    again = ModelConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


# -- invariances ------------------------------------------------------------------


def test_object_permutation_leaves_logits_bit_identical():
    cfg = ModelConfig(D=6, D_e=5, hidden=6, T=3, K=2, spatial_scale=1 / 1280, seed=3)
    scenario = _scenario(D=6, seed=8, vehicles=(3, 3))
    values = init_parameters(cfg)
    base = [t.item() for t in forward_logits(scenario, cfg, values)]

    shuffled_frames = []
    rng = np.random.default_rng(0)
    for f in scenario.frames:
        order = rng.permutation(len(f.objects))
        shuffled_frames.append(
            type(f)(
                timestamp_index=f.timestamp_index,
                pedestrian_box=f.pedestrian_box,
                pedestrian_feature=f.pedestrian_feature,
                objects=tuple(f.objects[i] for i in order),
                crossing_label=f.crossing_label,
            )
        )
    shuffled = type(scenario)(id=scenario.id, frames=tuple(shuffled_frames), fps=scenario.fps)
    again = [t.item() for t in forward_logits(shuffled, cfg, values)]
    assert again == base  # not just allclose: bitwise equal


def test_camera_offset_shifts_the_relation():
    cfg = ModelConfig(D=6, D_e=5, hidden=6, T=2, K=1, spatial_scale=1 / 1280, seed=3)
    scenario = _scenario(D=6, seed=8, frames=3)
    values = init_parameters(cfg)
    base = forward(scenario, cfg, values).logits

    moved_frames = []
    for f in scenario.frames:
        moved = tuple(
            ObjectObservation(o.category, o.box, o.feature, camera_offset_x=o.camera_offset_x + 40.0)
            for o in f.objects
        )
        moved_frames.append(
            type(f)(
                timestamp_index=f.timestamp_index,
                pedestrian_box=f.pedestrian_box,
                pedestrian_feature=f.pedestrian_feature,
                objects=moved,
                crossing_label=f.crossing_label,
            )
        )
    shifted = type(scenario)(id=scenario.id, frames=tuple(moved_frames), fps=scenario.fps)
    assert forward(shifted, cfg, values).logits != base


def test_spatial_scale_changes_edge_scores():
    scenario = _scenario(D=6, seed=8, frames=3)
    a = ModelConfig(D=6, D_e=5, hidden=6, T=2, K=1, spatial_scale=1 / 1280, seed=3)
    b = ModelConfig(D=6, D_e=5, hidden=6, T=2, K=1, spatial_scale=1 / 640, seed=3)
    values = init_parameters(a)
    assert forward(scenario, a, values).logits != forward(scenario, b, values).logits


@settings(max_examples=15, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(["star", "fully_connected", "pedestrian_only", "concat_baseline"]),
    st.integers(0, 3),
    st.booleans(),
)
def test_forward_stays_finite_across_random_configs(seed, mode, layers, shared):
    cfg = ModelConfig(
        D=5, D_e=4, hidden=5, T=2, K=2, num_layers=layers, shared_weights=shared,
        graph_mode=mode, spatial_scale=1 / 1280, seed=seed % 100,
    )
    scenario = _scenario(D=5, seed=seed, frames=4, vehicles=(0, 3))
    out = forward(scenario, cfg, values=init_parameters(cfg))
    assert all(np.isfinite(out.logits))
    assert all(0.0 <= p <= 1.0 for p in out.probabilities)
    assert out.probabilities == tuple(float(p) for p in sigmoid_values(np.array(out.logits)))


# -- labels and validation --------------------------------------------------------


def test_future_labels_slice():
    cfg = ModelConfig(D=6, D_e=5, hidden=6, T=3, K=2)
    scenario = _scenario(D=6, frames=6)
    assert future_labels(scenario, cfg) == [f.crossing_label for f in scenario.frames[3:5]]
    with pytest.raises(ScenarioError, match=r"has 4 frames; config needs T\+K = 5"):
        future_labels(_scenario(D=6, frames=4), cfg)


def test_short_or_mismatched_scenarios_rejected():
    cfg = ModelConfig(D=6, D_e=5, hidden=6, T=4, K=4)
    with pytest.raises(ScenarioError, match="frames"):
        forward_logits(_scenario(D=6, frames=5), cfg, init_parameters(cfg))
    wide = _scenario(D=9, frames=8)
    with pytest.raises(ScenarioError, match="width"):
        forward_logits(wide, cfg, init_parameters(cfg))


def test_parameter_mismatch_rejected():
    cfg = ModelConfig(D=6, D_e=5, hidden=6, T=2, K=1)
    scenario = _scenario(D=6, frames=3)
    values = init_parameters(cfg)
    values.pop("readout.b")
    with pytest.raises(ConfigError, match="missing"):
        forward_logits(scenario, cfg, values)
    values = init_parameters(cfg)
    values["readout.w"] = np.zeros((7, 1))
    with pytest.raises(ConfigError, match="shape"):
        forward_logits(scenario, cfg, values)


def _loaded(tmp_path, cfg):
    save_checkpoint(tmp_path / "model.json", cfg, init_parameters(cfg))
    return load_checkpoint(tmp_path / "model.json")[1]


def test_check_parameters_takes_a_loaded_row_as_it_is_and_still_scans_it(tmp_path):
    cfg = ModelConfig(D=6, D_e=5, hidden=6, T=3, K=2, spatial_scale=1 / 1280, seed=4)
    p = _loaded(tmp_path, cfg)
    assert isinstance(p, Parameters) and p.row.shape == (parameter_count(cfg),) and p.row.dtype == np.float64
    assert model.check_parameters(cfg, p) is p
    assert model.check_parameters(dataclasses.replace(cfg, T=5, seed=9), p) is p  # another config, the same layout
    scenario = _scenario(D=6)
    assert np.array(forward(scenario, cfg, p).logits).tobytes() == np.array(forward(scenario, cfg, dict(p)).logits).tobytes()
    p["gcn.W"][1, 2] = np.nan  # written through the view, into the row
    for call in (lambda: model.check_parameters(cfg, p), lambda: forward(scenario, cfg, p)):
        with pytest.raises(ConfigError, match=r"^parameter gcn\.W holds a NaN$"):
            call()


def test_check_parameters_copies_what_it_cannot_take_as_it_is(tmp_path):
    cfg = ModelConfig(D=6, D_e=5, hidden=6, T=3, K=2, spatial_scale=1 / 1280, seed=4)
    p = _loaded(tmp_path, cfg)
    replaced = Parameters(cfg, p.row.copy())
    replaced["readout.w"] = replaced["readout.w"].copy()
    float32 = Parameters(cfg, p.row.astype(np.float32))
    for values in (replaced, float32, dict(p)):
        checked = model.check_parameters(cfg, values)
        assert checked is not values and not np.shares_memory(checked.row, values["readout.w"])
        assert checked.row.dtype == np.float64
        assert checked.row.tobytes() == np.asarray(values.row if values is float32 else p.row, dtype=np.float64).tobytes()
    # each falls back to the copying path's messages
    replaced["readout.w"] = np.zeros((7, 1))
    wider = Parameters(dataclasses.replace(cfg, D_e=6), np.zeros(parameter_count(dataclasses.replace(cfg, D_e=6))))
    baseline = dataclasses.replace(cfg, graph_mode="concat_baseline", hidden=7)
    other_names = Parameters(baseline, np.zeros(parameter_count(baseline)))
    stacked = Parameters(cfg, np.stack([p.row, p.row]))
    refused = [
        (replaced, r"^parameter readout\.w has shape \(7, 1\), config expects \(6, 1\)$"),
        (wider, r"^parameter edge\.proj_i has shape \(14, 6\), config expects \(14, 5\)$"),
        (other_names, r"^parameter names do not match the config \(missing \['edge\.proj_i'"),
        (stacked, r"^parameter ped_gru\.W_z has shape \(2, 12, 6\), config expects \(12, 6\)$"),
    ]
    for values, message in refused:
        with pytest.raises(ConfigError, match=message):
            model.check_parameters(cfg, values)


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_a_copied_parameters_is_built_over_its_own_row(tmp_path, how):
    # a copy's entries are views of its own row, so check_parameters may take it as it is and still scan what it reads
    cfg = ModelConfig(D=6, D_e=5, hidden=6, T=3, K=2, spatial_scale=1 / 1280, seed=4)
    duplicate = {"deepcopy": copy.deepcopy, "pickle": lambda p: pickle.loads(pickle.dumps(p))}[how]
    p = _loaded(tmp_path, cfg)
    q = duplicate(p)
    assert model.check_parameters(cfg, q) is q and q.row.tobytes() == p.row.tobytes() and not np.shares_memory(q.row, p.row)
    assert all(np.shares_memory(value, q.row) for value in q.values())
    q["gcn.W"][1, 2] = np.inf
    with pytest.raises(ConfigError, match=r"^parameter gcn\.W holds an infinite value$"):
        model.check_parameters(cfg, q)
    # a replaced entry is carried over, and the copy is copied as the original would be
    p["readout.w"] = np.full((6, 1), 7.0)
    q = duplicate(p)
    checked = model.check_parameters(cfg, q)
    assert checked is not q and checked["readout.w"].tobytes() == np.full((6, 1), 7.0).tobytes()


@pytest.mark.parametrize("kind", ["str", "bool", "object", "complex"])
def test_check_parameters_refuses_values_that_are_not_numbers(tmp_path, kind):
    cfg = ModelConfig(D=6, D_e=5, hidden=6, T=3, K=2, spatial_scale=1 / 1280, seed=4)
    values = init_parameters(cfg)
    w = values["readout.w"]
    values["readout.w"] = {"str": w.astype(str), "bool": w > 0, "object": w.astype(object), "complex": w + 0j}[kind]
    message = rf"^parameter readout\.w holds {re.escape(str(values['readout.w'].dtype))} values, not numbers$"
    with pytest.raises(ConfigError, match=message):
        model.check_parameters(cfg, values)
    with pytest.raises(ConfigError, match=message):
        forward(_scenario(D=6), cfg, values)
    with pytest.raises(CheckpointError, match=message):
        save_checkpoint(tmp_path / "m.json", cfg, values)
    assert not (tmp_path / "m.json").exists()
    # integers are numbers: they are converted as before
    ints = dict(values, **{"readout.w": np.arange(6).reshape(6, 1)})
    assert model.check_parameters(cfg, ints)["readout.w"].tobytes() == np.arange(6.0).reshape(6, 1).tobytes()


# -- checkpoints --------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = ModelConfig(D=6, D_e=5, hidden=6, T=3, K=2, spatial_scale=1 / 1280, seed=4)
    values = init_parameters(cfg)
    path = tmp_path / "model.json"
    save_checkpoint(path, cfg, values)
    cfg2, values2 = load_checkpoint(path)
    assert cfg2 == cfg
    assert set(values2) == set(values)
    for name in values:
        assert np.array_equal(values2[name], values[name]), name
    scenario = _scenario(D=6)
    assert forward(scenario, cfg, values).logits == forward(scenario, cfg2, values2).logits


def test_checkpoint_tampering_detected(tmp_path):
    cfg = ModelConfig(D=6, D_e=5, hidden=6, T=3, K=2, seed=4, spatial_scale=1 / 1280)
    values = init_parameters(cfg)
    path = tmp_path / "model.json"
    save_checkpoint(path, cfg, values)
    doc = json.loads(path.read_text())

    bad = dict(doc, format_version=99)
    path.write_text(json.dumps(bad))
    with pytest.raises(CheckpointError, match="format_version"):
        load_checkpoint(path)

    bad = json.loads(json.dumps(doc))
    del bad["parameters"]["readout.w"]
    path.write_text(json.dumps(bad))
    with pytest.raises(CheckpointError, match="do not match"):
        load_checkpoint(path)

    bad = json.loads(json.dumps(doc))
    bad["parameters"]["readout.w"]["shape"] = [7, 1]
    path.write_text(json.dumps(bad))
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(path)

    bad = json.loads(json.dumps(doc))
    bad["parameters"]["readout.w"]["values"][0] = None
    path.write_text(json.dumps(bad))
    with pytest.raises(CheckpointError, match="non-finite"):
        load_checkpoint(path)

    path.write_text("not json")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_save_rejects_mismatched_parameters(tmp_path):
    cfg = ModelConfig(D=6, D_e=5, hidden=6)
    values = init_parameters(cfg)
    values.pop("readout.b")
    with pytest.raises(CheckpointError):
        save_checkpoint(tmp_path / "m.json", cfg, values)


@pytest.mark.parametrize("name", ["edge.proj_i", "readout.b"])
def test_save_rejects_misshapen_parameters_and_keeps_the_old_file(tmp_path, name):
    # a transposed (3, 12) edge.proj_i would load back as a different (12, 3)
    # matrix; a wrong-size readout.b would save and then fail on load
    cfg = ModelConfig(D=4, D_e=3, hidden=4)
    values = init_parameters(cfg)
    path = tmp_path / "m.json"
    save_checkpoint(path, cfg, values)
    before = path.read_bytes()
    bad = values[name].T if name == "edge.proj_i" else np.zeros((1, 2))
    assert bad.shape != values[name].shape
    with pytest.raises(CheckpointError, match=f"parameter {name} has shape"):
        save_checkpoint(path, cfg, dict(values, **{name: bad}))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


def test_forward_stays_finite_across_a_large_corpus():
    data = generate_synthetic(SynthConfig(n_scenarios=1000, frames_per_scenario=6, D=8, seed=17))
    cfg = ModelConfig(D=8, D_e=6, hidden=8, T=4, K=2, spatial_scale=1 / 1280, seed=5)
    values = init_parameters(cfg)
    for scenario in data:
        logits = forward(scenario, cfg, values)
        assert all(np.isfinite(x) for x in logits.logits)
