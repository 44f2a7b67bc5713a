"""Model assembly: config, parameters, forward pass, and checkpoints.

Per observed frame the forward pass (a) updates the pedestrian stream cell on
the frame's pedestrian feature (or passes the raw feature through), (b) scores
one edge weight per scene object, all of them in one block (and in
fully_connected mode all object pairs in a second block), (c) runs graph
convolution over the star graph and splits the result into the refined
pedestrian row and the mean object context, and (d) feeds the concatenated
frame vector to the aggregation cell. The last aggregated hidden state seeds a zero-input rollout
that emits one crossing logit per future frame.

graph_mode variants:
  star             full model (pedestrian hub, object spokes)
  fully_connected  adds object-object edges scored with the source object
                   standing in for the pedestrian
  concat_baseline  no graph; frame vector = [pedestrian stream, mean of raw
                   object features]
  pedestrian_only  no graph and no context; frame vector = pedestrian stream

Objects are put in a canonical order (category, box, camera offset, feature)
before any arithmetic, so outputs are bit-identical under permutations of the
input object lists; floating-point addition is not associative, so ordering
is what makes that exact rather than approximate.

There is one implementation of each stage, and two forwards call it.
forward_logits builds one scenario on Tensors and is the taped training
forward; each GRU step, edge block and frame's graph block is one tape node
(gru_step, edge_weight, star_graph). forward_batch is the inference path
(evaluate, forward as a batch of one, the CLI's eval, predict and ablate):
one tape-free NumPy pass over B scenarios. It runs each GRU of all B
scenarios as stacked one-row products, (B, 1, I+H) @ W, through the value
kernel gru_step also calls; scores all spokes of a pass in one call of the
stacked-row kernel edge_weight also calls (and all object pairs in a
second); and groups frames by object count N, so each bucket's graph block
is one call of the stacked kernels star_graph also calls:
(m, N+1, N+1) @ (m, N+1, H) @ W per layer, then the split into frame rows.
NumPy evaluates a stacked product one matrix at a time, with the call the
lone product makes, so a batched logit equals forward_logits byte for byte
whatever else shares the batch (tests/test_model.py checks this under
tobytes()). A block-diagonal union of the frames, as in PyTorch Geometric,
would add zero terms to the sums and change their rounding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import GradientTape, Tensor, sigmoid_values
from .configs import ConfigError, check_bool_fields, check_int, check_real, finite_array, from_mapping, to_plain_dict
from .data import write_text_atomic
from .graph import (
    EdgeWeightParams,
    build_adjacency,
    edge_values,
    edge_weight,
    frame_rows,
    graph_conv,
    open_unit,
    star_graph,
)
from .recurrent import (
    GRUCellParams,
    ReadoutParams,
    TemporalConfig,
    gru_step,
    gru_values,
    prediction_rollout,
    run_observation,
)
from .scene import CATEGORY_COUNT, FrameObservation, ObjectCategory, Scenario, spatial_relation

GRAPH_MODES = ("star", "fully_connected", "concat_baseline", "pedestrian_only")


class ScenarioError(Exception):
    """A scenario cannot be consumed under the given model config."""


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions, horizons, and every structural switch of the model.

    hidden is the shared width of all recurrent cells and of graph node rows;
    star/fully_connected modes stack raw object features (width D) under the
    pedestrian stream output (width hidden), so those modes require
    hidden == D. spatial_scale multiplies the raw pixel deltas fed to edge
    scoring (1.0 keeps them raw; datasets in large pixel units should pass
    roughly 1/frame_width so the sigmoid scorer starts in its linear range).
    location_centric must stay false: the location-centric variant was
    removed, and the field remains only because every version-1 checkpoint
    names it.
    """

    D: int = 32
    D_e: int = 32
    hidden: int = 32
    num_layers: int = 2
    shared_weights: bool = True
    graph_mode: str = "star"
    temporal: TemporalConfig = field(default_factory=TemporalConfig)
    include_object_class: bool = False
    T: int = 4
    K: int = 4
    seed: int = 0
    spatial_scale: float = 1.0
    normalize_adjacency: bool = False
    location_centric: bool = False

    def __post_init__(self):
        check_int("D", self.D, 1)
        check_int("D_e", self.D_e, 1)
        check_int("hidden", self.hidden, 1)
        check_int("num_layers", self.num_layers, 0, 3)
        check_int("T", self.T, 1)
        check_int("K", self.K, 1)
        check_int("seed", self.seed, 0)
        check_bool_fields(self)
        if self.graph_mode not in GRAPH_MODES:
            raise ConfigError(f"graph_mode must be one of {GRAPH_MODES}, got {self.graph_mode!r}")
        if not isinstance(self.temporal, TemporalConfig):
            raise ConfigError("temporal must be a TemporalConfig")
        check_real("spatial_scale", self.spatial_scale, 0)
        if self.graph_mode in ("star", "fully_connected") and self.hidden != self.D:
            raise ConfigError(
                f"graph node rows mix the pedestrian stream (width hidden={self.hidden}) with raw "
                f"object features (width D={self.D}); {self.graph_mode} mode needs hidden == D"
            )
        if self.location_centric:
            raise ConfigError("location_centric: the location-centric variant was removed; set it to false")

    @classmethod
    def from_dict(cls, mapping: Mapping) -> "ModelConfig":
        return from_mapping(cls, mapping, where="model.")

    def to_dict(self) -> dict:
        return to_plain_dict(self)


def _ped_stream_width(cfg: ModelConfig) -> int:
    if cfg.temporal.use_temporal and cfg.temporal.use_ped_gru:
        return cfg.hidden
    return cfg.D


def frame_vector_width(cfg: ModelConfig) -> int:
    """Width of the per-frame vector handed to the aggregation stage."""
    if cfg.graph_mode == "pedestrian_only":
        return _ped_stream_width(cfg)
    if cfg.graph_mode == "concat_baseline":
        return _ped_stream_width(cfg) + cfg.D
    return 2 * cfg.hidden


def _gru_shapes(shapes: dict, prefix: str, input_width: int, hidden: int) -> None:
    rows = input_width + hidden
    for gate in ("W_z", "W_r", "W_h"):
        shapes[f"{prefix}.{gate}"] = (rows, hidden)
    for gate in ("b_z", "b_r", "b_h"):
        shapes[f"{prefix}.{gate}"] = (1, hidden)


def parameter_shapes(cfg: ModelConfig) -> dict[str, tuple[int, int]]:
    """Every learnable parameter and its shape, in creation order."""
    shapes: dict[str, tuple[int, int]] = {}
    h, d = cfg.hidden, cfg.D
    tc = cfg.temporal
    if tc.use_temporal and tc.use_ped_gru:
        _gru_shapes(shapes, "ped_gru", d, h)
    if cfg.graph_mode in ("star", "fully_connected"):
        shapes["edge.proj_i"] = (d + 8, cfg.D_e)
        shapes["edge.proj_o"] = (d + (CATEGORY_COUNT if cfg.include_object_class else 0), cfg.D_e)
        if cfg.num_layers > 0:
            if cfg.shared_weights:
                shapes["gcn.W"] = (h, h)
            else:
                for layer in range(cfg.num_layers):
                    shapes[f"gcn.W{layer}"] = (h, h)
        if tc.use_temporal and tc.use_ctxt_gru:
            _gru_shapes(shapes, "ctxt_gru", h, h)
    if tc.use_temporal:
        _gru_shapes(shapes, "agg_gru", frame_vector_width(cfg), h)
    else:
        shapes["temporal_pool.proj"] = (frame_vector_width(cfg), h)
    _gru_shapes(shapes, "pred_gru", 0, h)
    shapes["readout.w"] = (h, 1)
    shapes["readout.b"] = (1, 1)
    return shapes


def _is_bias(name: str) -> bool:
    return name.rsplit(".", 1)[-1].startswith("b")


def init_parameters(cfg: ModelConfig) -> dict[str, np.ndarray]:
    """Seeded init: biases zero, weights uniform(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
    rng = np.random.default_rng(cfg.seed)
    values: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(cfg).items():
        if _is_bias(name):
            values[name] = np.zeros(shape)
        else:
            bound = 1.0 / math.sqrt(shape[0])
            values[name] = rng.uniform(-bound, bound, size=shape)
    return values


def parameter_count(cfg: ModelConfig) -> int:
    return sum(r * c for r, c in parameter_shapes(cfg).values())


def _lift_params(cfg: ModelConfig, values: Mapping[str, np.ndarray], tape: GradientTape | None) -> dict[str, Tensor]:
    shapes = parameter_shapes(cfg)
    if set(values) != set(shapes):
        missing = sorted(set(shapes) - set(values))
        extra = sorted(set(values) - set(shapes))
        raise ConfigError(f"parameter names do not match the config (missing {missing}, unexpected {extra})")
    lifted: dict[str, Tensor] = {}
    for name, shape in shapes.items():
        arr = np.asarray(values[name], dtype=np.float64)
        if arr.shape != shape:
            raise ConfigError(f"parameter {name} has shape {arr.shape}, config expects {shape}")
        lifted[name] = tape.parameter(name, arr) if tape is not None else Tensor(arr)
    return lifted


def _gru_bundle(p: Mapping[str, Tensor], prefix: str) -> GRUCellParams:
    return GRUCellParams(
        W_z=p[f"{prefix}.W_z"],
        W_r=p[f"{prefix}.W_r"],
        W_h=p[f"{prefix}.W_h"],
        b_z=p[f"{prefix}.b_z"],
        b_r=p[f"{prefix}.b_r"],
        b_h=p[f"{prefix}.b_h"],
    )


# Categories in the order of their values, which the canonical object order
# compares first.
_BY_VALUE = sorted(ObjectCategory, key=lambda c: c.value)
_VALUE_RANK = {c: rank for rank, c in enumerate(_BY_VALUE)}
_RANK_INDEX = np.array([c.index for c in _BY_VALUE], dtype=np.intp)


@dataclass(frozen=True)
class _ObjectRows:
    """The objects of F frames as M rows, grouped by frame, each frame's in canonical order."""

    counts: np.ndarray  # (F,) objects per frame
    feats: np.ndarray  # (M, D)
    boxes: np.ndarray  # (M, 4) aligned boxes
    categories: np.ndarray  # (M,) ObjectCategory.index


def _object_rows(frames: Sequence[FrameObservation], width: int) -> _ObjectRows:
    flat = [o for f in frames for o in f.objects]
    counts = np.array([len(f.objects) for f in frames], dtype=np.intp)
    feats = np.array([o.feature for o in flat]).reshape(len(flat), width)
    keys = np.array(
        [(_VALUE_RANK[o.category], o.box.xmin, o.box.ymin, o.box.xmax, o.box.ymax, o.camera_offset_x) for o in flat]
    ).reshape(len(flat), 6)
    # np.lexsort is stable and sorts by its last key first: frame, then
    # category value, raw box corners, camera offset and feature, like sorted()
    # on (frame, category.value, *box, camera_offset_x, *feature)
    order = np.lexsort([*feats.T[::-1], *keys.T[::-1], np.repeat(np.arange(len(frames)), counts)])
    feats, keys = feats[order], keys[order]
    boxes, dx = keys[:, 1:5], keys[:, 5]
    shifted = dx != 0.0  # aligned_box() leaves these boxes as they are, even a -0.0 corner
    boxes[shifted, 0] += dx[shifted]
    boxes[shifted, 2] += dx[shifted]
    return _ObjectRows(counts, feats, boxes, _RANK_INDEX[keys[:, 0].astype(np.intp)])


def _edge_targets(cfg: ModelConfig, categories: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Edge-scoring target rows: the features, plus the class one-hot if configured."""
    if not cfg.include_object_class:
        return feats
    return np.concatenate([feats, np.eye(CATEGORY_COUNT)[categories]], axis=1)


@dataclass(frozen=True)
class PredictionOutput:
    """Per future frame: raw logit and its (uncalibrated) sigmoid probability."""

    logits: tuple[float, ...]
    probabilities: tuple[float, ...]

    @classmethod
    def from_logits(cls, logits) -> "PredictionOutput":
        flat = [float(z) for z in logits]
        probs = tuple(float(v) for v in sigmoid_values(np.array(flat)).reshape(-1))
        return cls(logits=tuple(flat), probabilities=probs)

    def to_dict(self) -> dict:
        return {"logits": list(self.logits), "probabilities": list(self.probabilities)}


def _check_scenario(scenario: Scenario, cfg: ModelConfig) -> None:
    need = cfg.T + cfg.K
    if len(scenario.frames) < need:
        raise ScenarioError(
            f"scenario {scenario.id!r} has {len(scenario.frames)} frames; "
            f"config needs T+K = {need}"
        )
    if scenario.feature_width != cfg.D:
        raise ScenarioError(
            f"scenario {scenario.id!r} carries width-{scenario.feature_width} features; "
            f"config expects D = {cfg.D}"
        )


def forward_logits(
    scenario: Scenario,
    cfg: ModelConfig,
    values: Mapping[str, np.ndarray],
    tape: GradientTape | None = None,
) -> list[Tensor]:
    """Logit tensors for frames T+1..T+K, differentiable when given a tape.

    This is the training forward; inference goes through forward_batch.
    """
    _check_scenario(scenario, cfg)
    observed = scenario.frames[: cfg.T]
    tc, mode = cfg.temporal, cfg.graph_mode
    p = _lift_params(cfg, values, tape)

    ped_inputs = [Tensor(f.pedestrian_feature.reshape(1, -1)) for f in observed]
    if tc.use_temporal and tc.use_ped_gru:
        ped_nodes = run_observation(_gru_bundle(p, "ped_gru"), ped_inputs)
    else:
        ped_nodes = ped_inputs

    ctxt_cell = None
    if mode in ("star", "fully_connected"):
        edge_p = EdgeWeightParams(p["edge.proj_i"], p["edge.proj_o"])
        layers = [p["gcn.W" if cfg.shared_weights else f"gcn.W{i}"] for i in range(cfg.num_layers)]
        if tc.use_temporal and tc.use_ctxt_gru:
            ctxt_cell = _gru_bundle(p, "ctxt_gru")
            h_ctxt = ad.zeros(1, cfg.hidden)

    objs = None if mode == "pedestrian_only" else _object_rows(observed, cfg.D)
    if objs is not None:
        targets_all = _edge_targets(cfg, objs.categories, objs.feats)
    frame_vecs: list[Tensor] = []
    end = 0
    for t, (frame, ped) in enumerate(zip(observed, ped_nodes)):
        if objs is None:
            frame_vecs.append(ped)
            continue
        rows = slice(end, end + int(objs.counts[t]))
        end = rows.stop
        feats = objs.feats[rows]
        if mode == "concat_baseline":
            pooled = feats.mean(axis=0, keepdims=True) if len(feats) else np.zeros((1, cfg.D))
            frame_vecs.append(ad.concat_rows(ped, Tensor(pooled)))
            continue

        targets, boxes = targets_all[rows], objs.boxes[rows]
        ped_box = np.array([frame.pedestrian_box.as_list()], dtype=np.float64)
        rel = Tensor(spatial_relation(ped_box, boxes) * cfg.spatial_scale)
        weights = edge_weight(ped, rel, Tensor(targets), edge_p)
        pair_weights = None
        if mode == "fully_connected":
            src, tgt = np.triu_indices(len(feats), 1)  # object pairs i < j, row-major
            rel = Tensor(spatial_relation(boxes[src], boxes[tgt]) * cfg.spatial_scale)
            pair_weights = edge_weight(Tensor(feats[src]), rel, Tensor(targets[tgt]), edge_p)
        vec = star_graph(ped, feats, weights, pair_weights, layers, cfg.normalize_adjacency)
        if ctxt_cell is not None:
            h_ctxt = gru_step(ctxt_cell, ad.columns(vec, cfg.hidden, 2 * cfg.hidden), h_ctxt)
            vec = ad.concat_rows(ad.columns(vec, 0, cfg.hidden), h_ctxt)
        frame_vecs.append(vec)

    if tc.use_temporal:
        h_final = run_observation(_gru_bundle(p, "agg_gru"), frame_vecs)[-1]
    else:
        pooled = ad.mean_rows(ad.stack_rows(frame_vecs))
        h_final = ad.matmul(pooled, p["temporal_pool.proj"])

    readout = ReadoutParams(w=p["readout.w"], b=p["readout.b"])
    return prediction_rollout(_gru_bundle(p, "pred_gru"), h_final, cfg.K, readout)


# Scenarios per stacked pass. It bounds the batch arrays whatever the dataset
# size. Larger passes amortise more Python overhead but hold more temporaries:
# on the eval-dense benchmark (2-core Xeon), passes of 32 ran 1.25x as many
# scenarios per second as passes of 16, for 2 MB (3%) more peak RSS.
_CHUNK = 16


def forward_batch(
    scenarios: Sequence[Scenario], cfg: ModelConfig, values: Mapping[str, np.ndarray]
) -> np.ndarray:
    """(B, K) logits of B scenarios from one tape-free NumPy pass.

    Row b is bit for bit forward_logits(scenarios[b]) and does not depend on
    which other scenarios share the batch or in what order.
    """
    for scenario in scenarios:
        _check_scenario(scenario, cfg)
    p = _lift_params(cfg, values, None)
    chunks = [_forward_chunk(scenarios[i : i + _CHUNK], cfg, p) for i in range(0, len(scenarios), _CHUNK)]
    return np.concatenate(chunks) if chunks else np.zeros((0, cfg.K))


def _run_cell(cell: GRUCellParams, inputs: np.ndarray, hidden: int) -> list[np.ndarray]:
    """Unroll a cell over (B, T, 1, I) inputs from zero; every (B, 1, H) state in order."""
    h = np.zeros((inputs.shape[0], 1, hidden))
    states = []
    for t in range(inputs.shape[1]):
        h, _ = gru_values(cell, inputs[:, t], h)
        states.append(h)
    return states


def _buckets(counts: np.ndarray):
    """(N, frame indices, (m, N) object row indices) per distinct object count N."""
    starts = np.cumsum(counts) - counts
    for n in sorted(set(counts.tolist())):
        frames = np.flatnonzero(counts == n)
        yield n, frames, starts[frames][:, None] + np.arange(n)


def _score_edges(
    scenarios, cfg: ModelConfig, p: Mapping[str, Tensor], what: str,
    src: np.ndarray, src_boxes: np.ndarray, tgt_boxes: np.ndarray, targets: np.ndarray, frames: np.ndarray,
) -> np.ndarray:
    """Clipped (M,) weights of M edges drawn from many frames of ``scenarios``.

    The rows of ``src`` (M, Dc), ``src_boxes`` and ``tgt_boxes`` (M, 4) and
    ``targets`` (M, Do) describe the edges; ``frames`` holds each edge's
    frame index. The checks of the per-scenario forward hold: a relation
    that overflows and a weight outside (0, 1) raise ValueError, naming the
    first scenario concerned.
    """
    try:
        rel = spatial_relation(src_boxes, tgt_boxes)
    except ValueError as exc:
        for index, scenario in enumerate(scenarios):
            rows = frames // cfg.T == index
            try:
                spatial_relation(src_boxes[rows], tgt_boxes[rows])
            except ValueError:
                raise ValueError(f"scenario {scenario.id!r}: {exc}") from None
        raise
    v = np.concatenate([src, rel * cfg.spatial_scale], axis=1)
    weights = open_unit(edge_values(v, targets, p["edge.proj_i"].data, p["edge.proj_o"].data)[4])[:, 0]
    bad = np.flatnonzero(~((weights > 0.0) & (weights < 1.0)))
    if bad.size:
        first = bad[np.argmin(frames[bad])]
        raise ValueError(
            f"scenario {scenarios[frames[first] // cfg.T].id!r}: {what} outside "
            f"the open interval (0,1): {float(weights[first])!r}"
        )
    return weights


def _forward_chunk(scenarios: Sequence[Scenario], cfg: ModelConfig, p: Mapping[str, Tensor]) -> np.ndarray:
    tc, mode, b, t_obs = cfg.temporal, cfg.graph_mode, len(scenarios), cfg.T
    observed = [f for s in scenarios for f in s.frames[:t_obs]]  # frame index b * T + t
    ped = np.array([f.pedestrian_feature for f in observed]).reshape(b, t_obs, 1, cfg.D)
    if tc.use_temporal and tc.use_ped_gru:
        ped = np.stack(_run_cell(_gru_bundle(p, "ped_gru"), ped, cfg.hidden), axis=1)

    if mode == "pedestrian_only":
        vecs = ped
    elif mode == "concat_baseline":
        objs = _object_rows(observed, cfg.D)
        pooled = np.zeros((len(observed), cfg.D))
        for n, frames, rows in _buckets(objs.counts):
            if n:
                pooled[frames] = objs.feats[rows].mean(axis=1)
        vecs = np.concatenate([ped, pooled.reshape(b, t_obs, 1, cfg.D)], axis=-1)
    else:
        vecs = _graph_frames(scenarios, cfg, p, observed, ped.reshape(len(observed), cfg.hidden))
        vecs = vecs.reshape(b, t_obs, 1, 2 * cfg.hidden)
        if tc.use_temporal and tc.use_ctxt_gru:
            ctx = vecs[..., cfg.hidden :]
            ctx[:] = np.stack(_run_cell(_gru_bundle(p, "ctxt_gru"), ctx, cfg.hidden), axis=1)

    if tc.use_temporal:
        h = _run_cell(_gru_bundle(p, "agg_gru"), vecs, cfg.hidden)[-1]
    else:
        h = vecs.mean(axis=1) @ p["temporal_pool.proj"].data

    cell, empty = _gru_bundle(p, "pred_gru"), np.zeros((b, 1, 0))
    logits = np.empty((b, cfg.K))
    for k in range(cfg.K):
        h, _ = gru_values(cell, empty, h)
        logits[:, k] = (h @ p["readout.w"].data + p["readout.b"].data)[:, 0, 0]
    return logits


def _graph_frames(
    scenarios, cfg: ModelConfig, p: Mapping[str, Tensor], observed: list[FrameObservation], ped_rows: np.ndarray
) -> np.ndarray:
    """The (F, 2H) frame rows [refined pedestrian row, object-context mean] of F frames.

    All spokes of the batch are scored in one stacked call (and in
    fully_connected mode all object pairs in a second); then the frames are
    bucketed by object count N, and each bucket runs graph convolution as
    one stacked (m, N+1, N+1) @ (m, N+1, H) @ W per layer.
    """
    objs = _object_rows(observed, cfg.D)
    feats, boxes = objs.feats, objs.boxes
    targets = _edge_targets(cfg, objs.categories, feats)
    owner = np.repeat(np.arange(len(observed)), objs.counts)  # frame of each object row
    ped_boxes = np.array([f.pedestrian_box.as_list() for f in observed], dtype=np.float64)
    spokes = _score_edges(
        scenarios, cfg, p, "edge weight", ped_rows[owner], ped_boxes[owner], boxes, targets, owner
    )
    buckets = list(_buckets(objs.counts))
    if cfg.graph_mode == "fully_connected":
        # the object pairs i < j of every frame, row-major, bucket by bucket
        src_rows, tgt_rows = [], []
        for n, _, rows in buckets:
            i, j = np.triu_indices(n, 1)
            src_rows.append(rows[:, i].reshape(-1))
            tgt_rows.append(rows[:, j].reshape(-1))
        i, j = np.concatenate(src_rows), np.concatenate(tgt_rows)
        pair_weights = _score_edges(
            scenarios, cfg, p, "object pair weight", feats[i], boxes[i], boxes[j], targets[j], owner[i]
        )

    layers = [p["gcn.W" if cfg.shared_weights else f"gcn.W{i}"].data for i in range(cfg.num_layers)]
    vecs = np.empty((len(observed), 2 * cfg.hidden))
    pair_at = 0
    for n, frames, rows in buckets:
        pairs = None
        if cfg.graph_mode == "fully_connected":
            count = len(frames) * (n * (n - 1) // 2)
            pairs = pair_weights[pair_at : pair_at + count].reshape(len(frames), -1)
            pair_at += count
        x = np.empty((len(frames), n + 1, cfg.hidden))
        x[:, 0] = ped_rows[frames]
        x[:, 1:] = feats[rows]
        a, _ = build_adjacency(spokes[rows], pairs, cfg.normalize_adjacency)
        vecs[frames] = frame_rows(graph_conv(a, x, layers)[0])
    return vecs


def forward(scenario: Scenario, cfg: ModelConfig, values: Mapping[str, np.ndarray]) -> PredictionOutput:
    """Inference-mode forward pass of one scenario: forward_batch on a batch of one."""
    return PredictionOutput.from_logits(forward_batch([scenario], cfg, values)[0])


def future_labels(scenario: Scenario, cfg: ModelConfig) -> list[int]:
    """Ground-truth crossing labels for the K predicted frames."""
    need = cfg.T + cfg.K
    if len(scenario.frames) < need:
        raise ScenarioError(f"scenario {scenario.id!r} too short for T+K = {need}")
    return [f.crossing_label for f in scenario.frames[cfg.T : cfg.T + cfg.K]]


CHECKPOINT_VERSION = 1


class CheckpointError(ConfigError):
    """Checkpoint file malformed or inconsistent with its model config."""


def save_checkpoint(path, cfg: ModelConfig, values: Mapping[str, np.ndarray]) -> None:
    """Write config plus parameters (shape + row-major values) as JSON."""
    shapes = parameter_shapes(cfg)
    if set(values) != set(shapes):
        raise CheckpointError("parameter names do not match the config")
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "model": cfg.to_dict(),
        "parameters": {
            name: {
                "shape": list(shapes[name]),
                "values": np.asarray(values[name], dtype=np.float64).reshape(-1).tolist(),
            }
            for name in shapes
        },
    }
    write_text_atomic(path, json.dumps(doc))


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """Read a checkpoint and validate it against its embedded config."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, or an integer literal too long
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint must be a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:  # `true == 1` and `1.0 == 1` in Python
        raise CheckpointError(f"unsupported checkpoint format_version {version!r}")
    cfg = ModelConfig.from_dict(doc.get("model", {}))
    shapes = parameter_shapes(cfg)
    raw = doc.get("parameters")
    if not isinstance(raw, dict) or set(raw) != set(shapes):
        raise CheckpointError("checkpoint parameters do not match the model config")
    values: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        entry = raw[name]
        if not isinstance(entry, dict):
            raise CheckpointError(f"parameter {name}: entry must be an object, got {type(entry).__name__}")
        got = entry.get("shape")
        if got != list(shape) or any(type(n) is not int for n in got):
            raise CheckpointError(f"parameter {name}: shape {got} != {list(shape)}")
        flat = entry.get("values")
        flat = finite_array(flat) if isinstance(flat, list) else None
        if flat is None:
            raise CheckpointError(f"parameter {name}: non-finite or non-numeric values")
        if flat.size != shape[0] * shape[1]:
            raise CheckpointError(f"parameter {name}: {flat.size} values for shape {list(shape)}")
        values[name] = flat.reshape(shape)
    return cfg, values
