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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import GradientTape, Tensor, sigmoid_values
from .configs import ConfigError, check_bool_fields, check_int, check_real, finite_array, from_mapping, to_plain_dict
from .data import write_text_atomic
from .graph import (
    EdgeWeightParams,
    GraphConvParams,
    context_vector,
    edge_weight,
    graph_conv,
    location_centric_edge,
    star_graph,
)
from .recurrent import GRUCellParams, ReadoutParams, TemporalConfig, gru_step, prediction_rollout, run_observation
from .scene import (
    CATEGORY_COUNT,
    BoundingBox,
    EgoScenario,
    FocusRegion,
    ObjectObservation,
    Scenario,
    category_one_hot,
    region_crossing_labels,
    spatial_relation,
)

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
        if self.location_centric and self.graph_mode != "star":
            raise ConfigError("location_centric applies to graph_mode 'star' only")

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
        _gru_shapes(shapes, "ego_gru" if cfg.location_centric else "ped_gru", d, h)
    if cfg.graph_mode in ("star", "fully_connected"):
        proj_i_rows = d if cfg.location_centric else d + 8
        proj_o_rows = d + (CATEGORY_COUNT if cfg.include_object_class else 0)
        shapes["edge.proj_i"] = (proj_i_rows, cfg.D_e)
        shapes["edge.proj_o"] = (proj_o_rows, cfg.D_e)
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


def _object_sort_key(obj: ObjectObservation):
    box = obj.box
    return (
        obj.category.value,
        box.xmin,
        box.ymin,
        box.xmax,
        box.ymax,
        obj.camera_offset_x,
        tuple(obj.feature.tolist()),
    )


def _edge_targets(cfg: ModelConfig, entities: list[ObjectObservation], feats: np.ndarray) -> np.ndarray:
    """Edge-scoring target rows: the features, plus the class one-hot if configured."""
    if not cfg.include_object_class:
        return feats
    classes = np.array([category_one_hot(e.category) for e in entities]).reshape(len(entities), CATEGORY_COUNT)
    return np.concatenate([feats, classes], axis=1)


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


def _forward_core(
    cfg: ModelConfig,
    values: Mapping[str, np.ndarray],
    tape: GradientTape | None,
    center_feats: list[np.ndarray],
    center_boxes: list[BoundingBox] | None,
    entity_lists: list[list[ObjectObservation]],
) -> list[Tensor]:
    tc, mode = cfg.temporal, cfg.graph_mode
    p = _lift_params(cfg, values, tape)

    center_inputs = [Tensor(f.reshape(1, -1)) for f in center_feats]
    if tc.use_temporal and tc.use_ped_gru:
        prefix = "ego_gru" if cfg.location_centric else "ped_gru"
        center_nodes = run_observation(_gru_bundle(p, prefix), center_inputs)
    else:
        center_nodes = center_inputs

    uses_graph = mode in ("star", "fully_connected")
    edge_p = EdgeWeightParams(p["edge.proj_i"], p["edge.proj_o"]) if uses_graph else None
    gcn_p = None
    if uses_graph:
        if cfg.num_layers == 0:
            layer_tensors: list[Tensor] = []
        elif cfg.shared_weights:
            layer_tensors = [p["gcn.W"]]
        else:
            layer_tensors = [p[f"gcn.W{i}"] for i in range(cfg.num_layers)]
        gcn_p = GraphConvParams(layers=layer_tensors, shared=cfg.shared_weights, num_layers=cfg.num_layers)
    ctxt_cell = None
    if uses_graph and tc.use_temporal and tc.use_ctxt_gru:
        ctxt_cell = _gru_bundle(p, "ctxt_gru")
        h_ctxt = ad.zeros(1, cfg.hidden)

    frame_vecs: list[Tensor] = []
    for t, entities in enumerate(entity_lists):
        center = center_nodes[t]
        if mode == "pedestrian_only":
            frame_vecs.append(center)
            continue
        if mode == "concat_baseline":
            if entities:
                pooled = np.mean([e.feature for e in entities], axis=0).reshape(1, -1)
            else:
                pooled = np.zeros((1, cfg.D))
            frame_vecs.append(ad.concat_rows(center, Tensor(pooled)))
            continue

        feats = np.array([ent.feature for ent in entities]).reshape(len(entities), cfg.D)
        targets = Tensor(_edge_targets(cfg, entities, feats))
        if cfg.location_centric:
            weights = location_centric_edge(center, targets, edge_p)
        else:
            boxes = np.array([ent.aligned_box().as_list() for ent in entities], dtype=np.float64).reshape(-1, 4)
            center_box = np.array([center_boxes[t].as_list()], dtype=np.float64)
            rel = Tensor(spatial_relation(center_box, boxes) * cfg.spatial_scale)
            weights = edge_weight(center, rel, targets, edge_p)
        pair_weights = None
        if mode == "fully_connected":
            src, tgt = np.triu_indices(len(entities), 1)  # object pairs i < j, row-major
            rel = Tensor(spatial_relation(boxes[src], boxes[tgt]) * cfg.spatial_scale)
            pair_weights = [edge_weight(Tensor(feats[src]), rel, Tensor(targets.data[tgt]), edge_p)]
        g = star_graph(
            center,
            [Tensor(row) for row in feats],
            [weights],
            mode=mode,
            pair_weights=pair_weights,
            row_normalize=cfg.normalize_adjacency,
        )
        z = graph_conv(g.a, g.x, gcn_p)
        refined = ad.slice_rows(z, 0, 1)
        ctx = context_vector(z)
        if ctxt_cell is not None:
            h_ctxt = gru_step(ctxt_cell, ctx, h_ctxt)
            ctx = h_ctxt
        frame_vecs.append(ad.concat_rows(refined, ctx))

    if tc.use_temporal:
        h_final = run_observation(_gru_bundle(p, "agg_gru"), frame_vecs)[-1]
    else:
        pooled = ad.mean_rows(ad.stack_rows(frame_vecs))
        h_final = ad.matmul(pooled, p["temporal_pool.proj"])

    readout = ReadoutParams(w=p["readout.w"], b=p["readout.b"])
    return prediction_rollout(_gru_bundle(p, "pred_gru"), h_final, cfg.K, readout)


def forward_logits(
    scenario: Scenario,
    cfg: ModelConfig,
    values: Mapping[str, np.ndarray],
    tape: GradientTape | None = None,
) -> list[Tensor]:
    """Logit tensors for frames T+1..T+K, differentiable when given a tape."""
    if cfg.location_centric:
        raise ConfigError("config is location-centric; use forward_location_centric")
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
    observed = scenario.frames[: cfg.T]
    return _forward_core(
        cfg,
        values,
        tape,
        center_feats=[f.pedestrian_feature for f in observed],
        center_boxes=[f.pedestrian_box for f in observed],
        entity_lists=[sorted(f.objects, key=_object_sort_key) for f in observed],
    )


def forward(scenario: Scenario, cfg: ModelConfig, values: Mapping[str, np.ndarray]) -> PredictionOutput:
    """Inference-mode forward pass (no tape, parameters treated as constants)."""
    logits = forward_logits(scenario, cfg, values, tape=None)
    return PredictionOutput.from_logits([t.item() for t in logits])


def future_labels(scenario: Scenario, cfg: ModelConfig) -> list[int]:
    """Ground-truth crossing labels for the K predicted frames."""
    need = cfg.T + cfg.K
    if len(scenario.frames) < need:
        raise ScenarioError(f"scenario {scenario.id!r} too short for T+K = {need}")
    return [f.crossing_label for f in scenario.frames[cfg.T : cfg.T + cfg.K]]


def forward_location_logits(
    scenario: EgoScenario,
    cfg: ModelConfig,
    values: Mapping[str, np.ndarray],
    tape: GradientTape | None = None,
) -> list[Tensor]:
    if not cfg.location_centric:
        raise ConfigError("config is pedestrian-centric; set location_centric=true")
    need = cfg.T + cfg.K
    if len(scenario.frames) < need:
        raise ScenarioError(
            f"ego scenario {scenario.id!r} has {len(scenario.frames)} frames; needs T+K = {need}"
        )
    observed = list(scenario.frames[: cfg.T])
    for frame in observed:
        if frame.ego_feature.size != cfg.D:
            raise ScenarioError(f"ego feature width {frame.ego_feature.size} != D = {cfg.D}")
        for ent in frame.entities:
            if ent.feature_width != cfg.D:
                raise ScenarioError(f"entity feature width {ent.feature_width} != D = {cfg.D}")
    return _forward_core(
        cfg,
        values,
        tape,
        center_feats=[f.ego_feature for f in observed],
        center_boxes=None,
        entity_lists=[sorted(f.entities, key=_object_sort_key) for f in observed],
    )


def forward_location_centric(
    scenario: EgoScenario,
    region: FocusRegion,
    cfg: ModelConfig,
    values: Mapping[str, np.ndarray],
) -> PredictionOutput:
    """Predict future occupancy of ``region`` from the ego viewpoint.

    The region defines the prediction target (see location_future_labels);
    the forward math itself reads only the scene features and entities.
    """
    if not isinstance(region, FocusRegion):
        raise ConfigError("region must be a FocusRegion")
    logits = forward_location_logits(scenario, cfg, values, tape=None)
    return PredictionOutput.from_logits([t.item() for t in logits])


def location_future_labels(scenario: EgoScenario, region: FocusRegion, cfg: ModelConfig) -> list[int]:
    """Any-pedestrian-in-region labels for the K predicted frames."""
    labels = region_crossing_labels(scenario, region)
    if len(labels) < cfg.T + cfg.K:
        raise ScenarioError(f"ego scenario {scenario.id!r} too short for T+K")
    return labels[cfg.T : cfg.T + cfg.K]


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
