"""Model assembly: config, parameters, forward pass, and checkpoints.

Per observed frame the forward pass (a) updates the pedestrian stream cell on
the frame's pedestrian feature (or passes the raw feature through), (b) scores
one edge weight per scene object (and in fully_connected mode one per object
pair), (c) runs graph convolution over the star graph and splits the result
into the refined pedestrian row and the mean object context, and (d) feeds
the concatenated frame vector to the aggregation cell. The last aggregated
hidden state seeds a zero-input rollout that emits one crossing logit per
future frame.

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

check_parameters, which both forwards and save_checkpoint call, is the one
check of parameter names, types and shapes, and of the NaNs and infinities
a ReLU would hide; nothing downstream checks them again. It returns
Parameters, views of one flat float64 row whose entries cannot be replaced,
and takes any Parameters over a 1-D float64 row of the config's layout (as
load_checkpoint and train return them) as it is: a forward() of one scenario
with loaded parameters copies none of them, and only scans the edge and
graph span of the row. Any other mapping is copied into a fresh row.

There is one implementation of each stage, and two forwards call it.
forward_chunk is the tape-free pass over up to CHUNK (64) scenarios that
both inference (forward_batch: evaluate, forward as a batch of one, the
CLI's eval, predict and ablate) and training use; it never builds a Tensor.
It runs each GRU of all B scenarios as stacked one-row products,
(B, 1, I+H) @ W, through the value kernel gru_values, over one unroll
buffer per cell (_run_cell): row t holds step t's [x_t, h_t-1] and step t
writes h_t into row t+1, so the states are a view; scores every edge of
a pass in one call of the stacked-row kernel edge_values, as one block in
the order forward_logits scores them (_Edges); and groups frames by object
count N, so each bucket's graph block is one call of the stacked kernels:
(m, N+1, N+1) @ (m, N+1, H) @ W per layer, then the split into frame rows.
For training it keeps what a backward reads, and backward_chunk walks the
stages in reverse over the same layout, through the stacked backward
kernels gru_backward, graph_backward and edge_backward, writing each
scenario's gradients into its row of one (B, P) array.
NumPy evaluates a stacked product one matrix at a time, with the call the
lone product makes, so a batched logit equals forward_logits byte for byte
whatever else shares the batch (tests/test_model.py checks this under
tobytes()). A block-diagonal union of the frames, as in PyTorch Geometric,
would add zero terms to the sums and change their rounding. For the
gradients, backward_chunk adds every term in the order GradientTape.backward
adds it for forward_logits, so they too are the tape's byte for byte.
The tape adds a scenario's edge.proj_i and edge.proj_o gradients as one
outer product per edge, last scored first: its rows of the edge block,
reversed, on which _outer_sum runs one np.einsum("mr,mc->rc") per
parameter. Without optimize (its default), einsum runs m as its outer loop
for these shapes and adds each exact product to an output that starts at
+0.0, which is the tape's fold; optimize=True would hand the product to
BLAS, which sums in blocks. Only when R * C == 1 (D = 1 without the object
class, and D_e = 1) does einsum make m its unrolled inner loop; that shape
folds outer_rows' stack instead.

forward_chunk reads no frame or object record after a scenario's first
pass. _pack walks the observed frames of a pass's new scenarios once,
after _check_scenario, reading a loaded frame's objects from its record's
columns and walking any other frame's (_object_rows), into one _Window keyed
by (T, graph_mode) that holds only record data a pass of that mode reads:
the pedestrian features; unless pedestrian_only (the taped forward reads
no objects either), _object_rows' canonically ordered object features and
categories; and for star and fully_connected, the unscaled spatial
relation of every edge the mode scores, in the order it scores them
(star its spokes, fully_connected its spokes and object pairs), each
computed once. Each scenario keeps its share on the record's window slot
as read-only views; a pass under another key repacks it, and a build that
raises keeps nothing. What follows from the object counts alone, the
_Layout (per-frame edge counts, _buckets' groups and, for fully_connected,
each edge's source and target row, _edge_rows), no window holds: every
pass that reads objects, in any mode, alone or joined, warm or fresh,
looks it up in one bounded memo keyed by the counts and whether pairs are
scored (_layout_of, LAYOUTS entries), as does _pack's fully_connected
relation gather, so a pass whose count pattern was seen lays out nothing.
The build refuses a feature whose shape is not (D,) or a non-finite
feature or box (_observed_rows, ScenarioError naming the scenario), as
forward_logits does; a ReLU would turn a NaN into zeros and train on it.
A warm pass checks no feature or box again and computes no relation: it
scales the window's relations and finds an overflowed one on every pass,
as forward_logits checks every call. A pass over one warm scenario reads
its window as it is; a pass over several concatenates their windows
field by field and shifts nothing. The records are frozen, and the loader
and _pack itself make the feature arrays read-only, as _layout_of makes
every array of a memo entry, so neither a window nor an entry can go
stale: a write raises instead.

forward_logits builds one scenario on Tensors, each GRU step, edge block
and frame's graph block one tape node (gru_step, edge_weight, star_graph)
whose backward calls the same kernels. Nothing under src/ trains through
it any more: it is the oracle the tests compare the tape-free pass against,
and benchmarks/tracing.py wraps it. It calls _observed_rows on the records
itself and never reads a window, so those byte-for-byte tests compare the
packed path with an unpacked one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import GradientTape, Tensor, sigmoid_values
from .configs import ConfigError, check_bool_fields, check_int, check_real, finite_array, from_mapping, to_plain_dict
from .data import write_text_atomic
from .graph import (
    build_adjacency,
    edge_backward,
    edge_values,
    edge_weight,
    frame_rows,
    graph_backward,
    graph_conv,
    open_unit,
    outer_rows,
    pair_indices,
    project_targets,
    star_graph,
)
from .recurrent import (
    GRUCellParams,
    TemporalConfig,
    gru_backward,
    gru_step,
    gru_values,
    prediction_rollout,
    run_observation,
)
from .scene import CATEGORY_COUNT, RELATION_OVERFLOW, FrameObservation, LoadedObjects, ObjectCategory, Scenario, relation_rows, spatial_relation

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


def _layer_names(cfg: ModelConfig) -> list[str]:
    """The graph-convolution weight of each layer, first layer first: gcn.W for each when shared, else gcn.W0, gcn.W1, ..."""
    return ["gcn.W" if cfg.shared_weights else f"gcn.W{i}" for i in range(cfg.num_layers)]


def parameter_shapes(cfg: ModelConfig) -> Mapping[str, tuple[int, int]]:
    """Every learnable parameter and its shape, in creation order; computed once per config and read-only, as callers share it."""
    return _layout(cfg)[0]


@lru_cache(maxsize=64)
def _layout(cfg: ModelConfig) -> tuple:
    """parameter_shapes, then how Parameters views the flat row, and the span of edge.* and gcn.* in it.

    The row is cut into blocks, each a (slice, shape): a GRU cell's three
    weights or its three biases, (3, rows, cols), or one other parameter,
    (rows, cols). The plan gives each parameter, in order, its block and,
    for a gate, the index that takes it out of the block (else None), and
    each cell names its weight block; its bias block is the next.
    """
    shapes: dict[str, tuple[int, int]] = {}
    h, d = cfg.hidden, cfg.D
    tc = cfg.temporal
    if tc.use_temporal and tc.use_ped_gru:
        _gru_shapes(shapes, "ped_gru", d, h)
    if cfg.graph_mode in ("star", "fully_connected"):
        shapes["edge.proj_i"] = (d + 8, cfg.D_e)
        shapes["edge.proj_o"] = (d + (CATEGORY_COUNT if cfg.include_object_class else 0), cfg.D_e)
        for name in _layer_names(cfg):  # a shared gcn.W is named once per layer
            shapes[name] = (h, h)
        if tc.use_temporal and tc.use_ctxt_gru:
            _gru_shapes(shapes, "ctxt_gru", h, h)
    if tc.use_temporal:
        _gru_shapes(shapes, "agg_gru", frame_vector_width(cfg), h)
    else:
        shapes["temporal_pool.proj"] = (frame_vector_width(cfg), h)
    _gru_shapes(shapes, "pred_gru", 0, h)
    shapes["readout.w"] = (h, 1)
    shapes["readout.b"] = (1, 1)
    gates = {f"{kind}_{gate}": np.s_[..., k, :, :] for kind in "Wb" for k, gate in enumerate("zrh")}
    blocks, plan, cells, fed, at = [], [], [], [], 0
    for name, (rows, cols) in shapes.items():
        prefix, gate = name.rsplit(".", 1)
        if gate in ("W_z", "b_z"):  # opens its cell's block; W_r, W_h, b_r and b_h fall in it
            if gate == "W_z":
                cells.append((prefix, len(blocks)))
            blocks.append((slice(at, at + 3 * rows * cols), (3, rows, cols)))
        elif gate not in gates:
            blocks.append((slice(at, at + rows * cols), (rows, cols)))
        plan.append((name, len(blocks) - 1, gates.get(gate)))
        if prefix in ("edge", "gcn"):  # adjacent too
            fed.append(slice(at, at + rows * cols))
        at += rows * cols
    fed = slice(fed[0].start, fed[-1].stop) if fed else slice(0)
    return MappingProxyType(shapes), tuple(blocks), tuple(plan), tuple(cells), fed


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


class Parameters(dict):
    """{name: (*lead, rows, cols) view} of a float64 ``row`` of shape (*lead, P), in parameter_shapes order; nothing is checked.

    No entry can be replaced, added or removed (TypeError): write into one in place, or copy with dict(p). ``blocks``
    cuts the row into (slice, shape) blocks, each a GRU cell's [z, r, h] weights or biases, (3, rows, cols), or one
    other parameter; ``cells`` maps each cell ("ped_gru", ...) to its (W, b) blocks as (*lead, 3, ., .) views. Leading
    axes lead every view: a flat row gives (rows, cols) views, backward_chunk's (B, P) row each scenario's gradients.
    """

    def __init__(self, cfg: ModelConfig, row: np.ndarray):
        self._layout = _layout(cfg)
        _, self.blocks, plan, _, _ = self._layout
        lead = row.shape[:-1]
        views = [row[..., at].reshape(lead + shape) for at, shape in self.blocks]
        super().__init__({name: views[block] if gate is None else views[block][gate] for name, block, gate in plan})
        self.row, self._cfg = row, cfg

    def _refuse(self, *args, **kwargs):
        raise TypeError("Parameters entries are views of one row: write into an entry in place, or copy with dict(p)")

    __setitem__ = __delitem__ = pop = popitem = setdefault = update = clear = __ior__ = _refuse

    def __reduce__(self):
        # a deep copy or an unpickled copy is built again over its own row (unpickling a dict would call __setitem__)
        return Parameters, (self._cfg, self.row)

    @cached_property
    def cells(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        # made on first use: parameters that are only kept, such as a training result, hold no block views
        _, blocks, _, cells, _ = self._layout
        lead = self.row.shape[:-1]
        return {cell: tuple(self.row[..., at].reshape(lead + shape) for at, shape in blocks[w : w + 2]) for cell, w in cells}


def check_parameters(cfg: ModelConfig, values: Mapping[str, np.ndarray]) -> Parameters:
    """The parameters as Parameters over one float64 row, once their names, types and shapes match the config (else ConfigError).

    Parameters over a 1-D float64 row laid out for this config's names and
    shapes (what load_checkpoint and train return) are that row: ``values``
    itself comes back, and nothing is copied; their entries cannot be
    replaced, so each is still a view of the row. Any other mapping is
    copied into a fresh row; an array whose dtype is not an integer or a
    float (str, bool, object, complex) is refused, as data files and
    checkpoints refuse such entries.

    A NaN or an infinity in edge.proj_* or gcn.W* is a ConfigError too, on
    either path: a ReLU or the weight clip would absorb it and give finite
    logits. Only those arrays are scanned, as one span of the row, as
    forward() of one scenario pays this check every call: a non-finite
    value elsewhere reaches the logits, which evaluate, train and the CLI
    refuse.
    """
    shapes, *_, fed = _layout(cfg)
    if values.keys() != shapes.keys():
        missing = sorted(set(shapes) - set(values))
        extra = sorted(set(values) - set(shapes))
        raise ConfigError(f"parameter names do not match the config (missing {missing}, unexpected {extra})")
    laid_out = isinstance(values, Parameters) and (values._layout[0] is shapes or values._layout[0] == shapes)
    if laid_out and values.row.ndim == 1 and values.row.dtype == np.float64:
        checked = values
    else:
        flat = []
        for name, shape in shapes.items():
            arr = np.asarray(values[name])
            if arr.dtype.kind not in "iuf":
                raise ConfigError(f"parameter {name} holds {arr.dtype} values, not numbers")
            if arr.shape != shape:
                raise ConfigError(f"parameter {name} has shape {arr.shape}, config expects {shape}")
            flat.append(arr.ravel())
        checked = Parameters(cfg, np.concatenate(flat, dtype=np.float64))
    if not np.isfinite(checked.row[fed]).all():
        name = next(name for name in shapes if name.startswith(("edge.", "gcn.")) and not np.isfinite(checked[name]).all())
        what = "a NaN" if np.isnan(checked[name]).any() else "an infinite value"
        raise ConfigError(f"parameter {name} holds {what}")
    return checked


# Categories in the order of their values, which the canonical object order
# compares first. _VALUE_RANK is keyed by the value itself: a member's hash
# runs Enum.__hash__ in Python, a str's is cached, and a chunk looks up
# thousands of objects.
_BY_VALUE = sorted(ObjectCategory, key=lambda c: c.value)
_VALUE_RANK = {c._value_: rank for rank, c in enumerate(_BY_VALUE)}
_RANK_INDEX = np.array([c.index for c in _BY_VALUE], dtype=np.intp)
_INDEX_RANK = np.argsort(_RANK_INDEX)  # ObjectCategory.index -> rank of its value


class _ObjectRows(NamedTuple):
    """The objects of F frames as M rows, grouped by frame, each frame's in canonical order."""

    counts: np.ndarray  # (F,) objects per frame
    feats: np.ndarray  # (M, D)
    boxes: np.ndarray  # (M, 4) aligned boxes
    categories: np.ndarray  # (M,) ObjectCategory.index


def _stacked(rows: list, width: int) -> np.ndarray:
    """The (len(rows), width) array of ``rows``; ValueError unless every row has shape (width,)."""
    stack = np.array(rows) if rows else np.empty((0, width))
    if stack.shape != (len(rows), width):
        raise ValueError(f"rows of shape {stack.shape[1:]} stacked where ({width},) was expected")
    return stack


def _walked(objects: list, width: int) -> tuple:
    """The (M, D) features, (M, 4) raw boxes, (M,) ObjectCategory.index and (M,) camera offsets of hand-built or generated ``objects``."""
    feats = _stacked([o.feature for o in objects], width)
    keys = np.array(
        [(_VALUE_RANK[o.category._value_], o.box.xmin, o.box.ymin, o.box.xmax, o.box.ymax, o.camera_offset_x) for o in objects]
    ).reshape(len(objects), 6)
    return feats, keys[:, 1:5], _RANK_INDEX[keys[:, 0].astype(np.intp)], keys[:, 5]


def _object_rows(frames: Sequence[FrameObservation], width: int) -> _ObjectRows:
    """The _ObjectRows of ``frames``: a loaded frame's objects read from its record's ObjectColumns, any other frame's walked.

    Consecutive loaded frames of one record are one slice of its columns,
    and consecutive other frames one _walked call; ValueError unless every
    feature is ``width`` wide.
    """
    counts, runs = [], []  # a run: [columns, start, stop] of one loaded record's consecutive rows, or [None, objects]
    for f in frames:
        objs = f.objects
        counts.append(len(objs))
        if type(objs) is LoadedObjects:
            if runs and runs[-1][0] is objs.columns and runs[-1][2] == objs.start:
                runs[-1][2] = objs.stop
            else:
                runs.append([objs.columns, objs.start, objs.stop])
        elif runs and runs[-1][0] is None:
            runs[-1][1].extend(objs)
        else:
            runs.append([None, list(objs)])
    parts = []
    for columns, *rows in runs:
        if columns is None:
            parts.append(_walked(rows[0], width))
        elif columns.feats.shape[1] != width:
            raise ValueError(f"loaded object features are {columns.feats.shape[1]} wide, not {width}")
        else:
            at = slice(*rows)
            parts.append((columns.feats[at], columns.boxes[at], columns.categories[at], columns.cam_dx[at]))
    feats, boxes, categories, dx = map(np.concatenate, zip(*parts))
    counts = np.array(counts, dtype=np.intp)
    # np.lexsort is stable and sorts by its last key first: frame, then
    # category value, raw box corners, camera offset and feature, like sorted()
    # on (frame, category.value, *box, camera_offset_x, *feature)
    order = np.lexsort([*feats.T[::-1], dx, *boxes.T[::-1], _INDEX_RANK[categories], np.repeat(np.arange(len(frames)), counts)])
    feats, boxes, dx = feats[order], boxes[order], dx[order]
    shifted = dx != 0.0  # aligned_box() leaves these boxes as they are, even a -0.0 corner
    boxes[shifted, 0] += dx[shifted]
    boxes[shifted, 2] += dx[shifted]
    return _ObjectRows(counts, feats, boxes, categories[order])


def _check_finite(
    scenarios: Sequence[Scenario], t_obs: int, ped: np.ndarray, ped_boxes: np.ndarray, objs: _ObjectRows | None
) -> None:
    """Raise ScenarioError naming the first scenario with a non-finite feature or box in its observed frames.

    Frame b * T + t of the (F, D) features ``ped``, the (F, 4) boxes
    ``ped_boxes`` and the _ObjectRows ``objs`` (or None) is frame t of
    scenarios[b]. The ReLUs would turn a NaN into zeros and train on it, so
    a hand-built record that holds one is refused; data.load refuses them
    in a file.
    """
    fields = [("pedestrian feature", ped, False), ("pedestrian box", ped_boxes, False)]
    if objs is not None:
        fields += [("object feature", objs.feats, True), ("object box", objs.boxes, True)]
    failures = []  # (frame, what), the first bad row of each field
    for what, arr, per_object in fields:
        finite = np.isfinite(arr)
        if not finite.all():  # only then look for the row and its frame
            row = int(np.flatnonzero(~finite.all(axis=1))[0])
            frame = int(np.searchsorted(np.cumsum(objs.counts), row, side="right")) if per_object else row
            failures.append((frame, what))
    if failures:
        frame, what = min(failures, key=lambda failure: failure[0])  # on a tie, the first field
        scenario = scenarios[frame // t_obs]
        raise ScenarioError(f"scenario {scenario.id!r}: non-finite {what} in observed frame {frame % t_obs}")


class _Layout(NamedTuple):
    """What a pass derives from its frames' object counts alone (_layout_of); every array is read-only."""

    sizes: np.ndarray  # (F,) edges per frame: its spokes, then (fully_connected) its object pairs
    buckets: tuple  # _buckets' groups (N, frames, (m, N) object rows, (m, E) edge rows)
    src: np.ndarray | None = None  # fully_connected: each edge's source and target row (_edge_rows)
    tgt: np.ndarray | None = None


class _Window(NamedTuple):
    """The F = B * T observed frames of B scenarios as a pass of one (T, graph_mode) reads them; frame b * T + t is frame t of scenario b.

    A field the mode does not read is None: pedestrian_only reads no
    objects, and concat_baseline no relations.
    """

    key: tuple  # (T, graph_mode)
    ped: np.ndarray  # (F, D) pedestrian features
    counts: np.ndarray | None = None  # (F,) objects per frame
    feats: np.ndarray | None = None  # (M, D) object features, _object_rows' order
    categories: np.ndarray | None = None  # (M,) ObjectCategory.index
    relations: np.ndarray | None = None  # (E, 8) unscaled, unchecked relation of each edge's target box to its source box, in _Edges order


# Object-count patterns whose _Layout _layout_of keeps, least recently used
# first out. Passes repeat a few patterns: the benchmark's eval-dense holds at
# most 8 live ones per unit (4 evaluate chunks, 3 patterns of lone records,
# 1 warm-up pass). A CHUNK pass in fully_connected mode at N = 8 objects a
# frame and T = 4 has a 241,664-byte entry, so 16 hold about 3.9 MB at worst.
LAYOUTS = 16


@lru_cache(maxsize=LAYOUTS)
def _layout_of(counts: bytes, pairs: bool) -> _Layout:
    """The _Layout of frames whose (F,) intp object counts are the bytes ``counts``, with object pairs when ``pairs``.

    The one caller of _buckets and _edge_rows, memoized on its key: every
    pass with these counts shares the entry, so its arrays are read-only,
    as pair_indices' are.
    """
    counts = np.frombuffer(counts, dtype=np.intp)
    sizes = counts * (counts + 1) // 2 if pairs else counts
    buckets = tuple(_buckets(counts, sizes if pairs else None))
    layout = _Layout(sizes, buckets, *(_edge_rows(buckets, int(counts.sum()), int(sizes.sum())) if pairs else ()))
    for arr in (sizes, *layout[2:], *(arr for _, *arrays in buckets for arr in arrays)):
        if arr is not None:
            arr.setflags(write=False)
    return layout


def _edge_rows(buckets, objects: int, edges: int) -> tuple[np.ndarray, np.ndarray]:
    """The source and target row of a fully_connected pass's ``edges`` edges, in _Edges order, from _buckets' groups.

    A source row indexes [the pass's ``objects`` object rows; its F frame rows]: frame f's spokes run from row
    objects + f to its objects, and its pairs i < j (pair_indices) from object i to object j.
    """
    src, tgt = np.empty(edges, dtype=np.intp), np.empty(edges, dtype=np.intp)
    for n, frames, rows, at in buckets:
        i, j = pair_indices(n)
        src[at] = np.concatenate(((objects + frames).repeat(n).reshape(len(frames), n), rows.take(i, axis=1)), axis=1)
        tgt[at] = np.concatenate((rows, rows.take(j, axis=1)), axis=1)
    return src, tgt


def _observed_rows(scenarios: Sequence[Scenario], cfg: ModelConfig) -> tuple[list, np.ndarray, np.ndarray, _ObjectRows | None]:
    """The first T frames of ``scenarios``, then their (F, D) pedestrian features, (F, 4) pedestrian boxes and (unless pedestrian_only) _ObjectRows.

    ScenarioError names the first scenario, in frame order, with a feature
    the mode reads whose shape is not (D,) (looked for only once stacking
    the rows has failed, _stacked) or with a non-finite feature or box
    (_check_finite).
    """
    t_obs, d = cfg.T, cfg.D
    observed = [f for s in scenarios for f in s.frames[:t_obs]]  # frame index b * T + t
    with_objects = cfg.graph_mode != "pedestrian_only"
    try:
        ped = _stacked([f.pedestrian_feature for f in observed], d)
        objs = _object_rows(observed, d) if with_objects else None
    except ValueError:
        for frame, f in enumerate(observed):
            rows = [("pedestrian feature", f.pedestrian_feature)]
            rows += [("object feature", o.feature) for o in f.objects] if with_objects else []
            for what, row in rows:
                if np.shape(row) != (d,):
                    raise ScenarioError(
                        f"scenario {scenarios[frame // t_obs].id!r}: {what} of shape {np.shape(row)} in observed frame "
                        f"{frame % t_obs}; config expects ({d},)"
                    ) from None
        raise
    ped_boxes = np.array([f.pedestrian_box.as_list() for f in observed], dtype=np.float64)
    _check_finite(scenarios, t_obs, ped, ped_boxes, objs)
    return observed, ped, ped_boxes, objs


def _pack(scenarios: Sequence[Scenario], cfg: ModelConfig) -> _Window:
    """The _Window of the first T frames of ``scenarios``, packed from their records; each scenario keeps its share.

    One walk over all B * T frames (_observed_rows), as a pass made before
    windows were kept: (F, D) pedestrian features and, unless
    pedestrian_only, _object_rows' counts, features and categories, a loaded
    frame's read from its columns. star and fully_connected then compute
    the relation of every edge they score in one relation_rows call: star's
    spokes, each object against its frame's pedestrian box, and
    fully_connected's spokes and pairs, the boxes _edge_rows picks. No
    relation is checked here: a pass finds an overflowed row every time it
    reads them, in forward_logits' order. Only
    once that build succeeds does each scenario get its window, read-only
    views of these arrays, and do the feature arrays it was built from
    become read-only, so writing to one raises instead of leaving the
    window stale.
    """
    t_obs, mode = cfg.T, cfg.graph_mode
    observed, ped, ped_boxes, objs = _observed_rows(scenarios, cfg)
    sources, window = [f.pedestrian_feature for f in observed], _Window((t_obs, mode), ped)
    frames = rows = edges = list(range(0, len(ped) + 1, t_obs))
    if objs is not None:  # a loaded record's object features are read-only already
        sources += [o.feature for f in observed if type(f.objects) is not LoadedObjects for o in f.objects]
        rows = edges = [0, *objs.counts.reshape(len(scenarios), t_obs).sum(axis=1).cumsum().tolist()]
        window = window._replace(counts=objs.counts, feats=objs.feats, categories=objs.categories)
    if mode == "star":
        window = window._replace(relations=relation_rows(ped_boxes.repeat(objs.counts, axis=0), objs.boxes))
    elif mode == "fully_connected":  # the relation gather reads the edge rows
        layout = _layout_of(objs.counts.tobytes(), True)
        window = window._replace(relations=relation_rows(np.concatenate([objs.boxes, ped_boxes])[layout.src], objs.boxes[layout.tgt]))
        edges = [0, *layout.sizes.reshape(len(scenarios), t_obs).sum(axis=1).cumsum().tolist()]
    for arr in (*sources, *window[1:]):
        try:
            if arr.flags.writeable:  # reading the flag costs a third of setting it, and a loaded record's is clear
                arr.setflags(write=False)
        except AttributeError:  # a feature held as a list, or a field the mode leaves out, has no flag to set
            pass
    cuts = frames, frames, rows, rows, edges  # each scenario's first row of ped, counts, feats, categories and relations, then the end
    for b, scenario in enumerate(scenarios):
        share = [None if arr is None else arr[at[b] : at[b + 1]] for arr, at in zip(window[1:], cuts)]
        object.__setattr__(scenario, "window", _Window(window.key, *share))  # not data; see scene
    return window


def _packed(scenarios: Sequence[Scenario], cfg: ModelConfig) -> _Window:
    """The _Window of a pass over ``scenarios`` at cfg's (T, graph_mode).

    A scenario whose window was packed under another key is packed again.
    When every scenario needs packing, _pack's window is the result; a lone
    warm scenario's is its window as it is; otherwise the windows are joined
    field by field, one concatenate each, as no field depends on its place.
    """
    key = (cfg.T, cfg.graph_mode)
    cold = [s for s in scenarios if s.window is None or s.window.key != key]
    if len(cold) == len(scenarios):
        return _pack(scenarios, cfg)
    if cold:
        _pack(cold, cfg)
    windows = [s.window for s in scenarios]
    if len(windows) == 1:
        return windows[0]
    return _Window(key, *(None if column[0] is None else np.concatenate(column) for column in list(zip(*windows))[1:]))


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
        row = np.asarray(logits, dtype=np.float64).reshape(-1)
        return cls(logits=tuple(row.tolist()), probabilities=tuple(sigmoid_values(row).tolist()))

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

    The taped oracle the tests check forward_chunk and backward_chunk
    against; training and inference go through the stacked pass.
    """
    _check_scenario(scenario, cfg)
    tc, mode = cfg.temporal, cfg.graph_mode
    checked = check_parameters(cfg, values)
    p = {name: Tensor(a) if tape is None else tape.parameter(name, a) for name, a in checked.items()}
    cell = {prefix: GRUCellParams(*(p[f"{prefix}.{gate}"] for gate in ("W_z", "W_r", "W_h", "b_z", "b_r", "b_h"))) for prefix in checked.cells}

    _, ped, ped_boxes, objs = _observed_rows([scenario], cfg)
    ped_inputs = [Tensor(row) for row in ped[:, None]]
    if tc.use_temporal and tc.use_ped_gru:
        ped_nodes = run_observation(cell["ped_gru"], ped_inputs)
    else:
        ped_nodes = ped_inputs

    ctxt_cell = None
    if mode in ("star", "fully_connected"):
        proj = p["edge.proj_i"], p["edge.proj_o"]
        layers = [p[name] for name in _layer_names(cfg)]
        if tc.use_temporal and tc.use_ctxt_gru:
            ctxt_cell = cell["ctxt_gru"]
            h_ctxt = ad.zeros(1, cfg.hidden)

    if objs is not None:
        targets_all = _edge_targets(cfg, objs.categories, objs.feats)
    frame_vecs: list[Tensor] = []
    end = 0
    for t, ped in enumerate(ped_nodes):
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
        rel = Tensor(spatial_relation(ped_boxes[t : t + 1], boxes) * cfg.spatial_scale)
        weights = edge_weight(ped, rel, Tensor(targets), *proj)
        pair_weights = None
        if mode == "fully_connected":
            src, tgt = pair_indices(len(feats))  # object pairs i < j, row-major
            rel = Tensor(spatial_relation(boxes[src], boxes[tgt]) * cfg.spatial_scale)
            pair_weights = edge_weight(Tensor(feats[src]), rel, Tensor(targets[tgt]), *proj)
        vec = star_graph(ped, feats, weights, pair_weights, layers, cfg.normalize_adjacency)
        if ctxt_cell is not None:
            h_ctxt = gru_step(ctxt_cell, ad.columns(vec, cfg.hidden, 2 * cfg.hidden), h_ctxt)
            vec = ad.concat_rows(ad.columns(vec, 0, cfg.hidden), h_ctxt)
        frame_vecs.append(vec)

    if tc.use_temporal:
        h_final = run_observation(cell["agg_gru"], frame_vecs)[-1]
    else:
        pooled = ad.mean_rows(ad.stack_rows(frame_vecs))
        h_final = ad.matmul(pooled, p["temporal_pool.proj"])

    return prediction_rollout(cell["pred_gru"], h_final, cfg.K, p["readout.w"], p["readout.b"])


# Scenarios per stacked pass, for inference and training alike. It bounds the
# batch arrays whatever the dataset size. A pass pays a fixed cost (a GRU call
# per step, the edge scoring, a graph call per object-count bucket), so larger
# passes run faster but hold more temporaries. Peak traced allocations of one
# pass (tracemalloc, NumPy 2.4): 64 eval-dense scenes take 1.85 MB to infer
# against 0.47 MB for 16, and 64 fully_connected scenes with 8 objects a
# frame take 21.4 MB to train against 5.8 MB for 16, which only a minibatch
# of more than 16 scenarios pays.
CHUNK = 64


class EdgeCheckError(ValueError):
    """A spatial relation overflowed or an edge weight left (0, 1) in a stacked pass.

    The message names the first failing scenario of the pass. ``detail`` is
    the message forward_logits gives for that scenario alone, which train()
    raises.
    """

    def __init__(self, message: str, detail: str):
        super().__init__(message)
        self.detail = detail


def forward_batch(
    scenarios: Sequence[Scenario], cfg: ModelConfig, values: Mapping[str, np.ndarray]
) -> np.ndarray:
    """(B, K) logits of B scenarios from one tape-free NumPy pass.

    Row b is bit for bit forward_logits(scenarios[b]) and does not depend on
    which other scenarios share the batch or in what order.
    """
    p = check_parameters(cfg, values)
    chunks = [forward_chunk(scenarios[i : i + CHUNK], cfg, p)[0] for i in range(0, len(scenarios), CHUNK)]
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks) if chunks else np.zeros((0, cfg.K))


def _slot(kept: dict | None, name: str) -> list | None:
    """The list stored under ``name`` in ``kept`` (new and empty), or None when nothing is kept."""
    return None if kept is None else kept.setdefault(name, [])


def _run_cell(cell: tuple, inputs: np.ndarray, h: np.ndarray, steps: list | None = None) -> np.ndarray:
    """Unroll a cell's gate blocks (W, b) over (B, T, 1, I) inputs from the (B, 1, H) state ``h``; the (B, T, 1, H) states.

    One (B, T+1, 1, I+H) buffer holds the unroll: row t is step t's
    [x_t, h_t-1], so the inputs are copied in once, and step t writes h_t
    into the h columns of row t+1. The states are a view of those columns.
    Given a ``steps`` list, appends per step the values gru_values saved
    for a backward, which read row t of the buffer.
    """
    b, t_len, _, i = inputs.shape
    buf = np.empty((b, t_len + 1, 1, i + h.shape[-1]))
    buf[:, :t_len, :, :i] = inputs
    buf[:, 0, :, i:] = h
    for t in range(t_len):
        saved = gru_values(*cell, buf[:, t], buf[:, t + 1, :, i:])
        if steps is not None:
            steps.append(saved)
    return buf[:, 1:, :, i:]


def _buckets(counts: np.ndarray, sizes: np.ndarray | None = None):
    """(N, frame indices, (m, N) object rows, (m, E) edge rows) per distinct object count N.

    Frame f's edges are sizes[f] adjacent rows of the edge block; without
    ``sizes`` (star mode) they are its objects' rows, the same array.
    """
    starts = counts.cumsum() - counts
    edge_starts = None if sizes is None else sizes.cumsum() - sizes
    for n in sorted(set(counts.tolist())):
        frames = (counts == n).nonzero()[0]
        rows = starts[frames][:, None] + np.arange(n)
        yield n, frames, rows, rows if sizes is None else edge_starts[frames][:, None] + np.arange(n * (n + 1) // 2)


@dataclass(frozen=True)
class _Edges:
    """A pass's M scored edges in forward_logits' order, and what their backward reads.

    Frame by frame, a frame's spokes and then (fully_connected) its object
    pairs i < j, row-major; in star mode the rows are the object rows.
    """

    v: np.ndarray  # (M, Dc+8) source rows and scaled relations
    targets: np.ndarray  # (M, Do)
    saved: tuple  # edge_values' (e_i, e_o, mask_i, mask_o, s)
    bounds: list  # B+1 row indices: scenario s holds rows bounds[s]:bounds[s + 1]


def _check_edges(
    scenarios, cfg: ModelConfig, counts: np.ndarray, sizes: np.ndarray, overflow: np.ndarray | None, weights: np.ndarray
) -> None:
    """Raise EdgeCheckError for the first failing check, in forward_logits' order.

    forward_logits checks frame by frame: a frame's relations, then its
    spoke weights and its pair weights, each in (0, 1). ``weights`` and
    ``overflow`` (None, or which relations overflowed) are in the _Edges
    order, where frame f holds sizes[f] edges, its counts[f] spokes first.
    """
    bad = ~((weights > 0.0) & (weights < 1.0))
    if overflow is not None:
        bad |= overflow
    if not bad.any():
        return
    edge = int(np.argmax(bad))  # the first failing edge, in the first failing frame
    ends = np.cumsum(sizes)
    frame = int(np.searchsorted(ends, edge, side="right"))
    first, scenario = int(ends[frame] - sizes[frame]), scenarios[frame // cfg.T].id
    if overflow is not None and overflow[first : ends[frame]].any():
        raise EdgeCheckError(f"scenario {scenario!r}: {RELATION_OVERFLOW}", RELATION_OVERFLOW)
    index, n = edge - first, int(counts[frame])
    what, index = ("edge weight", index) if index < n else ("object pair weight", index - n)
    tail = f"outside the open interval (0,1): {float(weights[edge])!r}"
    raise EdgeCheckError(f"scenario {scenario!r}: {what} {tail}", f"{what} {index} {tail}")


def forward_chunk(
    scenarios: Sequence[Scenario], cfg: ModelConfig, p: Parameters, keep: bool = False
) -> tuple[np.ndarray, dict | None]:
    """(B, K) logits of at most CHUNK scenarios and, with ``keep``, what backward_chunk reads.

    ``p`` is what check_parameters returns. The second value maps
    each GRU ("ped_gru", "ctxt_gru", "agg_gru", "rollout") to its steps as
    _run_cell appends them, "readout" to the rollout's (B, K, 1, H) states, "pooled" to
    the (B, 1, W) mean frame vector of a run without temporal cells, and
    "edges" and "buckets" to what _graph_frames keeps. Inference keeps
    nothing: held to the end of a pass, those arrays slowed evaluate() on
    dense scenes by about a tenth.
    """
    for scenario in scenarios:
        _check_scenario(scenario, cfg)
    tc, mode, b, t_obs = cfg.temporal, cfg.graph_mode, len(scenarios), cfg.T
    kept = {} if keep else None
    packed = _packed(scenarios, cfg)  # frame index b * T + t
    layout = None if packed.counts is None else _layout_of(packed.counts.tobytes(), mode == "fully_connected")
    ped = packed.ped.reshape(b, t_obs, 1, cfg.D)
    zero = np.zeros((b, 1, cfg.hidden))
    if tc.use_temporal and tc.use_ped_gru:
        ped = _run_cell(p.cells["ped_gru"], ped, zero, _slot(kept, "ped_gru"))

    if mode == "pedestrian_only":
        vecs = ped
    elif mode == "concat_baseline":
        pooled = np.zeros((b * t_obs, cfg.D))
        for n, frames, rows, _ in layout.buckets:
            if n:
                pooled[frames] = packed.feats[rows].mean(axis=1)
        vecs = np.concatenate([ped, pooled.reshape(b, t_obs, 1, cfg.D)], axis=-1)
    else:
        vecs = _graph_frames(scenarios, cfg, p, packed, layout, ped.reshape(b * t_obs, cfg.hidden), kept)
        vecs = vecs.reshape(b, t_obs, 1, 2 * cfg.hidden)
        if tc.use_temporal and tc.use_ctxt_gru:
            ctx = vecs[..., cfg.hidden :]
            ctx[:] = _run_cell(p.cells["ctxt_gru"], ctx, zero, _slot(kept, "ctxt_gru"))

    if tc.use_temporal:
        h = _run_cell(p.cells["agg_gru"], vecs, zero, _slot(kept, "agg_gru"))[:, -1]
    else:
        pooled = vecs.mean(axis=1)
        h = pooled @ p["temporal_pool.proj"]
        if kept is not None:
            kept["pooled"] = pooled

    states = _run_cell(p.cells["pred_gru"], np.zeros((b, cfg.K, 1, 0)), h, _slot(kept, "rollout"))
    if kept is not None:
        kept["readout"] = states
    return (states @ p["readout.w"] + p["readout.b"])[:, :, 0, 0], kept


def _graph_frames(
    scenarios, cfg: ModelConfig, p: Mapping[str, np.ndarray], packed: _Window, layout: _Layout, ped_rows: np.ndarray, kept: dict | None
) -> np.ndarray:
    """The (F, 2H) frame rows [refined pedestrian row, object-context mean] of F frames.

    ``packed`` is _packed's window, ``layout`` the _Layout of its counts,
    and ``ped_rows`` the (F, H) pedestrian stream.

    Every edge of the pass is scored in one stacked call, laid out as
    _Edges says, on the window's relation scaled by spatial_scale; in
    fully_connected mode the layout picks each edge's rows. Then
    each of its buckets of frames with N objects runs graph convolution as
    one stacked (m, N+1, N+1) @ (m, N+1, H) @ W per layer.
    Into ``kept``, when given, go the _Edges ("edges") and per bucket (N,
    frames, edge rows, adjacency, build_adjacency's and graph_conv's saved
    values) ("buckets").
    """
    feats, counts, rel = packed.feats, packed.counts, packed.relations
    pairs, sizes = cfg.graph_mode == "fully_connected", layout.sizes
    targets = _edge_targets(cfg, packed.categories, feats)
    e_o, mask_o = project_targets(targets, p["edge.proj_o"])  # once per object, for every edge ending at it
    if pairs:
        sources = np.concatenate([feats, ped_rows]).take(layout.src, axis=0)
        targets, e_o, mask_o = (arr.take(layout.tgt, axis=0) for arr in (targets, e_o, mask_o))
    else:
        sources = ped_rows.repeat(counts, axis=0)
    finite, overflow = np.isfinite(rel), None
    v = np.concatenate([sources, rel * cfg.spatial_scale], axis=1)
    if not finite.all():
        overflow = ~finite.all(axis=1)
        v[overflow, -8:] = np.nan  # the check below raises; a NaN, unlike an inf, passes the products quietly
    saved = edge_values(v, e_o, mask_o, p["edge.proj_i"])
    weights = open_unit(saved[4])[:, 0]
    _check_edges(scenarios, cfg, counts, sizes, overflow, weights)
    if kept is not None:
        bounds = [0, *sizes.cumsum()[cfg.T - 1 :: cfg.T].tolist()]
        kept["edges"] = _Edges(v, targets, saved, bounds)
    # unless kept, the edge arrays go before the graph work: held through it, they slowed evaluate() by about 2%
    del v, saved, rel, finite, sources, targets, e_o, mask_o

    layers = [p[name] for name in _layer_names(cfg)]
    vecs = np.empty((len(ped_rows), 2 * cfg.hidden))
    buckets_kept = _slot(kept, "buckets")
    for n, frames, rows, edges in layout.buckets:
        x = np.empty((len(frames), n + 1, cfg.hidden))
        x[:, 0] = ped_rows[frames]
        x[:, 1:] = feats[rows]
        w = weights[edges]
        a, norm = build_adjacency(w[:, :n], w[:, n:] if pairs else None, cfg.normalize_adjacency)
        z, saved = graph_conv(a, x, layers)
        vecs[frames] = frame_rows(z)
        if buckets_kept is not None:
            buckets_kept.append((n, frames, edges, a, norm, saved))
    return vecs


def _fold(stack: np.ndarray) -> np.ndarray:
    """Left fold over the first axis, ((s0 + s1) + s2) + ..., the order in which a tape adds gradients.

    np.add.reduce (np.sum's reduction) over the first axis adds the terms in
    that order once each term holds more than one entry (a one-entry stack
    it sums pairwise), but it starts from +0.0, which turns a -0.0 of s0
    into +0.0. Those stacks go through np.add.accumulate, which is exact
    but several times slower.
    """
    first = stack[0]
    if first.size > 1 and not (np.signbit(first) & (first == 0.0)).any():
        return np.add.reduce(stack, axis=0)
    return np.add.accumulate(stack, axis=0)[-1]


def _outer_sum(rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The (R, C) sum of the M outer products rows[m] x g[m], added in order: _fold(outer_rows(rows, g)) bit for bit.

    einsum without optimize (its default) loops over m outermost for these
    shapes and adds each exact one-term product to an output that starts at
    +0.0, which is the tape's left fold with outer_rows' + 0.0, in about a
    third of the time and without the (M, R, C) stack; optimize=True would hand the
    sum to BLAS, which adds in its own order. When R * C == 1, einsum makes
    m its unrolled inner loop and adds in another order, so that shape folds
    the stack.
    """
    if rows.shape[1] * g.shape[1] == 1:
        return _fold(outer_rows(rows, g))
    return np.einsum("mr,mc->rc", rows, g)


def _cell_backward(grads: Parameters, p: Parameters, prefix: str, steps, first=None, last=None):
    """Reverse a stacked GRU unroll; writes its parameter gradients into the cell's gate blocks of ``grads``.

    The gradient of step t's output state is the sum, in this order, of
    first[t], the next step's three h terms and last[t] (a None list or
    entry adds nothing): the order in which the tape reaches them. Each
    parameter sums its steps' terms from the last step back, in place, in
    contiguous totals, written into the cell's gate blocks once.
    Returns the (B, T, 1, I) input gradients, each step's two input terms
    summed (never written when I = 0), and the three terms of the initial
    state.
    """
    W = p.cells[prefix][0]
    i, n = W.shape[-2] - W.shape[-1], len(steps)
    first, last = first or [None] * n, last or [None] * n
    totals, g_inputs, carry = None, np.empty((len(steps[0][0]), n, 1, i)), ()
    for t in reversed(range(n)):
        terms = [term for term in (first[t], *carry, last[t]) if term is not None]
        params, (x0, x1), carry = gru_backward(W, steps[t], reduce(np.add, terms))
        if totals is None:
            totals = params
        else:
            for total, term in zip(totals, params):
                total += term
        if i:
            np.add(x0, x1, out=g_inputs[:, t])
    g_W, g_b = grads.cells[prefix]
    g_b[:, :2], g_b[:, 2], g_W[:, :2], g_W[:, 2] = totals
    return g_inputs, carry


def backward_chunk(
    cfg: ModelConfig, p: Parameters, kept: dict, g_logits: np.ndarray, out: Parameters | None = None
) -> Parameters:
    """Every scenario's gradients at the (B, K) logit gradients, as Parameters over one (B, P) row: ``out``'s, or a new one.

    ``kept`` is forward_chunk's. The stages run in reverse over the stacked
    layout: rollout, aggregation (or the pooled projection), context GRU,
    graph blocks per object-count bucket, edges and pedestrian GRU, each
    through the array backward its taped node calls (gru_backward,
    graph_backward, edge_backward). Every term is added to a scenario's
    gradient in the order GradientTape.backward adds it for
    forward_logits, so each row is bit for bit that scenario's tape
    gradient, whatever else shares the chunk. The row starts at +0.0, the
    tape's zeros for a parameter the loss never reaches: a given ``out``,
    whose leading axis must be B, is zeroed first.
    """
    tc, mode, h_width = cfg.temporal, cfg.graph_mode, cfg.hidden
    b, t_obs = g_logits.shape[0], cfg.T
    if out is None:
        grads = Parameters(cfg, np.zeros((b, parameter_count(cfg))))
    else:
        grads = out
        grads.row.fill(0.0)

    # rollout: a state takes the next step's three terms, then its readout's
    states, steps = kept["readout"], kept["rollout"]
    g = g_logits.reshape(b, cfg.K, 1, 1)
    visit = range(cfg.K - 1, -1, -1)
    grads["readout.b"][:] = reduce(np.add, (g[:, k] for k in visit))
    outer = states.mT @ g  # (B, K, H, 1), one exact product per entry
    grads["readout.w"][:] = reduce(np.add, (outer[:, k] for k in visit))
    readout = list((g @ p["readout.w"].T).swapaxes(0, 1))
    g_final = reduce(np.add, _cell_backward(grads, p, "pred_gru", steps, last=readout)[1])

    if tc.use_temporal:
        last = [None] * (t_obs - 1) + [g_final]
        g_vecs = _cell_backward(grads, p, "agg_gru", kept["agg_gru"], last=last)[0]
    else:
        grads["temporal_pool.proj"][:] = kept["pooled"].swapaxes(1, 2) @ g_final
        g_pooled = g_final @ p["temporal_pool.proj"].T / t_obs
        g_vecs = g_pooled[:, None].repeat(t_obs, axis=1)

    if mode == "pedestrian_only":
        g_ped = g_vecs
    elif mode == "concat_baseline":
        g_ped = g_vecs[..., : _ped_stream_width(cfg)]
    else:
        if tc.use_temporal and tc.use_ctxt_gru:
            # a context state takes the next step's three terms, then the frame vector's
            last = [g_vecs[:, t, :, h_width:] for t in range(t_obs)]
            g_vecs[..., h_width:] = _cell_backward(grads, p, "ctxt_gru", kept["ctxt_gru"], last=last)[0]
        g_ped = _graph_backward(cfg, p, kept, g_vecs.reshape(b * t_obs, 2 * h_width), grads)
        g_ped = g_ped.reshape(b, t_obs, 1, h_width)

    if tc.use_temporal and tc.use_ped_gru:
        # a pedestrian state takes its frame's terms, then the next step's three
        _cell_backward(grads, p, "ped_gru", kept["ped_gru"], first=[g_ped[:, t] for t in range(t_obs)])
    return grads


def _graph_backward(cfg: ModelConfig, p: Mapping[str, np.ndarray], kept: dict, g_rows: np.ndarray, grads: Parameters) -> np.ndarray:
    """Backward of _graph_frames at the (F, 2H) frame-row gradients; writes the gcn and edge gradients into ``grads``.

    Returns the (F, H) gradient of each frame's pedestrian row: the graph
    block's term, then one term per spoke in reverse object order.
    """
    n_layers, h_width, t_obs = cfg.num_layers, cfg.hidden, cfg.T
    b = len(g_rows) // t_obs
    names = _layer_names(cfg)
    layers = [p[name] for name in names]
    edges, pairs = kept["edges"], cfg.graph_mode == "fully_connected"
    layer_grads = np.empty((len(g_rows), n_layers, h_width, h_width))
    center = np.empty((len(g_rows), h_width))
    g_weights = np.empty(len(edges.v))
    for _, frames, at, a, norm, saved in kept["buckets"]:
        by_layer, g_spokes, g_pairs, g_center = graph_backward(a, norm, saved, layers, g_rows[frames], pairs)
        center[frames] = g_center
        if n_layers:
            for layer, g_layer in enumerate(by_layer):
                layer_grads[frames, layer] = g_layer
            g_weights[at] = g_spokes if g_pairs is None else np.concatenate([g_spokes, g_pairs], axis=1)
    if not n_layers:
        return center  # the weights feed nothing, and the edges get no gradient

    # a frame's layers are reached last layer first, a scenario's frames last frame first
    visit = layer_grads.reshape(b, t_obs, n_layers, h_width, h_width)[:, ::-1]
    if cfg.shared_weights:
        grads[names[0]][:] = _fold(visit.reshape(b, t_obs * n_layers, h_width, h_width).swapaxes(0, 1))
    else:
        for layer, name in enumerate(names):
            grads[name][:] = _fold(visit[:, :, n_layers - 1 - layer].swapaxes(0, 1))

    # the tape adds the per-edge terms in the reverse of forward_logits' order: a scenario's rows, reversed
    g_i, g_o = edge_backward(edges.saved, g_weights[:, None])
    for name, rows, g in (("edge.proj_i", edges.v, g_i), ("edge.proj_o", edges.targets, g_o)):
        for s, (lo, hi) in enumerate(zip(edges.bounds, edges.bounds[1:])):
            if hi > lo:
                grads[name][s] = _outer_sum(rows[lo:hi][::-1], g[lo:hi][::-1])

    g_ped = np.empty_like(center)
    for n, frames, at, *_ in kept["buckets"]:
        g_src = (g_i[at[:, :n], None, :] @ p["edge.proj_i"].T)[:, :, 0, :h_width]  # (m, N, H), per spoke
        g_ped[frames] = reduce(np.add, [center[frames], *(g_src[:, k] for k in reversed(range(n)))])
    return g_ped


def forward(scenario: Scenario, cfg: ModelConfig, values: Mapping[str, np.ndarray]) -> PredictionOutput:
    """Inference-mode forward pass of one scenario: forward_batch on a batch of one."""
    return PredictionOutput.from_logits(forward_batch([scenario], cfg, values)[0])


def future_labels(scenario: Scenario, cfg: ModelConfig) -> list[int]:
    """Ground-truth crossing labels for the K predicted frames; ScenarioError as forward() words it."""
    _check_scenario(scenario, cfg)
    return [f.crossing_label for f in scenario.frames[cfg.T : cfg.T + cfg.K]]


CHECKPOINT_VERSION = 1


class CheckpointError(ConfigError):
    """Checkpoint file malformed or inconsistent with its model config."""


def save_checkpoint(path, cfg: ModelConfig, values: Mapping[str, np.ndarray]) -> None:
    """Write config plus parameters (shape + row-major values) as JSON; bad parameters write nothing."""
    try:
        checked = check_parameters(cfg, values)
    except ConfigError as exc:
        raise CheckpointError(str(exc)) from None
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "model": cfg.to_dict(),
        "parameters": {
            name: {"shape": list(arr.shape), "values": arr.reshape(-1).tolist()} for name, arr in checked.items()
        },
    }
    write_text_atomic(path, json.dumps(doc))


def load_checkpoint(path) -> tuple[ModelConfig, Parameters]:
    """Read a checkpoint and validate it against its embedded config; the parameters come back over one row."""
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
    rows = []
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
        rows.append(flat)
    return cfg, Parameters(cfg, np.concatenate(rows))
