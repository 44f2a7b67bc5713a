"""Star-graph construction and graph convolution.

Node 0 is always the pedestrian (or the ego scene in the location-centric
variant); nodes 1..N are scene objects. Pedestrian-object edge weights are
learned from the pair (pedestrian feature, spatial relation, object feature):

    v_i = [v_a, s_i]                  (1, D+8)
    w_i = sigmoid(ReLU(v_i @ proj_i) . ReLU(v_o @ proj_o))

with both projections mapping into a shared edge space of width D_e. The
adjacency has a unit diagonal, w_j on row/column 0, and (in fully_connected
mode) pairwise object-object weights produced by the same machinery with the
source object standing in for the pedestrian. Star spokes (0, j+1) and object
pairs (i+1, j+1) form one index list, and the whole matrix is assembled by a
single symmetric_scatter node on the tape.

Graph convolution is Z = A @ X @ W per layer, ReLU between layers, none after
the last; zero layers return X untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .scene import SpatialRelation

ADJACENCY_MODES = ("star", "fully_connected")


@dataclass
class EdgeWeightParams:
    """Learned bias-free projections into the shared edge-scoring space."""

    proj_i: Tensor  # (center width + 8 | center width) x D_e
    proj_o: Tensor  # object feature width x D_e

    def __post_init__(self):
        if self.proj_i.cols != self.proj_o.cols:
            raise ValueError(
                f"projections must share the edge space width, got "
                f"{self.proj_i.cols} and {self.proj_o.cols}"
            )


def edge_weight(v_a: Tensor, s: SpatialRelation, v_o: Tensor, p: EdgeWeightParams) -> Tensor:
    """Scalar attention weight in (0,1) for one pedestrian-object pair."""
    v_i = ad.concat_rows(v_a, s.as_vector())
    e_i = ad.relu(ad.matmul(v_i, p.proj_i))
    e_o = ad.relu(ad.matmul(v_o, p.proj_o))
    return ad.clamp_open_unit(ad.sigmoid(ad.dot(e_i, e_o)))


def location_centric_edge(v_center: Tensor, v_o: Tensor, p: EdgeWeightParams) -> Tensor:
    """Edge weight with no spatial term: sigmoid of the embedded inner product."""
    e_c = ad.matmul(v_center, p.proj_i)
    e_o = ad.matmul(v_o, p.proj_o)
    return ad.clamp_open_unit(ad.sigmoid(ad.dot(e_c, e_o)))


def _check_weight(w: Tensor, what: str) -> None:
    if w.shape != (1, 1):
        raise ValueError(f"{what} must be a 1x1 tensor, got shape {w.shape}")
    value = float(w.data[0, 0])
    if not (0.0 < value < 1.0):
        raise ValueError(f"{what} outside the open interval (0,1): {value!r}")


def build_adjacency(
    weights: Sequence[Tensor],
    mode: str = "star",
    pair_weights: Mapping[tuple[int, int], Tensor] | None = None,
    row_normalize: bool = False,
) -> Tensor:
    """Assemble the (N+1)x(N+1) adjacency from scalar edge weights.

    ``weights[j]`` connects the center node 0 with object node j+1. In
    fully_connected mode ``pair_weights[(i, j)]`` (0-based object indices,
    i < j) fills both symmetric object-object entries. Every weight is
    written into the identity by one symmetric_scatter node, so the result
    stays differentiable with respect to every weight tensor. With
    row_normalize each row is divided by its sum.
    """
    if mode not in ADJACENCY_MODES:
        raise ValueError(f"unknown adjacency mode {mode!r}")
    n = len(weights)
    for j, w in enumerate(weights):
        _check_weight(w, f"edge weight {j}")
    pairs = [(0, j + 1) for j in range(n)]
    edge_weights = list(weights)

    if mode == "fully_connected":
        pair_weights = pair_weights or {}
        expected = {(i, j) for i in range(n) for j in range(i + 1, n)}
        if set(pair_weights) != expected:
            raise ValueError(
                f"fully_connected needs one weight per object pair; "
                f"expected {sorted(expected)}, got {sorted(pair_weights)}"
            )
        for (i, j), w in sorted(pair_weights.items()):
            _check_weight(w, f"object pair weight {(i, j)}")
            pairs.append((i + 1, j + 1))
            edge_weights.append(w)
    elif pair_weights:
        raise ValueError("pair_weights are only meaningful in fully_connected mode")

    a = ad.symmetric_scatter(ad.constant(np.eye(n + 1)), pairs, edge_weights)
    if row_normalize:
        ones_col = ad.constant(np.ones((n + 1, 1)))
        ones_row = ad.constant(np.ones((1, n + 1)))
        row_sums = ad.matmul(a, ones_col)  # (n+1, 1)
        a = ad.div(a, ad.matmul(row_sums, ones_row))
    return a


@dataclass
class GraphConvParams:
    """Per-layer transforms; a single matrix reused everywhere when shared."""

    layers: list[Tensor]
    shared: bool
    num_layers: int

    def __post_init__(self):
        if not 0 <= self.num_layers <= 3:
            raise ValueError(f"num_layers must be within 0..3, got {self.num_layers}")
        expected = 0 if self.num_layers == 0 else (1 if self.shared else self.num_layers)
        if len(self.layers) != expected:
            raise ValueError(
                f"expected {expected} layer matrices for shared={self.shared}, "
                f"num_layers={self.num_layers}; got {len(self.layers)}"
            )
        for w in self.layers:
            if w.rows != w.cols or (self.layers and w.shape != self.layers[0].shape):
                raise ValueError("layer matrices must be square and equally sized")

    def layer(self, index: int) -> Tensor:
        return self.layers[0] if self.shared else self.layers[index]


def graph_conv(a: Tensor, x: Tensor, params: GraphConvParams) -> Tensor:
    """Stacked Z = A @ Z @ W with inter-layer ReLU; zero layers return X."""
    if a.rows != a.cols:
        raise ValueError(f"adjacency must be square, got {a.shape}")
    if x.rows != a.rows:
        raise ValueError(f"feature rows {x.rows} != adjacency size {a.rows}")
    z = x
    for layer_index in range(params.num_layers):
        z = ad.matmul(ad.matmul(a, z), params.layer(layer_index))
        if layer_index < params.num_layers - 1:
            z = ad.relu(z)
    return z


def context_vector(z: Tensor) -> Tensor:
    """Mean of the object rows (rows 1..N); a zero row when there are none."""
    if z.rows == 1:
        return ad.constant(np.zeros((1, z.cols)))
    return ad.mean_rows(ad.slice_rows(z, 1, z.rows))


@dataclass
class StarGraph:
    """One frame's graph: adjacency, node features, and the raw edge weights.

    Row 0 of ``x`` is the center (pedestrian/ego) node; ``weights`` follow the
    object order used for rows 1..N.
    """

    a: Tensor
    x: Tensor
    weights: list[Tensor] = field(default_factory=list)

    def validate(self) -> None:
        n = len(self.weights)
        if self.a.shape != (n + 1, n + 1):
            raise ValueError(f"adjacency shape {self.a.shape} != ({n + 1}, {n + 1})")
        if self.x.rows != n + 1:
            raise ValueError(f"feature rows {self.x.rows} != {n + 1}")
        if not np.array_equal(self.a.data, self.a.data.T):
            raise ValueError("adjacency is not symmetric")
        for w in self.weights:
            _check_weight(w, "edge weight")


def star_graph(
    center_node: Tensor,
    object_features: Sequence[Tensor],
    weights: Sequence[Tensor],
    mode: str = "star",
    pair_weights: Mapping[tuple[int, int], Tensor] | None = None,
    row_normalize: bool = False,
) -> StarGraph:
    """Bundle adjacency and stacked node features for one frame."""
    if len(object_features) != len(weights):
        raise ValueError(
            f"{len(object_features)} object features but {len(weights)} edge weights"
        )
    a = build_adjacency(weights, mode=mode, pair_weights=pair_weights, row_normalize=row_normalize)
    x = ad.stack_rows([center_node, *object_features])
    return StarGraph(a=a, x=x, weights=list(weights))
