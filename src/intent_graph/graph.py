"""Star-graph construction and graph convolution.

Node 0 is always the pedestrian; nodes 1..N are scene objects.
Pedestrian-object edge weights are learned from the pair (pedestrian
feature, spatial relation, object feature):

    v_i = [v_a, s_i]                  (1, D+8)
    w_i = sigmoid(ReLU(v_i @ proj_i) . ReLU(v_o @ proj_o))

with both projections mapping into a shared edge space of width D_e. The
adjacency has a unit diagonal, w_j on row/column 0, and (in fully_connected
mode) pairwise object-object weights produced by the same machinery with the
source object standing in for the pedestrian.

A frame's edges are scored as blocks: edge_weight takes the M edges' rows at
once and records one tape node with a hand-written backward, so a frame costs
one scoring node in star mode and two in fully_connected mode, not eight per
edge. Its rows and gradients are bit for bit those of the per-edge chain
concat -> matmul -> ReLU -> dot -> sigmoid -> clamp. Star spokes (0, j+1) and
object pairs (i+1, j+1) form one index list, and the whole adjacency is
assembled from the weight columns by a single symmetric_scatter node.

Graph convolution is Z = A @ X @ W per layer, ReLU between layers, none after
the last; zero layers return X untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Array, ShapeError, Tensor, sigmoid_values

ADJACENCY_MODES = ("star", "fully_connected")

# Edge weights are clipped one float64 step inside (0, 1), which a sigmoid leaves
# once |logit| passes roughly 37/745; the clip passes the gradient unchanged.
_OPEN_UNIT_LO, _OPEN_UNIT_HI = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)


@dataclass
class EdgeWeightParams:
    """Learned bias-free projections into the shared edge-scoring space."""

    proj_i: Tensor  # (pedestrian width + 8) x D_e
    proj_o: Tensor  # object feature width x D_e

    def __post_init__(self):
        if self.proj_i.cols != self.proj_o.cols:
            raise ValueError(
                f"projections must share the edge space width, got "
                f"{self.proj_i.cols} and {self.proj_o.cols}"
            )


def edge_weight(src: Tensor, rel: Tensor, tgt: Tensor, p: EdgeWeightParams) -> Tensor:
    """Attention weights in (0,1) for a block of M edges, as one (M, 1) tape node.

    Row m is sigmoid(ReLU([src_m, rel_m] @ proj_i) . ReLU(tgt_m @ proj_o)).
    ``src`` is one (1, Dc) row shared by every edge (a frame's pedestrian) or
    an (M, Dc) block (fully_connected pair sources); ``rel`` holds the (M, 8)
    spatial relations and ``tgt`` the (M, Do) target rows, both constants.

    Every row is computed with stacked one-row products, so each weight and
    each gradient is bit for bit what a chain of single-edge ops would give
    (one (M, K) @ W product, einsum or a row sum can differ in the last bit,
    and trained models are sensitive to that).
    The backward returns one proj_o, proj_i and (shared) src gradient per
    edge in reverse edge order, so the tape sums them in that same order.
    """
    m = tgt.rows
    if tgt.tape is not None or rel.tape is not None:
        raise ValueError("edge relation and target rows must be constants")
    if src.rows not in (1, m) or rel.shape != (m, 8):
        raise ShapeError(
            f"edge block: {m} targets need a (1|{m}, Dc) source and ({m}, 8) relations, "
            f"got {src.shape} and {rel.shape}"
        )
    dc = src.cols
    v = np.empty((m, dc + 8))
    v[:, :dc] = src.data
    v[:, dc:] = rel.data
    pi, po = p.proj_i.data, p.proj_o.data
    if v.shape[1] != pi.shape[0] or tgt.cols != po.shape[0]:
        raise ShapeError(
            f"edge block: rows of width {v.shape[1]} and {tgt.cols} do not fit "
            f"projections {pi.shape} and {po.shape}"
        )
    e_i, e_o, mask_i, mask_o, s = edge_values(v, tgt.data, pi, po)
    shared_src = src.rows == 1
    src_inputs = () if src.tape is None else (src,) * (m if shared_src else 1)
    inputs = (p.proj_o,) * m + (p.proj_i,) * m + src_inputs

    def bwd(g: Array):
        g_logit = g * s * (1.0 - s)
        g_i, g_o = g_logit * e_o * mask_i, g_logit * e_i * mask_o
        # + 0.0: a BLAS outer product returns +0.0 where a plain multiply gives -0.0
        grads = [*(tgt.data[:, :, None] * g_o[:, None, :] + 0.0)[::-1]]
        grads += [*(v[:, :, None] * g_i[:, None, :] + 0.0)[::-1]]
        if src_inputs:
            g_src = (g_i[:, None, :] @ pi.T)[:, :, :dc]
            grads += [*g_src[::-1]] if shared_src else [g_src[:, 0, :]]
        return grads

    return ad._emit(ad._joint_tape(src, p.proj_i, p.proj_o), inputs, open_unit(s), bwd)


def edge_values(v: Array, tgt: Array, proj_i: Array, proj_o: Array) -> tuple[Array, ...]:
    """Score M edge rows on plain arrays: (e_i, e_o, mask_i, mask_o, s).

    s is the (M, 1) column sigmoid(ReLU(v_m @ proj_i) . ReLU(tgt_m @ proj_o))
    before the open-interval clip; the rest is what edge_weight's backward
    reads. Every product is a stacked one-row product, so a row's score does
    not depend on which other rows share the call: edge_weight scores one
    frame's block with it, the batched inference forward every edge of a batch.
    """
    e_i = (v[:, None, :] @ proj_i)[:, 0, :]
    e_o = (tgt[:, None, :] @ proj_o)[:, 0, :]
    mask_i, mask_o = e_i > 0, e_o > 0
    e_i[~mask_i] = 0.0  # ReLU in place: fewer temporaries when a batch scores many rows
    e_o[~mask_o] = 0.0
    s = sigmoid_values((e_i[:, None, :] @ e_o[:, :, None])[:, 0, :])
    return e_i, e_o, mask_i, mask_o, s


def open_unit(s: Array) -> Array:
    """Clip edge scores one float64 step inside (0, 1); NaN stays NaN."""
    return np.clip(s, _OPEN_UNIT_LO, _OPEN_UNIT_HI)


def _weight_count(columns: Sequence[Tensor], what: str) -> int:
    """Total rows of ``columns``; each must be (k, 1) with every value in (0, 1)."""
    count = 0
    for w in columns:
        if w.cols != 1:
            raise ValueError(f"{what}s must be (k, 1) columns, got shape {w.shape}")
        for k, value in enumerate(w.data[:, 0].tolist(), start=count):
            if not 0.0 < value < 1.0:
                raise ValueError(f"{what} {k} outside the open interval (0,1): {value!r}")
        count += w.rows
    return count


def build_adjacency(
    weights: Sequence[Tensor],
    mode: str = "star",
    pair_weights: Sequence[Tensor] | None = None,
    row_normalize: bool = False,
) -> Tensor:
    """Assemble the (N+1)x(N+1) adjacency from columns of edge weights.

    ``weights`` are (k, 1) columns (a 1x1 weight is a column of one); their
    rows, in order, are the N spoke weights, and weight j connects the
    center node 0 with object node j+1. In fully_connected mode
    ``pair_weights`` holds one weight per object pair (i, j), i < j, in
    row-major order, and fills both symmetric object-object entries. Every
    weight is written into the identity by one symmetric_scatter node, so the
    result stays differentiable with respect to every weight tensor. With
    row_normalize each row is divided by its sum.
    """
    if mode not in ADJACENCY_MODES:
        raise ValueError(f"unknown adjacency mode {mode!r}")
    columns = list(weights)
    n = _weight_count(columns, "edge weight")
    pairs = [(0, j + 1) for j in range(n)]

    if mode == "fully_connected":
        pair_columns = list(pair_weights or [])
        got = _weight_count(pair_columns, "object pair weight")
        if got != n * (n - 1) // 2:
            raise ValueError(
                f"fully_connected needs one weight per object pair; "
                f"{n} objects need {n * (n - 1) // 2}, got {got}"
            )
        pairs += [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n)]
        columns += pair_columns
    elif pair_weights is not None:
        raise ValueError("pair_weights are only meaningful in fully_connected mode")

    a = ad.symmetric_scatter(ad.constant(np.eye(n + 1)), pairs, columns)
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


def stacked_adjacency(spokes: Array, pair_weights: Array | None, row_normalize: bool) -> Array:
    """The (m, N+1, N+1) adjacencies of m frames with N objects each, on plain arrays.

    ``spokes`` is (m, N); ``pair_weights`` is (m, N(N-1)/2) in row-major
    i < j order (fully_connected) or None (star). Each matrix is entry for
    entry what build_adjacency writes, and row normalisation makes the same
    A @ ones, then @ ones_row products, stacked, so every quotient matches.
    """
    m, n = spokes.shape
    a = np.broadcast_to(np.eye(n + 1), (m, n + 1, n + 1)).copy()
    a[:, 0, 1:] = spokes
    a[:, 1:, 0] = spokes
    if pair_weights is not None:
        i, j = np.triu_indices(n, 1)
        a[:, i + 1, j + 1] = pair_weights
        a[:, j + 1, i + 1] = pair_weights
    if row_normalize:
        row_sums = a @ np.ones((n + 1, 1))
        a = a / (row_sums @ np.ones((1, n + 1)))
    return a


def stacked_conv(a: Array, x: Array, layers: Sequence[Array]) -> Array:
    """graph_conv on m stacked frames: (A @ Z) @ W per layer, ReLU between layers."""
    z = x
    for index, w in enumerate(layers):
        z = (a @ z) @ w
        if index < len(layers) - 1:
            z = np.where(z > 0, z, 0.0)
    return z


def context_vector(z: Tensor) -> Tensor:
    """Mean of the object rows (rows 1..N); a zero row when there are none."""
    if z.rows == 1:
        return ad.constant(np.zeros((1, z.cols)))
    return ad.mean_rows(ad.slice_rows(z, 1, z.rows))


@dataclass
class StarGraph:
    """One frame's graph: adjacency, node features, and the raw edge weights.

    Row 0 of ``x`` is the pedestrian node; ``weights`` follow the object
    order used for rows 1..N.
    """

    a: Tensor
    x: Tensor
    weights: list[Tensor] = field(default_factory=list)


def star_graph(
    center_node: Tensor,
    object_features: Sequence[Tensor],
    weights: Sequence[Tensor],
    mode: str = "star",
    pair_weights: Sequence[Tensor] | None = None,
    row_normalize: bool = False,
) -> StarGraph:
    """Bundle adjacency and stacked node features for one frame.

    ``weights`` and ``pair_weights`` are weight columns as build_adjacency
    takes them.
    """
    n = sum(w.rows for w in weights)
    if len(object_features) != n:
        raise ValueError(f"{len(object_features)} object features but {n} edge weights")
    a = build_adjacency(weights, mode=mode, pair_weights=pair_weights, row_normalize=row_normalize)
    x = ad.stack_rows([center_node, *object_features])
    return StarGraph(a=a, x=x, weights=list(weights))
