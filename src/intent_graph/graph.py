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
concat -> matmul -> ReLU -> dot -> sigmoid -> clamp.

Graph convolution is Z = A @ X @ W per layer, ReLU between layers, none after
the last; zero layers return X untouched. The graph math exists once, as
array kernels on m stacked frames: build_adjacency, graph_conv and the split
frame_rows into [refined pedestrian row, object-context mean]. The batched
inference forward calls them on every frame of a bucket; star_graph calls
them on one frame and records the whole block as one tape node, whose
backward is bit for bit that of the per-op chain the tests keep.

The array kernels (edge_values, build_adjacency, graph_conv, frame_rows)
never see a Tensor. model.check_parameters owns the parameter shapes;
edge_weight and star_graph check only that their operands fit together.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Array, ShapeError, Tensor, sigmoid_values

ADJACENCY_MODES = ("star", "fully_connected")

# Edge weights are clipped one float64 step inside (0, 1), which a sigmoid leaves
# once |logit| passes roughly 37/745; the clip passes the gradient unchanged.
_OPEN_UNIT_LO, _OPEN_UNIT_HI = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)


def edge_weight(src: Tensor, rel: Tensor, tgt: Tensor, proj_i: Tensor, proj_o: Tensor) -> Tensor:
    """Attention weights in (0,1) for a block of M edges, as one (M, 1) tape node.

    Row m is sigmoid(ReLU([src_m, rel_m] @ proj_i) . ReLU(tgt_m @ proj_o)).
    ``src`` is one (1, Dc) row shared by every edge (a frame's pedestrian) or
    an (M, Dc) block (fully_connected pair sources); ``rel`` holds the (M, 8)
    spatial relations and ``tgt`` the (M, Do) target rows, both constants.
    ``proj_i`` (Dc+8, D_e) and ``proj_o`` (Do, D_e) are the learned bias-free
    projections into the shared edge space.

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
    pi, po = proj_i.data, proj_o.data
    if v.shape[1] != pi.shape[0] or tgt.cols != po.shape[0] or pi.shape[1] != po.shape[1]:
        raise ShapeError(
            f"edge block: rows of width {v.shape[1]} and {tgt.cols} do not fit "
            f"projections {pi.shape} and {po.shape} into one edge space"
        )
    e_i, e_o, mask_i, mask_o, s = edge_values(v, tgt.data, pi, po)
    shared_src = src.rows == 1
    src_inputs = () if src.tape is None else (src,) * (m if shared_src else 1)
    inputs = (proj_o,) * m + (proj_i,) * m + src_inputs

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

    return ad._emit(ad._joint_tape(src, proj_i, proj_o), inputs, open_unit(s), bwd)


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


def build_adjacency(
    spokes: Array, pair_weights: Array | None = None, row_normalize: bool = False
) -> tuple[Array, tuple[Array, Array] | None]:
    """The (m, N+1, N+1) adjacencies of m frames with N objects each, and what a backward reads.

    ``spokes`` is (m, N): weight j links the pedestrian node 0 with object
    node j+1. ``pair_weights`` is (m, N(N-1)/2), one weight per object pair
    i < j in row-major order, and fills both symmetric entries
    (fully_connected), or None (star). The diagonal is one. With
    row_normalize each row is divided by its sum, made as A @ ones, then
    @ ones_row; the second value is then (the raw adjacency, that row-sum
    matrix), which the quotient's backward reads, and None otherwise.
    """
    m, n = spokes.shape
    a = np.broadcast_to(np.eye(n + 1), (m, n + 1, n + 1)).copy()
    a[:, 0, 1:] = spokes
    a[:, 1:, 0] = spokes
    if pair_weights is not None:
        i, j = np.triu_indices(n, 1)
        a[:, i + 1, j + 1] = pair_weights
        a[:, j + 1, i + 1] = pair_weights
    if not row_normalize:
        return a, None
    den = (a @ np.ones((n + 1, 1))) @ np.ones((1, n + 1))
    return a / den, (a, den)


def graph_conv(a: Array, x: Array, layers: Sequence[Array]) -> tuple[Array, list[tuple[Array, Array]]]:
    """Z = (A @ Z) @ W per layer on m stacked frames, ReLU between layers, none after the last.

    ``a`` is (m, N+1, N+1), ``x`` the (m, N+1, H) node rows and ``layers``
    one (H, H) matrix per layer; zero layers return X itself. The second
    value holds, per layer, its input Z and the product A @ Z: what a
    backward reads (a ReLU mask is where the next layer's input is positive).
    """
    z, saved = x, []
    for index, w in enumerate(layers):
        az = a @ z
        saved.append((z, az))
        z = az @ w
        if index < len(layers) - 1:
            z = np.where(z > 0, z, 0.0)
    return z, saved


def frame_rows(z: Array) -> Array:
    """(m, 2H) frame rows [refined pedestrian row, mean of the object rows] of m (N+1, H) outputs.

    The mean over no objects is a zero row.
    """
    m, rows, h = z.shape
    out = np.zeros((m, 2 * h))
    out[:, :h] = z[:, 0]
    if rows > 1:
        out[:, h:] = z[:, 1:].mean(axis=1)
    return out


def _check_weights(w: Tensor, count: int, what: str) -> None:
    if w.shape != (count, 1):
        raise ValueError(f"{what}s must be a ({count}, 1) column here, got shape {w.shape}")
    bad = np.flatnonzero(~((w.data > 0.0) & (w.data < 1.0)))
    if bad.size:
        raise ValueError(f"{what} {bad[0]} outside the open interval (0,1): {float(w.data[bad[0], 0])!r}")


def star_graph(
    center: Tensor,
    objects: Array,
    spokes: Tensor,
    pair_weights: Tensor | None = None,
    layers: Sequence[Tensor] = (),
    row_normalize: bool = False,
) -> Tensor:
    """One frame's graph block as one (1, 2H) tape node: [refined pedestrian row, object-context mean].

    ``center`` is the (1, H) pedestrian row and ``objects`` the (N, H)
    object rows (constants) beneath it. ``spokes`` is the (N, 1) column of
    edge weights and ``pair_weights`` the (N(N-1)/2, 1) column of object
    pair weights (fully_connected) or None (star), each value in (0, 1).
    ``layers`` holds one (H, H) matrix per layer, the same tensor repeated
    when the layers share one.

    The forward is build_adjacency, graph_conv and frame_rows with m = 1.
    The backward makes the NumPy calls of the per-op chain (scatter, row
    normalisation, row stack, conv layers, row slices, mean, concat) and
    returns one gradient per use, in the order that chain's reverse pass
    reached them: each layer matrix in reverse layer order, then the spoke
    column, the pair column and the pedestrian row. The zero-padded slice
    gradients are added as the chain adds them, so even the sign of a zero
    gradient is the chain's. With zero layers the adjacency feeds nothing,
    and the weight columns get no gradient.
    """
    n, h = len(objects), center.cols
    if center.rows != 1 or objects.shape != (n, h):
        raise ValueError(f"a (1, H) pedestrian row needs (N, H) object rows, got {center.shape} and {objects.shape}")
    for w in layers:
        if w.shape != (h, h):
            raise ValueError(f"layer matrices must be ({h}, {h}), got {w.shape}")
    _check_weights(spokes, n, "edge weight")
    if pair_weights is not None:
        _check_weights(pair_weights, n * (n - 1) // 2, "object pair weight")
    x = np.empty((1, n + 1, h))
    x[0, 0] = center.data[0]
    x[0, 1:] = objects
    a, norm = build_adjacency(spokes.data.T, None if pair_weights is None else pair_weights.data.T, row_normalize)
    z, saved = graph_conv(a, x, [w.data for w in layers])
    weight_inputs = (spokes,) if pair_weights is None else (spokes, pair_weights)
    inputs = (*layers[::-1], *weight_inputs, center)

    def bwd(g: Array):
        g_z = np.zeros((n + 1, h))
        g_z[0:1] = g[:, :h]
        if n:
            g_ctx = np.zeros((n + 1, h))
            g_ctx[1:] = np.repeat(g[:, h:] / n, n, axis=0)
            g_z = g_ctx + g_z
        grads, g_a = [], None
        for index in reversed(range(len(layers))):
            z_in, az = saved[index]
            if index < len(layers) - 1:
                g_z = g_z * (saved[index + 1][0][0] > 0)
            grads.append(az[0].T @ g_z)
            g_az = g_z @ layers[index].data.T
            g_a = g_az @ z_in[0].T if g_a is None else g_a + g_az @ z_in[0].T
            g_z = a[0].T @ g_az
        if g_a is None:
            grads += [None] * len(weight_inputs)
        else:
            if norm is not None:
                raw, den = norm[0][0], norm[1][0]
                g_rows = (-g_a * raw / (den * den)) @ np.ones((1, n + 1)).T
                g_a = g_a / den + g_rows @ np.ones((n + 1, 1)).T
            grads.append((g_a[0, 1:] + g_a[1:, 0]).reshape(-1, 1))
            if pair_weights is not None:
                i, j = np.triu_indices(n, 1)
                grads.append((g_a[i + 1, j + 1] + g_a[j + 1, i + 1]).reshape(-1, 1))
        return (*grads, g_z[0:1, :])

    return ad._emit(ad._joint_tape(*inputs), inputs, frame_rows(z), bwd)
