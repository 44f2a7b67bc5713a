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
frame_rows into [refined pedestrian row, object-context mean], and its
backward graph_backward. The batched forward and the training backward call
them on every frame of a bucket; star_graph calls them on one frame and
records the whole block as one tape node, whose backward is bit for bit that
of the per-op chain the tests keep. An edge block's backward is
edge_backward; edge_weight hands the tape one outer_rows product per edge
as its projection gradients, and the tape adds them one by one. outer_rows
is the tape's: the tape-free training backward contracts each scenario's
edges in one einsum instead, with the same sums (model._outer_sum), and
uses outer_rows only for the one shape einsum adds in another order. Its
edge block is in the order the taped forward scores the edges, so the
tape's order is a scenario's rows of that block reversed.

project_targets projects edge target rows and edge_values scores edges on
them: an object's projected row is the same for its spoke and every pair
that ends at it, so the batched pass projects each object row once.
pair_indices caches the object pairs of each object count, and pair_slots
where each pair's two entries sit in a flattened adjacency.

The array kernels (project_targets, edge_values, edge_backward, outer_rows,
build_adjacency, graph_conv, graph_backward, frame_rows) never see a Tensor.
model.check_parameters owns the parameter shapes; edge_weight and
star_graph check only that their operands fit together.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Array, ShapeError, Tensor, sigmoid_values

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
    saved = edge_values(v, *project_targets(tgt.data, po), pi)
    shared_src = src.rows == 1
    src_inputs = () if src.tape is None else (src,) * (m if shared_src else 1)
    inputs = (proj_o,) * m + (proj_i,) * m + src_inputs

    def bwd(g: Array):
        g_i, g_o = edge_backward(saved, g)
        grads = [*outer_rows(tgt.data, g_o)[::-1], *outer_rows(v, g_i)[::-1]]
        if src_inputs:
            g_src = (g_i[:, None, :] @ pi.T)[:, :, :dc]
            grads += [*g_src[::-1]] if shared_src else [g_src[:, 0, :]]
        return grads

    return ad._emit(ad._joint_tape(src, proj_i, proj_o), inputs, open_unit(saved[4]), bwd)


def project_targets(tgt: Array, proj_o: Array) -> tuple[Array, Array]:
    """(e_o, mask_o) of M edge target rows: ReLU(tgt_m @ proj_o) by stacked one-row products, and where it is positive."""
    e_o = (tgt[:, None, :] @ proj_o)[:, 0, :]
    mask_o = e_o > 0
    e_o[~mask_o] = 0.0  # ReLU in place: fewer temporaries when a batch scores many rows
    return e_o, mask_o


def edge_values(v: Array, e_o: Array, mask_o: Array, proj_i: Array) -> tuple[Array, ...]:
    """Score M edge rows on plain arrays, given project_targets' (e_o, mask_o): (e_i, e_o, mask_i, mask_o, s).

    s is the (M, 1) column sigmoid(ReLU(v_m @ proj_i) . e_o_m) before the
    open-interval clip; the rest is what edge_weight's backward reads. Every
    product is a stacked one-row product, so a row's score does not depend
    on which other rows share the call: edge_weight scores one frame's
    block with it, the batched forward every edge of a pass.
    """
    e_i = (v[:, None, :] @ proj_i)[:, 0, :]
    mask_i = e_i > 0
    e_i[~mask_i] = 0.0
    s = sigmoid_values((e_i[:, None, :] @ e_o[:, :, None])[:, 0, :])
    return e_i, e_o, mask_i, mask_o, s


def edge_backward(saved: tuple[Array, ...], g: Array) -> tuple[Array, Array]:
    """Gradients (g_i, g_o) at the two (M, D_e) projected rows of M edges, given the (M, 1) gradient ``g`` of their weights.

    ``saved`` is edge_values' (e_i, e_o, mask_i, mask_o, s); the open-interval
    clip passes the gradient unchanged.
    """
    e_i, e_o, mask_i, mask_o, s = saved
    g_logit = g * s * (1.0 - s)
    return g_logit * e_o * mask_i, g_logit * e_i * mask_o


def outer_rows(rows: Array, g: Array) -> Array:
    """(M, K, D_e) outer products of M rows with M gate rows: one projection gradient per edge.

    edge_weight's backward hands these to the tape one by one; the tape-free
    backward contracts them in one einsum instead (model._outer_sum).
    + 0.0: a BLAS outer product returns +0.0 where a plain multiply gives -0.0.
    """
    out = rows[:, :, None] * g[:, None, :]
    out += 0.0
    return out


def open_unit(s: Array) -> Array:
    """Clip edge scores one float64 step inside (0, 1); NaN stays NaN.

    np.clip's values, from two ufunc calls without its Python wrapper.
    """
    out = np.maximum(s, _OPEN_UNIT_LO)
    return np.minimum(out, _OPEN_UNIT_HI, out=out)


@lru_cache(maxsize=64)
def pair_indices(n: int) -> tuple[Array, Array]:
    """The object pairs i < j of a frame with n objects, row-major, as two read-only index arrays.

    Cached, and read-only because every caller shares them: each pass asks
    again for the few object counts its frames have.
    """
    i, j = np.triu_indices(n, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


@lru_cache(maxsize=64)
def pair_slots(n: int) -> tuple[Array, Array]:
    """The flat positions of each pair i < j's entries (i+1, j+1) and (j+1, i+1) in an (n+1, n+1) adjacency, as two read-only arrays.

    Cached as pair_indices is: build_adjacency writes a frame's pair weights
    through them and graph_backward reads their gradients back.
    """
    i, j = pair_indices(n)
    upper, lower = (i + 1) * (n + 1) + j + 1, (j + 1) * (n + 1) + i + 1
    upper.setflags(write=False)
    lower.setflags(write=False)
    return upper, lower


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
    a = np.zeros((m, n + 1, n + 1))
    flat = a.reshape(m, (n + 1) ** 2)  # a view: a is contiguous
    flat[:, :: n + 2] = 1.0  # the diagonal: every (n+2)th entry of a flattened frame
    a[:, 0, 1:] = spokes
    a[:, 1:, 0] = spokes
    if pair_weights is not None:
        upper, lower = pair_slots(n)
        flat[:, upper] = pair_weights
        flat[:, lower] = pair_weights
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

    The mean over no objects is a zero row. The mean is np.mean's sum and
    quotient, np.add.reduce then a division by the count, without its
    Python wrapper.
    """
    m, rows, h = z.shape
    out = np.zeros((m, 2 * h))
    out[:, :h] = z[:, 0]
    if rows > 1:
        np.divide(np.add.reduce(z[:, 1:], axis=1), rows - 1, out=out[:, h:])
    return out


def graph_backward(
    a: Array,
    norm: tuple[Array, Array] | None,
    saved: list[tuple[Array, Array]],
    layers: Sequence[Array],
    g: Array,
    pairs: bool,
) -> tuple[list[Array], Array | None, Array | None, Array]:
    """The backward of frame_rows(graph_conv(a, x, layers)) on m stacked frames at their (m, 2H) gradient ``g``.

    ``a`` and ``norm`` are build_adjacency's values, ``saved`` graph_conv's.
    Returns the (m, H, H) layer gradients in reverse layer order, the
    (m, N) spoke and (m, N(N-1)/2) pair gradients (pairs only when
    ``pairs``; both None with zero layers, where the adjacency feeds
    nothing) and the (m, H) gradient of the pedestrian rows. It makes
    the NumPy calls of the per-op chain's reverse pass (mean, row slices,
    conv layers, row stack, row normalisation, scatter) on stacked
    matrices; the zero-padded slice gradients are added as the chain adds
    them, so even the sign of a zero gradient is the chain's.
    """
    m, rows, h = a.shape[0], a.shape[1], g.shape[1] // 2
    n = rows - 1
    g_z = np.zeros((m, rows, h))
    g_z[:, 0] = g[:, :h]
    if n:
        g_ctx = np.zeros((m, rows, h))
        g_ctx[:, 1:] = (g[:, h:] / n)[:, None, :]
        g_z = g_ctx + g_z
    layer_grads, g_a = [], None
    for index in reversed(range(len(layers))):
        z_in, az = saved[index]
        if index < len(layers) - 1:
            g_z = g_z * (saved[index + 1][0] > 0)
        layer_grads.append(az.swapaxes(1, 2) @ g_z)
        g_az = g_z @ layers[index].T
        g_a = g_az @ z_in.swapaxes(1, 2) if g_a is None else g_a + g_az @ z_in.swapaxes(1, 2)
        g_z = a.swapaxes(1, 2) @ g_az
    if g_a is None:
        return layer_grads, None, None, g_z[:, 0]
    if norm is not None:
        raw, den = norm
        g_rows = (-g_a * raw / (den * den)) @ np.ones((1, rows)).T
        g_a = g_a / den + g_rows @ np.ones((rows, 1)).T
    g_pairs = None
    if pairs:
        upper, lower = pair_slots(n)
        flat = g_a.reshape(m, rows * rows)
        g_pairs = flat[:, upper] + flat[:, lower]
    return layer_grads, g_a[:, 0, 1:] + g_a[:, 1:, 0], g_pairs, g_z[:, 0]


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
        layer_grads, g_spokes, g_pairs, g_center = graph_backward(
            a, norm, saved, [w.data for w in layers], g, pair_weights is not None
        )
        grads = [w[0] for w in layer_grads]
        if g_spokes is None:
            grads += [None] * len(weight_inputs)
        else:
            grads += [w.reshape(-1, 1) for w in (g_spokes, g_pairs) if w is not None]
        return (*grads, g_center)

    return ad._emit(ad._joint_tape(*inputs), inputs, frame_rows(z), bwd)
