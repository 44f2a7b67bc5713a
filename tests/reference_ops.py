"""Per-op reference chains and the small ops only tests use.

The library records a GRU step and an edge block as one fused tape node each;
the chains here rebuild them from single-op nodes so tests can compare the
fused nodes against them byte for byte. The remaining ops (sigmoid, tanh,
dot, sum_all, clamp_open_unit, sub, hadamard) build those chains and test
losses. object_sort_key is the canonical object order as a Python sort key,
the reference for the library's np.lexsort.
"""

import numpy as np

from intent_graph import autodiff as ad
from intent_graph.autodiff import Tensor, sigmoid_values
from intent_graph.graph import _OPEN_UNIT_HI, _OPEN_UNIT_LO, EdgeWeightParams, StarGraph, _weight_count
from intent_graph.recurrent import GRUCellParams


def sub(a: Tensor, b: Tensor) -> Tensor:
    ad._require_same_shape("sub", a, b)
    return ad._emit(ad._joint_tape(a, b), (a, b), a.data - b.data, lambda g: (g, -g))


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors."""
    ad._require_same_shape("hadamard", a, b)
    a_data, b_data = a.data, b.data
    return ad._emit(ad._joint_tape(a, b), (a, b), a_data * b_data, lambda g: (g * b_data, g * a_data))


def sigmoid(a: Tensor) -> Tensor:
    s = sigmoid_values(a.data)
    return ad._emit(a.tape, (a,), s, lambda g: (g * s * (1.0 - s),))


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    return ad._emit(a.tape, (a,), t, lambda g: (g * (1.0 - t * t),))


def clamp_open_unit(a: Tensor) -> Tensor:
    """Nudge values into (0, 1) by one float64 step; the backward is the identity."""
    return ad._emit(a.tape, (a,), np.clip(a.data, _OPEN_UNIT_LO, _OPEN_UNIT_HI), lambda g: (g,))


def dot(a: Tensor, b: Tensor) -> Tensor:
    """Inner product of two row vectors, returned as a 1x1 tensor."""
    if a.rows != 1 or b.rows != 1 or a.cols != b.cols:
        raise ad.ShapeError(f"dot expects equal-width row vectors, got {a.shape} and {b.shape}")
    a_data, b_data = a.data, b.data

    def bwd(g):
        g0 = float(g[0, 0])
        return g0 * b_data, g0 * a_data

    return ad._emit(ad._joint_tape(a, b), (a, b), np.array([[float(a_data[0] @ b_data[0])]]), bwd)


def sum_all(a: Tensor) -> Tensor:
    """Sum of all entries as a 1x1 tensor."""
    shape = a.shape
    return ad._emit(a.tape, (a,), np.array([[float(a.data.sum())]]), lambda g: (np.full(shape, float(g[0, 0])),))


def gru_step_chain(p: GRUCellParams, x: Tensor, h: Tensor) -> Tensor:
    """One GRU step as the per-op chain the fused ``gru_step`` node must equal."""
    xh = ad.concat_rows(x, h)
    z = sigmoid(ad.add(ad.matmul(xh, p.W_z), p.b_z))
    r = sigmoid(ad.add(ad.matmul(xh, p.W_r), p.b_r))
    xrh = ad.concat_rows(x, hadamard(r, h))
    candidate = tanh(ad.add(ad.matmul(xrh, p.W_h), p.b_h))
    keep = sub(ad.constant(np.ones((1, p.hidden_width))), z)
    return ad.add(hadamard(keep, h), hadamard(z, candidate))


def edge_weight_chain(
    src_rows: list[Tensor], rel_rows: list[Tensor], tgt_rows: list[Tensor], p: EdgeWeightParams
) -> list[Tensor]:
    """One 1x1 weight per edge, as the per-op chain the fused ``edge_weight`` node must equal."""
    out = []
    for src, rel, tgt in zip(src_rows, rel_rows, tgt_rows):
        e_i = ad.relu(ad.matmul(ad.concat_rows(src, rel), p.proj_i))
        e_o = ad.relu(ad.matmul(tgt, p.proj_o))
        out.append(clamp_open_unit(sigmoid(dot(e_i, e_o))))
    return out


def validate_star_graph(g: StarGraph) -> None:
    """Raise ValueError unless ``g``'s adjacency, rows and weights agree and A is symmetric."""
    n = _weight_count(g.weights, "edge weight")
    if g.a.shape != (n + 1, n + 1):
        raise ValueError(f"adjacency shape {g.a.shape} != ({n + 1}, {n + 1})")
    if g.x.rows != n + 1:
        raise ValueError(f"feature rows {g.x.rows} != {n + 1}")
    if not np.array_equal(g.a.data, g.a.data.T):
        raise ValueError("adjacency is not symmetric")


def object_sort_key(obj):
    """Canonical object order: category value, raw box, camera offset, then feature."""
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
