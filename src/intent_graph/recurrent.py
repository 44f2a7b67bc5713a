"""Gated recurrent cells and the future-step prediction rollout.

Gate layout for a cell with input width I and hidden width H, acting on the
row concatenation [x, h]:

    z = sigmoid([x, h] @ W_z + b_z)
    r = sigmoid([x, h] @ W_r + b_r)
    h~ = tanh([x, r * h] @ W_h + b_h)
    h' = (1 - z) * h + z * h~

W_* are (I+H, H), biases (1, H). Hidden state starts at zero unless given.
The prediction rollout feeds a width-0 input each future step (the zero-input
degenerate cell), so its gate matrices are (H, H), and reads a scalar logit
off each hidden state through a linear readout (w, b).

model.check_parameters owns these shapes. The array kernels gru_values and
gru_backward take a cell as two gate blocks, views of the model's flat
parameter row: W (3, I+H, H) = [W_z, W_r, W_h] and b (3, 1, H). z and r
come from one product on the leading gate axis, [x, h] @ W[:2], which is a
stack of lone one-row products and so keeps their bits (fused columns,
[W_z | W_r], would not). gru_values reads [x, h] as one row and writes h'
through ``out``, so model._run_cell unrolls a cell over one buffer whose
row t is step t's [x_t, h_t-1] and concatenates nothing per step. The
stacked forward and backward run the kernels over B scenarios at once;
gru_step stacks its six Tensors' data, concatenates its own [x, h] and
runs one.

One step records one tape node. Its forward makes the operations of the
per-op chain concat -> matmul -> add -> sigmoid -> ... -> add, in the same
order and some in place, and its backward returns one gradient per use of
an input, in the order that chain's reverse pass reaches them:

    inputs     h       b_h   W_h          x             h       b_r      W_r
    gradients  g*keep  g_ah  xrh.T@g_ah   g_xrh[:, :I]  g_rh*r  g_zr[1]  w_zr[1]

    inputs     b_z      W_z      x            h
    gradients  g_zr[0]  w_zr[0]  g_xh[:, :I]  g_xh[:, I:]

Here keep = 1 - z; g_ah is the gradient at the candidate pre-activation
and the block g_zr = [g_az, g_ar] those at the update and reset ones;
w_zr = xh.T @ g_zr, one stacked outer product; g_xrh = g_ah @ W_h.T,
g_rh = g_xrh[:, I:], and g_xh = g_ar @ W_r.T + g_az @ W_z.T, both terms
from one stacked g_zr @ W[:2].mT. The tape then adds h's three
contributions (and x's two) in the chain's order, so every gradient, and
so every trained model, is bit for bit the chain's; the training backward
adds them in the same order. The tests keep the chain as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Tensor, sigmoid_values
from .configs import check_bool_fields


@dataclass(frozen=True)
class TemporalConfig:
    """Which recurrent pieces of the observation encoder are active.

    use_temporal=False replaces every observation-side cell with a mean over
    per-frame vectors (the rollout always stays recurrent); with it True,
    use_ped_gru gates the pedestrian stream cell and use_ctxt_gru the context
    stream cell.
    """

    use_temporal: bool = True
    use_ped_gru: bool = True
    use_ctxt_gru: bool = False

    def __post_init__(self):
        check_bool_fields(self)


@dataclass
class GRUCellParams:
    """One cell's six gate parameters as Tensors, for gru_step."""

    W_z: Tensor
    W_r: Tensor
    W_h: Tensor
    b_z: Tensor
    b_r: Tensor
    b_h: Tensor


def gru_values(W: Array, b: Array, xh: Array, out: Array) -> tuple[Array, ...]:
    """One gated update on plain arrays: writes h' into ``out``; returns the values its backward reads.

    ``W`` and ``b`` are the cell's gate blocks, and the input width I is
    W.shape[-2] - W.shape[-1]. ``xh`` is the (..., 1, I+H) row [x, h] and
    ``out`` the (..., 1, H) array h' goes to: one row per scenario, so B
    cells advance as stacked one-row products, each bit for bit the product
    of a lone (1, I+H) row. ``xh`` may be a row of an unroll buffer and
    ``out`` the h columns of the next row; the backward reads ``xh``, so
    nothing may overwrite it. gru_step and the batched forward both call
    this, so the gate math exists once.
    """
    i = W.shape[-2] - W.shape[-1]
    h = xh[..., i:]
    zr = xh[..., None, :, :] @ W[:2]
    zr += b[:2]
    zr = sigmoid_values(zr)  # (..., 2, 1, H): z, then r
    z, r = zr[..., 0, :, :], zr[..., 1, :, :]
    xrh = xh.copy()
    np.multiply(r, h, out=xrh[..., i:])
    candidate = xrh @ W[2]
    candidate += b[2]
    np.tanh(candidate, out=candidate)
    keep = 1.0 - z
    np.multiply(keep, h, out=out)
    out += z * candidate
    return xh, zr, z, r, xrh, candidate, keep


def gru_backward(W: Array, saved: tuple[Array, ...], g: Array):
    """The backward of gru_values at the gradient ``g`` of h', on the same stacked rows.

    ``saved`` is what gru_values returned. Returns three tuples: the
    gradients (g_zr, g_ah, w_zr, w_h) of the biases [b_z, b_r], b_h, the
    weights [W_z, W_r] and W_h; the input's two terms (g_xrh[..., :I],
    g_xh[..., :I]); and h's three (g*keep, g_rh*r, g_xh[..., I:]), in the
    order the per-op chain's reverse pass reaches them. A weight gradient
    is the stacked outer product of a row and a gate gradient.
    """
    xh, zr, z, r, xrh, candidate, keep = saved
    i = W.shape[-2] - W.shape[-1]
    h = xh[..., i:]
    # each expression keeps the chain's operand order: float sums and
    # products are not associative
    g_ah = g * z
    g_ah *= 1.0 - candidate * candidate
    g_xrh = g_ah @ W[2].T
    g_rh = g_xrh[..., i:]
    g_zr = np.empty_like(zr)  # [g_z*z*(1-z), g_rh*h*r*(1-r)]
    g_z, g_r = g_zr[..., 0, :, :], g_zr[..., 1, :, :]
    np.multiply(g, candidate, out=g_z)
    g_z += -(g * h)
    np.multiply(g_rh, h, out=g_r)
    g_zr *= zr
    g_zr *= 1.0 - zr
    both = g_zr @ W[:2].mT
    g_xh = both[..., 1, :, :] + both[..., 0, :, :]
    params = (g_zr, g_ah, xh.mT[..., None, :, :] @ g_zr, xrh.mT @ g_ah)
    return params, (g_xrh[..., :i], g_xh[..., :i]), (g * keep, g_rh * r, g_xh[..., i:])


def gru_step(p: GRUCellParams, x: Tensor, h: Tensor) -> Tensor:
    """One gated update as one tape node; returns the next hidden state (1, H)."""
    rows, hidden = p.W_z.shape
    i = rows - hidden
    if x.shape != (1, i):
        raise ValueError(f"input shape {x.shape} != (1, {i})")
    if h.shape != (1, hidden):
        raise ValueError(f"hidden shape {h.shape} != (1, {hidden})")
    W = np.stack([p.W_z.data, p.W_r.data, p.W_h.data])
    out = np.empty((1, hidden))
    saved = gru_values(W, np.stack([p.b_z.data, p.b_r.data, p.b_h.data]), np.concatenate([x.data, h.data], axis=1), out)

    def bwd(g: Array):
        (g_zr, g_ah, w_zr, w_h), (x0, x1), (h0, h1, h2) = gru_backward(W, saved, g)
        return (h0, g_ah, w_h, x0, h1, g_zr[1], w_zr[1], g_zr[0], w_zr[0], x1, h2)

    inputs = (h, p.b_h, p.W_h, x, h, p.b_r, p.W_r, p.b_z, p.W_z, x, h)
    return ad._emit(ad._joint_tape(*inputs), inputs, out, bwd)


def run_observation(
    p: GRUCellParams, inputs: Sequence[Tensor], h0: Tensor | None = None
) -> list[Tensor]:
    """Unroll the cell over ``inputs``; returns every hidden state in order."""
    h = h0 if h0 is not None else ad.zeros(1, p.W_z.cols)
    states: list[Tensor] = []
    for x in inputs:
        h = gru_step(p, x, h)
        states.append(h)
    return states


def prediction_rollout(p: GRUCellParams, h_init: Tensor, horizon: int, w: Tensor, b: Tensor) -> list[Tensor]:
    """Roll the zero-input cell ``horizon`` steps; one scalar logit h @ w + b per step."""
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if p.W_z.rows != p.W_z.cols:
        raise ValueError(f"rollout cell takes width-0 inputs, got width {p.W_z.rows - p.W_z.cols}")
    empty = ad.zeros(1, 0)
    h = h_init
    logits: list[Tensor] = []
    for _ in range(horizon):
        h = gru_step(p, empty, h)
        logits.append(ad.add(ad.matmul(h, w), b))
    return logits
