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

model.check_parameters owns these shapes: GRUCellParams is a plain record,
and gru_step checks only the activations it is handed. The gate math is
gru_values, an array kernel that never sees a Tensor.

One step records one tape node. Its forward makes the NumPy calls of the
per-op chain concat -> matmul -> add -> sigmoid -> ... -> add, in the same
order, and its backward returns one gradient per use of an input, in the
order that chain's reverse pass reaches them:

    inputs     h       b_h   W_h          x             h       b_r   W_r
    gradients  g*keep  g_ah  xrh.T@g_ah   g_xrh[:, :I]  g_rh*r  g_ar  xh.T@g_ar

    inputs     b_z   W_z          x            h
    gradients  g_az  xh.T@g_az    g_xh[:, :I]  g_xh[:, I:]

Here keep = 1 - z; g_ah, g_ar and g_az are the gradients at the candidate,
reset and update pre-activations; g_xrh = g_ah @ W_h.T, g_rh = g_xrh[:, I:]
and g_xh = g_ar @ W_r.T + g_az @ W_z.T. The tape then adds h's three
contributions (and x's two) in the chain's order, so every gradient, and so
every trained model, is bit for bit the chain's. The tests keep the chain as
the reference.
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
    """One cell's gate parameters: Tensors for gru_step, arrays for gru_values."""

    W_z: Tensor | Array
    W_r: Tensor | Array
    W_h: Tensor | Array
    b_z: Tensor | Array
    b_r: Tensor | Array
    b_h: Tensor | Array


def gru_values(p: GRUCellParams, x: Array, h: Array) -> tuple[Array, tuple[Array, ...]]:
    """One gated update on plain arrays; returns h' and the values its backward reads.

    ``x`` is (..., 1, I) and ``h`` is (..., 1, H): one row per scenario, so B
    cells advance as stacked one-row products, each bit for bit the product
    of a lone (1, I+H) row. ``p`` holds arrays. gru_step and the batched
    inference forward both call this, so the gate math exists once.
    """
    xh = np.concatenate([x, h], axis=-1)
    z = sigmoid_values(xh @ p.W_z + p.b_z)
    r = sigmoid_values(xh @ p.W_r + p.b_r)
    xrh = np.concatenate([x, r * h], axis=-1)
    candidate = np.tanh(xrh @ p.W_h + p.b_h)
    keep = 1.0 - z
    return keep * h + z * candidate, (xh, z, r, xrh, candidate, keep)


def gru_step(p: GRUCellParams, x: Tensor, h: Tensor) -> Tensor:
    """One gated update as one tape node; returns the next hidden state (1, H)."""
    rows, hidden = p.W_z.shape
    i = rows - hidden
    if x.shape != (1, i):
        raise ValueError(f"input shape {x.shape} != (1, {i})")
    if h.shape != (1, hidden):
        raise ValueError(f"hidden shape {h.shape} != (1, {hidden})")
    hd, w_z, w_r, w_h = h.data, p.W_z.data, p.W_r.data, p.W_h.data
    cell = GRUCellParams(w_z, w_r, w_h, p.b_z.data, p.b_r.data, p.b_h.data)
    out, (xh, z, r, xrh, candidate, keep) = gru_values(cell, x.data, hd)

    def bwd(g: Array):
        # each expression keeps the chain's operand order: float sums and
        # products are not associative
        g_z = g * candidate + -(g * hd)
        g_ah = g * z * (1.0 - candidate * candidate)
        g_xrh = g_ah @ w_h.T
        g_rh = g_xrh[:, i:]
        g_ar = g_rh * hd * r * (1.0 - r)
        g_az = g_z * z * (1.0 - z)
        g_xh = g_ar @ w_r.T + g_az @ w_z.T
        return (
            g * keep, g_ah, xrh.T @ g_ah, g_xrh[:, :i], g_rh * r, g_ar,
            xh.T @ g_ar, g_az, xh.T @ g_az, g_xh[:, :i], g_xh[:, i:],
        )

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
