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
off each hidden state through a linear readout.

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
    W_z: Tensor
    W_r: Tensor
    W_h: Tensor
    b_z: Tensor
    b_r: Tensor
    b_h: Tensor

    def __post_init__(self):
        hidden = self.W_z.cols
        rows = self.W_z.rows
        if rows < hidden:
            raise ValueError(f"gate matrix rows {rows} smaller than hidden width {hidden}")
        for name in ("W_z", "W_r", "W_h"):
            w = getattr(self, name)
            if w.shape != (rows, hidden):
                raise ValueError(f"{name} shape {w.shape} != ({rows}, {hidden})")
        for name in ("b_z", "b_r", "b_h"):
            b = getattr(self, name)
            if b.shape != (1, hidden):
                raise ValueError(f"{name} shape {b.shape} != (1, {hidden})")

    @property
    def hidden_width(self) -> int:
        return self.W_z.cols

    @property
    def input_width(self) -> int:
        return self.W_z.rows - self.W_z.cols


def gru_step(p: GRUCellParams, x: Tensor, h: Tensor) -> Tensor:
    """One gated update as one tape node; returns the next hidden state (1, H)."""
    if x.shape != (1, p.input_width):
        raise ValueError(f"input shape {x.shape} != (1, {p.input_width})")
    if h.shape != (1, p.hidden_width):
        raise ValueError(f"hidden shape {h.shape} != (1, {p.hidden_width})")
    i, xd, hd = p.input_width, x.data, h.data
    w_z, w_r, w_h = p.W_z.data, p.W_r.data, p.W_h.data
    xh = np.concatenate([xd, hd], axis=1)
    z = sigmoid_values(xh @ w_z + p.b_z.data)
    r = sigmoid_values(xh @ w_r + p.b_r.data)
    xrh = np.concatenate([xd, r * hd], axis=1)
    candidate = np.tanh(xrh @ w_h + p.b_h.data)
    keep = 1.0 - z

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
    return ad._emit(ad._joint_tape(*inputs), inputs, keep * hd + z * candidate, bwd)


def run_observation(
    p: GRUCellParams, inputs: Sequence[Tensor], h0: Tensor | None = None
) -> list[Tensor]:
    """Unroll the cell over ``inputs``; returns every hidden state in order."""
    h = h0 if h0 is not None else ad.zeros(1, p.hidden_width)
    states: list[Tensor] = []
    for x in inputs:
        h = gru_step(p, x, h)
        states.append(h)
    return states


@dataclass
class ReadoutParams:
    """Linear hidden -> logit map."""

    w: Tensor  # (H, 1)
    b: Tensor  # (1, 1)

    def __post_init__(self):
        if self.w.cols != 1 or self.b.shape != (1, 1):
            raise ValueError(f"readout needs (H,1) weights and (1,1) bias, got {self.w.shape} and {self.b.shape}")


def prediction_rollout(
    p: GRUCellParams, h_init: Tensor, horizon: int, readout: ReadoutParams
) -> list[Tensor]:
    """Roll the zero-input cell ``horizon`` steps; one scalar logit per step."""
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if p.input_width != 0:
        raise ValueError(f"rollout cell takes width-0 inputs, got width {p.input_width}")
    empty = ad.zeros(1, 0)
    h = h_init
    logits: list[Tensor] = []
    for _ in range(horizon):
        h = gru_step(p, empty, h)
        logits.append(ad.add(ad.matmul(h, readout.w), readout.b))
    return logits
