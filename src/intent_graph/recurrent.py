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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
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
    """One gated update; returns the next hidden state (1, H)."""
    if x.shape != (1, p.input_width):
        raise ValueError(f"input shape {x.shape} != (1, {p.input_width})")
    if h.shape != (1, p.hidden_width):
        raise ValueError(f"hidden shape {h.shape} != (1, {p.hidden_width})")
    xh = ad.concat_rows(x, h)
    z = ad.sigmoid(ad.add(ad.matmul(xh, p.W_z), p.b_z))
    r = ad.sigmoid(ad.add(ad.matmul(xh, p.W_r), p.b_r))
    xrh = ad.concat_rows(x, ad.hadamard(r, h))
    candidate = ad.tanh(ad.add(ad.matmul(xrh, p.W_h), p.b_h))
    keep = ad.sub(ad.constant(np.ones((1, p.hidden_width))), z)
    return ad.add(ad.hadamard(keep, h), ad.hadamard(z, candidate))


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
