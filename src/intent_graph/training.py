"""Training loop, Adam optimizer, and evaluation metrics.

Each gradient step averages per-scenario losses over a batch, clips the
global gradient norm, and applies adaptive-moment updates. Scenario order is
reshuffled every epoch from the training seed, so two runs with identical
seeds, configs, and data produce byte-identical metric streams.

The per-scenario loss is the mean binary cross-entropy of the K future-frame
logits against the stored labels. Evaluation thresholds probabilities at 0.5
(>= predicts crossing) and reports average accuracy over all predicted
frames, accuracy at the final step, mean per-step confidence, and mean loss.
evaluate() runs one forward_batch pass per CHUNK (64) scenarios and reduces
the report over (n, K) arrays; aggregate_metrics turns its triples into the
same arrays, so the two agree by construction. Every loss, evaluated or
trained, is loss_from_logits: a Python loop in math that adds the K terms
in scenario_loss_tensor's order and scales by 1/K, so evaluate([s]).loss
is bit for bit the scenario's training loss.

Training builds no tape. Each minibatch runs model.forward_chunk and
model.backward_chunk once per CHUNK scenarios (one pass for a minibatch of
at most 64), which give every scenario's gradients bit for bit as
GradientTape.backward gives them for scenario_loss_tensor, as one (B, P)
row. train() owns that row for the whole run, with its views made once
per chunk size, and backward_chunk zeroes it before each backward;
train() adds its rows in batch order, in place, as it did when it ran one
tape per scenario. The parameter values, the gradients and Adam's two moments
are the rows of one (4, P) float64 buffer, all laid out as the flat row of
check_parameters; the model reads views of the value row, made once per run.
Adam updates the whole buffer in place, and clip_gradients squares the
gradient row once and sums each run of adjacent same-size parameters as
one block, one row per parameter, so the norm keeps the bits of one np.sum
per parameter. The taped scenario_loss_tensor stays as the oracle for the
tests, and benchmarks/tracing.py wraps it. scenario_loss is
scenario_gradients' loss without the backward, for the perturbed calls of
the gradient check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import IO, Mapping, Sequence

import numpy as np

from .autodiff import GradientTape, Tensor, bce_with_logits, scale, sigmoid_values
from .configs import ConfigError, check_int, check_real, from_mapping, to_plain_dict
from .model import (
    CHUNK,
    EdgeCheckError,
    ModelConfig,
    ScenarioError,
    backward_chunk,
    Parameters,
    check_parameters,
    forward_batch,
    forward_chunk,
    forward_logits,
    future_labels,
    init_parameters,
    parameter_shapes,
)
from .scene import Scenario


class NumericError(RuntimeError):
    """A loss or a logit came out non-finite; aborted with diagnostics."""


class EmptyDatasetError(Exception):
    """An operation that needs scenarios received none."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 100
    batch_size: int = 1
    grad_clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        # learning_rate 0 is legal: a zero step must leave parameters untouched.
        check_real("learning_rate", self.learning_rate, 0, include_low=True)
        for name in ("beta1", "beta2"):
            check_real(name, getattr(self, name), 0, 1, include_low=True)
        check_real("epsilon", self.epsilon, 0)
        check_int("epochs", self.epochs, 1)
        check_int("batch_size", self.batch_size, 1)
        check_real("grad_clip_norm", self.grad_clip_norm, 0)
        check_int("seed", self.seed, 0)

    @classmethod
    def from_dict(cls, mapping: Mapping) -> "TrainConfig":
        return from_mapping(cls, mapping, where="train.")

    def to_dict(self) -> dict:
        return to_plain_dict(self)


@dataclass(frozen=True)
class EvalReport:
    avg_accuracy_1_to_K: float
    accuracy_at_K: float
    mean_confidence_per_step: tuple[float, ...]
    loss: float

    def to_dict(self) -> dict:
        return {
            "avg_accuracy_1_to_K": self.avg_accuracy_1_to_K,
            "accuracy_at_K": self.accuracy_at_K,
            "mean_confidence_per_step": list(self.mean_confidence_per_step),
            "loss": self.loss,
        }


def loss_from_logits(logits: Sequence[float], labels: Sequence[int]) -> float:
    """Mean stable BCE of logits against {0,1} labels, summed in order from the first term (no +0.0), times 1/K."""
    if len(logits) != len(labels) or not logits:
        raise ValueError(f"{len(logits)} logits vs {len(labels)} labels")
    total = None
    for z, y in zip(logits, labels):
        if y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {y!r}")
        term = max(z, 0.0) - z * y + math.log1p(math.exp(-abs(z)))
        total = term if total is None else total + term
    return total * (1.0 / len(labels))


def loss(output, labels: Sequence[int]) -> float:
    """Mean BCE of a PredictionOutput against the future-frame labels."""
    return loss_from_logits(list(output.logits), list(labels))


def scenario_loss_tensor(
    scenario: Scenario,
    cfg: ModelConfig,
    values: Mapping[str, np.ndarray],
    tape: GradientTape,
) -> Tensor:
    """Differentiable mean BCE over the K predicted frames of one scenario."""
    logits = forward_logits(scenario, cfg, values, tape=tape)
    labels = future_labels(scenario, cfg)
    total = bce_with_logits(logits[0], labels[0])
    for z, y in zip(logits[1:], labels[1:]):
        total = total + bce_with_logits(z, y)
    return scale(total, 1.0 / len(labels))


@lru_cache(maxsize=64)
def _runs(sizes: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """(start, count, size) of each run of adjacent parameters of one size, in order."""
    runs, start = [], 0
    for size, group in groupby(sizes):
        count = len(list(group))
        runs.append((start, count, size))
        start += count * size
    return tuple(runs)


def clip_gradients(flat: np.ndarray, sizes: Sequence[int], max_norm: float) -> float:
    """Scale the flat gradient row in place so its global L2 norm is at most max_norm; returns the norm before.

    ``sizes`` splits ``flat`` into its parameters, in order. The row is
    squared once, and each run of adjacent same-size parameters (a GRU
    cell's three weights, its three biases) is summed as one (count, size)
    block along its rows, each row the pairwise sum np.add.reduce makes of
    a lone slice; then the sums are added in order: the bits of one
    np.sum(g * g) per (rows, cols) parameter.
    """
    squares, sums = flat * flat, []
    for start, count, size in _runs(tuple(sizes)):
        sums += np.add.reduce(squares[start : start + count * size].reshape(count, size), axis=1).tolist()
    total = math.sqrt(sum(sums))
    if total > max_norm and total > 0:
        flat *= max_norm / total
    return total


class AdamOptimizer:
    """Adaptive-moment estimation with bias correction, over one flat buffer."""

    def __init__(self, tcfg: TrainConfig):
        self.tcfg = tcfg
        self.step_count = 0

    def step(self, buffer: np.ndarray) -> None:
        """One update, in place, of the (4, P) buffer [values, gradients, first moments, second moments]."""
        t = self.tcfg
        self.step_count += 1
        k = self.step_count
        value, g, m, v = buffer
        # m = beta1 * m + (1 - beta1) * g, ..., value -= lr * m_hat / (sqrt(v_hat) + eps), each operation in its order
        step, scratch = (1 - t.beta1) * g, (1 - t.beta2) * g * g
        if k == 1:
            m[:], v[:] = step, scratch
        else:
            m *= t.beta1
            m += step
            v *= t.beta2
            v += scratch
        np.divide(m, 1 - t.beta1**k, out=step)
        np.divide(v, 1 - t.beta2**k, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += t.epsilon
        step *= t.learning_rate
        step /= scratch
        value -= step


def _report(probs: np.ndarray, labels: np.ndarray, losses: Sequence[float], threshold: float) -> EvalReport:
    """The EvalReport of n >= 1 scenarios from their (n, K >= 1) probabilities and labels and their n losses.

    Each sum adds the scenarios in order from +0.0, as a loop over them
    would: np.add.accumulate runs down the rows one at a time, where np.sum
    over the first axis of an (n, 1) array would add pairwise. A prediction
    is compared with its label as an int, so a label outside {0, 1} is a
    miss.
    """
    n, horizon = probs.shape
    hits = (probs >= threshold).astype(np.intp) == labels
    loss_sum = 0.0
    for scenario_loss in losses:
        loss_sum += scenario_loss
    return EvalReport(
        avg_accuracy_1_to_K=int(hits.sum()) / (n * horizon),
        accuracy_at_K=int(hits[:, -1].sum()) / n,
        mean_confidence_per_step=tuple((np.add.accumulate(probs + 0.0, axis=0)[-1] / n).tolist()),
        loss=loss_sum / n,
    )


def aggregate_metrics(per_scenario: Sequence[tuple[Sequence[float], Sequence[int], float]], threshold: float = 0.5) -> EvalReport:
    """Reduce (probabilities, labels, loss) triples into an EvalReport.

    A probability >= threshold predicts crossing. All scenarios must share
    the same horizon K, and K must be at least 1 (else ValueError).
    """
    if not per_scenario:
        raise EmptyDatasetError("no scenarios to evaluate")
    horizon = len(per_scenario[0][0])
    if any(len(probs) != horizon or len(labels) != horizon for probs, labels, _ in per_scenario):
        raise ValueError("inconsistent horizons across scenarios")
    if horizon == 0:
        raise ValueError("empty horizon: the scenarios carry no predicted frames")
    probs, labels, losses = zip(*per_scenario)
    return _report(np.array(probs, dtype=np.float64), np.array(labels), losses, threshold)


def evaluate(dataset: Sequence[Scenario], cfg: ModelConfig, values: Mapping[str, np.ndarray]) -> EvalReport:
    """Pure evaluation pass, one batched forward over the dataset.

    Repeated calls give bit-identical reports, equal to aggregating the
    forward() outputs of each scenario: both reduce through _report. A
    non-finite logit raises NumericError naming the first scenario that has
    one.
    """
    if not dataset:
        raise EmptyDatasetError("no scenarios to evaluate")
    logits = check_finite_logits(dataset, forward_batch(dataset, cfg, values))
    labels = [future_labels(scenario, cfg) for scenario in dataset]
    losses = [loss_from_logits(row, row_labels) for row, row_labels in zip(logits.tolist(), labels)]
    return _report(sigmoid_values(logits), np.array(labels), losses, 0.5)


def check_finite_logits(scenarios: Sequence[Scenario], logits: np.ndarray) -> np.ndarray:
    """Return the (B, K) ``logits`` of ``scenarios``; raise NumericError naming the first non-finite row."""
    bad = np.flatnonzero(~np.isfinite(logits).all(axis=1))
    if bad.size:
        raise NumericError(f"non-finite logits for scenario {scenarios[bad[0]].id!r}")
    return logits


def metrics_record(epoch: int, report: EvalReport) -> dict:
    return {
        "epoch": epoch,
        "loss": report.loss,
        "avg_acc": report.avg_accuracy_1_to_K,
        "acc_at_K": report.accuracy_at_K,
        "confidences": list(report.mean_confidence_per_step),
    }


def _chunk_gradients(
    chunk: Sequence[Scenario], cfg: ModelConfig, p: Parameters, epoch: int | None = None, out: Parameters | None = None
) -> tuple[list[float], Parameters]:
    """Losses and gradients of at most CHUNK scenarios from one stacked pass; the gradients are backward_chunk's (B, P) row.

    ``p`` is what check_parameters returns, and ``out`` (or None) the
    Parameters over a (B, P) row that backward_chunk writes into. A failing
    scenario raises what scenario_loss_tensor raises for it; given an
    ``epoch``, so does a non-finite loss (NumericError naming the epoch and
    the scenario). When several fail, the first in order raises, as a loop
    over the scenarios one at a time would.
    """
    try:
        logits, kept = forward_chunk(chunk, cfg, p, keep=True)
    except (ScenarioError, EdgeCheckError) as exc:
        if len(chunk) > 1:
            for scenario in chunk:
                _chunk_gradients([scenario], cfg, p, epoch)  # the first failing scenario raises
        if isinstance(exc, EdgeCheckError):
            raise ValueError(exc.detail) from None
        raise
    labels = np.array([future_labels(scenario, cfg) for scenario in chunk])
    losses = []
    for scenario, row, row_labels in zip(chunk, logits.tolist(), labels.tolist()):
        losses.append(loss_from_logits(row, row_labels))
        if epoch is not None and not math.isfinite(losses[-1]):
            raise NumericError(f"non-finite loss {losses[-1]!r} at epoch {epoch}, scenario {scenario.id!r}")
    g_logits = (1.0 / cfg.K) * (sigmoid_values(logits) - labels)
    return losses, backward_chunk(cfg, p, kept, g_logits, out)


def scenario_gradients(
    scenario: Scenario, cfg: ModelConfig, values: Mapping[str, np.ndarray]
) -> tuple[float, Parameters]:
    """The loss of one scenario and its gradient by every parameter, from the tape-free pass train() uses.

    Bit for bit the value of scenario_loss_tensor and the gradients
    GradientTape.backward returns for it; a non-finite loss is returned,
    not raised. The gradients are views of one flat row.
    """
    losses, grads = _chunk_gradients([scenario], cfg, check_parameters(cfg, values))
    return losses[0], Parameters(cfg, grads.row[0])


def scenario_loss(scenario: Scenario, cfg: ModelConfig, values: Mapping[str, np.ndarray]) -> float:
    """scenario_gradients' loss bit for bit, from forward_batch alone: no gradient is computed."""
    return loss_from_logits(forward_batch([scenario], cfg, values)[0].tolist(), future_labels(scenario, cfg))


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    history: list[EvalReport]


def train(
    dataset: Sequence[Scenario],
    cfg: ModelConfig,
    tcfg: TrainConfig,
    initial: Mapping[str, np.ndarray] | None = None,
    metrics_out: IO[str] | None = None,
) -> TrainResult:
    """Fit the model; returns final parameters plus one EvalReport per epoch.

    After each epoch the (updated) parameters are evaluated on the training
    set and, when metrics_out is given, one JSON line
    {epoch, loss, avg_acc, acc_at_K, confidences} is appended.
    """
    if not dataset:
        raise EmptyDatasetError("no scenarios to train on")
    sizes = [r * c for r, c in parameter_shapes(cfg).values()]
    buffer = np.zeros((4, sum(sizes)))
    buffer[0] = check_parameters(cfg, initial if initial is not None else init_parameters(cfg)).row
    values, g = Parameters(cfg, buffer[0]), buffer[1]
    grad_rows = np.empty((min(tcfg.batch_size, CHUNK, len(dataset)), sum(sizes)))
    chunk_grads: dict[int, Parameters] = {}  # chunk size n: views of the first n rows of grad_rows, built once
    optimizer = AdamOptimizer(tcfg)
    rng = np.random.default_rng(tcfg.seed)
    history: list[EvalReport] = []

    for epoch in range(1, tcfg.epochs + 1):
        order = rng.permutation(len(dataset))
        for start in range(0, len(order), tcfg.batch_size):
            batch = [dataset[int(i)] for i in order[start : start + tcfg.batch_size]]
            for first in range(0, len(batch), CHUNK):
                chunk = batch[first : first + CHUNK]
                if len(chunk) not in chunk_grads:
                    chunk_grads[len(chunk)] = Parameters(cfg, grad_rows[: len(chunk)])
                rows = _chunk_gradients(chunk, cfg, values, epoch, chunk_grads[len(chunk)])[1].row
                if not first:
                    g[:], rows = rows[0], rows[1:]
                for row in rows:  # added in batch order, as the tape's loop did
                    g += row
            g /= len(batch)
            clip_gradients(g, sizes, tcfg.grad_clip_norm)
            optimizer.step(buffer)
        try:
            report = evaluate(dataset, cfg, values)
        except (NumericError, ConfigError) as exc:  # a ConfigError here is a parameter the step made non-finite
            raise NumericError(f"epoch {epoch}: {exc}") from None
        history.append(report)
        if metrics_out is not None:
            metrics_out.write(json.dumps(metrics_record(epoch, report)) + "\n")
    # copies: views would keep the gradient and moment rows alive with the result
    return TrainResult(params={name: value.copy() for name, value in values.items()}, history=history)
