"""Training loop, Adam optimizer, and evaluation metrics.

Each gradient step averages per-scenario losses over a batch, clips the
global gradient norm, and applies adaptive-moment updates. Scenario order is
reshuffled every epoch from the training seed, so two runs with identical
seeds, configs, and data produce byte-identical metric streams.

The per-scenario loss is the mean binary cross-entropy of the K future-frame
logits against the stored labels. Evaluation thresholds probabilities at 0.5
(>= predicts crossing) and reports average accuracy over all predicted
frames, accuracy at the final step, mean per-step confidence, and mean loss.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np

from .autodiff import GradientTape, Tensor, bce_with_logits, scale, sigmoid_values
from .configs import check_int, check_real, from_mapping, to_plain_dict
from .model import ModelConfig, forward_batch, forward_logits, future_labels, init_parameters
from .scene import Scenario


class NumericError(RuntimeError):
    """Training hit a non-finite loss; aborted with diagnostics."""


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
    """Mean stable binary cross-entropy of scalar logits against {0,1} labels."""
    if len(logits) != len(labels) or not logits:
        raise ValueError(f"{len(logits)} logits vs {len(labels)} labels")
    total = 0.0
    for z, y in zip(logits, labels):
        if y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {y!r}")
        total += max(z, 0.0) - z * y + math.log1p(math.exp(-abs(z)))
    return total / len(logits)


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


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients so the global L2 norm is at most max_norm."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm and total > 0:
        factor = max_norm / total
        grads = {name: g * factor for name, g in grads.items()}
    return grads, total


class AdamOptimizer:
    """Adaptive-moment estimation with bias correction."""

    def __init__(self, tcfg: TrainConfig):
        self.tcfg = tcfg
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, values: dict[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        t = self.tcfg
        self.step_count += 1
        k = self.step_count
        out = {}
        for name, value in values.items():
            g = grads[name]
            m = self._m.get(name)
            v = self._v.get(name)
            m = (1 - t.beta1) * g if m is None else t.beta1 * m + (1 - t.beta1) * g
            v = (1 - t.beta2) * g * g if v is None else t.beta2 * v + (1 - t.beta2) * g * g
            self._m[name], self._v[name] = m, v
            m_hat = m / (1 - t.beta1**k)
            v_hat = v / (1 - t.beta2**k)
            out[name] = value - t.learning_rate * m_hat / (np.sqrt(v_hat) + t.epsilon)
        return out


def aggregate_metrics(per_scenario: Sequence[tuple[Sequence[float], Sequence[int], float]], threshold: float = 0.5) -> EvalReport:
    """Reduce (probabilities, labels, loss) triples into an EvalReport.

    A probability >= threshold predicts crossing. All scenarios must share
    the same horizon K.
    """
    if not per_scenario:
        raise EmptyDatasetError("no scenarios to evaluate")
    horizon = len(per_scenario[0][0])
    correct_all = 0
    correct_final = 0
    total_steps = 0
    conf_sums = np.zeros(horizon)
    loss_sum = 0.0
    for probs, labels, scenario_loss in per_scenario:
        if len(probs) != horizon or len(labels) != horizon:
            raise ValueError("inconsistent horizons across scenarios")
        preds = [1 if p >= threshold else 0 for p in probs]
        correct_all += sum(1 for p, y in zip(preds, labels) if p == y)
        correct_final += 1 if preds[-1] == labels[-1] else 0
        total_steps += horizon
        conf_sums += np.asarray(probs, dtype=np.float64)
        loss_sum += scenario_loss
    n = len(per_scenario)
    return EvalReport(
        avg_accuracy_1_to_K=correct_all / total_steps,
        accuracy_at_K=correct_final / n,
        mean_confidence_per_step=tuple((conf_sums / n).tolist()),
        loss=loss_sum / n,
    )


def evaluate(
    dataset: Sequence[Scenario],
    cfg: ModelConfig,
    values: Mapping[str, np.ndarray],
    threshold: float = 0.5,
) -> EvalReport:
    """Pure evaluation pass, one batched forward over the dataset.

    Repeated calls give bit-identical reports, equal to aggregating the
    forward() outputs of each scenario.
    """
    if not dataset:
        raise EmptyDatasetError("no scenarios to evaluate")
    logits = forward_batch(dataset, cfg, values)
    per_scenario = []
    for scenario, row, probs in zip(dataset, logits.tolist(), sigmoid_values(logits).tolist()):
        labels = future_labels(scenario, cfg)
        per_scenario.append((probs, labels, loss_from_logits(row, labels)))
    return aggregate_metrics(per_scenario, threshold=threshold)


def metrics_record(epoch: int, report: EvalReport) -> dict:
    return {
        "epoch": epoch,
        "loss": report.loss,
        "avg_acc": report.avg_accuracy_1_to_K,
        "acc_at_K": report.accuracy_at_K,
        "confidences": list(report.mean_confidence_per_step),
    }


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
    values = {name: np.array(v, dtype=np.float64) for name, v in (initial or init_parameters(cfg)).items()}
    optimizer = AdamOptimizer(tcfg)
    rng = np.random.default_rng(tcfg.seed)
    history: list[EvalReport] = []

    for epoch in range(1, tcfg.epochs + 1):
        order = rng.permutation(len(dataset))
        for start in range(0, len(order), tcfg.batch_size):
            batch = order[start : start + tcfg.batch_size]
            grad_sum: dict[str, np.ndarray] = {}
            for idx in batch:
                scenario = dataset[int(idx)]
                tape = GradientTape()
                loss_t = scenario_loss_tensor(scenario, cfg, values, tape)
                if not math.isfinite(loss_t.item()):
                    raise NumericError(
                        f"non-finite loss {loss_t.item()!r} at epoch {epoch}, "
                        f"scenario {scenario.id!r}"
                    )
                for name, g in tape.backward(loss_t).items():
                    prev = grad_sum.get(name)
                    grad_sum[name] = g if prev is None else prev + g
            grads = {name: g / len(batch) for name, g in grad_sum.items()}
            grads, _ = clip_gradients(grads, tcfg.grad_clip_norm)
            values = optimizer.step(values, grads)
        report = evaluate(dataset, cfg, values)
        history.append(report)
        if metrics_out is not None:
            metrics_out.write(json.dumps(metrics_record(epoch, report)) + "\n")
    return TrainResult(params=values, history=history)
