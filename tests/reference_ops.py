"""Per-op reference chains, the taped training loop, and the small ops only tests use.

The library records a GRU step, an edge block and a frame's graph block as
one fused tape node each; the chains here rebuild them from single-op nodes
so tests can compare the fused nodes against them byte for byte. The
remaining ops (sigmoid, tanh, dot, sum_all, clamp_open_unit, sub, hadamard,
div, relu, slice_rows, symmetric_scatter) build those chains and test
losses. object_sort_key is the canonical object order as a Python sort key,
the reference for the library's np.lexsort, and category_one_hot the class
encoding the model appends to an edge target row.

reference_train is the training loop as it ran on the tape, one scenario
per tape with dict-based clipping and Adam; train() must match it byte for
byte. reference_aggregate_metrics is the metric reduction as a loop over
the scenarios, the reference for the library's reduction over arrays. taped adapts a loss built on a GradientTape to finite_diff_check's
two functions: (loss, gradients), and the loss alone.
"""

import itertools
import json
import math

import numpy as np

from intent_graph import autodiff as ad
from intent_graph.autodiff import GradientTape, Tensor, sigmoid_values
from intent_graph.graph import _OPEN_UNIT_HI, _OPEN_UNIT_LO
from intent_graph.recurrent import GRUCellParams
from intent_graph.model import init_parameters
from intent_graph.scene import CATEGORY_COUNT
from intent_graph.training import (
    EmptyDatasetError,
    EvalReport,
    NumericError,
    TrainResult,
    evaluate,
    metrics_record,
    scenario_loss_tensor,
)


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
    keep = sub(ad.constant(np.ones((1, p.W_z.cols))), z)
    return ad.add(hadamard(keep, h), hadamard(z, candidate))


def edge_weight_chain(
    src_rows: list[Tensor], rel_rows: list[Tensor], tgt_rows: list[Tensor], proj_i: Tensor, proj_o: Tensor
) -> list[Tensor]:
    """One 1x1 weight per edge, as the per-op chain the fused ``edge_weight`` node must equal."""
    out = []
    for src, rel, tgt in zip(src_rows, rel_rows, tgt_rows):
        e_i = relu(ad.matmul(ad.concat_rows(src, rel), proj_i))
        e_o = relu(ad.matmul(tgt, proj_o))
        out.append(clamp_open_unit(sigmoid(dot(e_i, e_o))))
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise quotient of same-shape tensors."""
    ad._require_same_shape("div", a, b)
    a_data, b_data = a.data, b.data

    def bwd(g):
        return g / b_data, -g * a_data / (b_data * b_data)

    return ad._emit(ad._joint_tape(a, b), (a, b), a_data / b_data, bwd)


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is taken to be 0."""
    mask = a.data > 0
    return ad._emit(a.tape, (a,), np.where(mask, a.data, 0.0), lambda g: (g * mask,))


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows start:stop of ``a`` as a new tensor."""
    if not (0 <= start <= stop <= a.rows):
        raise ad.ShapeError(f"slice_rows: [{start}:{stop}] out of range for {a.shape}")
    shape = a.shape

    def bwd(g):
        full = np.zeros(shape)
        full[start:stop, :] = g
        return (full,)

    return ad._emit(a.tape, (a,), a.data[start:stop, :].copy(), bwd)


def symmetric_scatter(base: Tensor, pairs, weights) -> Tensor:
    """Add weight k to square ``base`` at (i, j) and (j, i) for ``pairs[k] = (i, j)``.

    ``weights`` are (m, 1) columns whose rows, in order, line up with
    ``pairs``. Pairs must be off-diagonal and each unordered pair may appear
    once, so the gradient of weight k is exactly g[i, j] + g[j, i].
    """
    n = base.rows
    if base.cols != n:
        raise ad.ShapeError(f"symmetric_scatter: base must be square, got {base.shape}")
    for w in weights:
        if w.cols != 1:
            raise ad.ShapeError(f"symmetric_scatter: weights must be columns, got {w.shape}")
    rows = [w.rows for w in weights]
    if len(pairs) != sum(rows):
        raise ad.ShapeError(f"symmetric_scatter: {len(pairs)} pairs but {sum(rows)} weights")
    values = [v for w in weights for v in w.data[:, 0].tolist()]
    out = base.data.copy()
    seen = set()
    for (i, j), v in zip(pairs, values):
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ad.ShapeError(f"symmetric_scatter: pair {(i, j)} is not off-diagonal in {base.shape}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"symmetric_scatter: pair {key} appears more than once")
        seen.add(key)
        out[i, j] += v
        out[j, i] += v
    ends = list(itertools.accumulate(rows))

    def bwd(g):
        i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        flat = (g[i, j] + g[j, i]).reshape(-1, 1)
        return (g, *(flat[end - r : end] for end, r in zip(ends, rows)))

    return ad._emit(ad._joint_tape(base, *weights), (base, *weights), out, bwd)


def adjacency_chain(spokes: Tensor, pair_weights: Tensor | None = None, row_normalize: bool = False) -> Tensor:
    """One frame's (N+1, N+1) adjacency from (N, 1) spoke and pair columns, as single-op nodes."""
    n = spokes.rows
    pairs = [(0, j + 1) for j in range(n)]
    columns = [spokes]
    if pair_weights is not None:
        pairs += [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n)]
        columns.append(pair_weights)
    a = symmetric_scatter(ad.constant(np.eye(n + 1)), pairs, columns)
    if row_normalize:
        row_sums = ad.matmul(a, ad.constant(np.ones((n + 1, 1))))
        a = div(a, ad.matmul(row_sums, ad.constant(np.ones((1, n + 1)))))
    return a


def graph_conv_chain(a: Tensor, x: Tensor, layers) -> Tensor:
    """Z = A @ Z @ W per layer with ReLU between layers, as single-op nodes; zero layers return X."""
    z = x
    for index, w in enumerate(layers):
        z = ad.matmul(ad.matmul(a, z), w)
        if index < len(layers) - 1:
            z = relu(z)
    return z


def context_vector(z: Tensor) -> Tensor:
    """Mean of the object rows (rows 1..N); a zero row when there are none."""
    if z.rows == 1:
        return ad.constant(np.zeros((1, z.cols)))
    return ad.mean_rows(slice_rows(z, 1, z.rows))


def star_graph_chain(center: Tensor, objects, spokes: Tensor, pair_weights=None, layers=(), row_normalize=False):
    """One frame's graph block as the per-op chain: (refined pedestrian row, object-context mean).

    The fused ``star_graph`` node returns concat_rows of the two.
    """
    a = adjacency_chain(spokes, pair_weights, row_normalize)
    x = ad.stack_rows([center, *(Tensor(row) for row in objects)])
    z = graph_conv_chain(a, x, layers)
    return slice_rows(z, 0, 1), context_vector(z)


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


def category_one_hot(category) -> np.ndarray:
    """The (CATEGORY_COUNT,) one-hot row of an ObjectCategory, at its declaration index."""
    vec = np.zeros(CATEGORY_COUNT)
    vec[category.index] = 1.0
    return vec


def taped(f):
    """finite_diff_check's (loss, gradients) and loss-only functions for ``f``, which builds a loss Tensor on a fresh tape."""

    def loss_and_gradients(values):
        loss = f(values)
        if loss.tape is None:
            raise ValueError("f must build its loss on a GradientTape")
        return loss.item(), loss.tape.backward(loss)

    return loss_and_gradients, lambda values: f(values).item()


def reference_clip(grads, max_norm):
    """Scaled copies of ``grads`` with global L2 norm at most max_norm, and the norm before."""
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm and total > 0:
        factor = max_norm / total
        grads = {name: g * factor for name, g in grads.items()}
    return grads, total


class ReferenceAdam:
    """Bias-corrected Adam over {name: array} dicts, one parameter at a time."""

    def __init__(self, tcfg):
        self.tcfg, self.step_count, self._m, self._v = tcfg, 0, {}, {}

    def step(self, values, grads):
        t = self.tcfg
        self.step_count += 1
        k = self.step_count
        out = {}
        for name, value in values.items():
            g = grads[name]
            m, v = self._m.get(name), self._v.get(name)
            m = (1 - t.beta1) * g if m is None else t.beta1 * m + (1 - t.beta1) * g
            v = (1 - t.beta2) * g * g if v is None else t.beta2 * v + (1 - t.beta2) * g * g
            self._m[name], self._v[name] = m, v
            out[name] = value - t.learning_rate * (m / (1 - t.beta1**k)) / (np.sqrt(v / (1 - t.beta2**k)) + t.epsilon)
        return out


def taped_gradients(scenario, cfg, values):
    """(loss, {name: gradient}) of one scenario from scenario_loss_tensor and GradientTape.backward."""
    tape = GradientTape()
    loss = scenario_loss_tensor(scenario, cfg, values, tape)
    return loss.item(), tape.backward(loss)


def reference_train(dataset, cfg, tcfg, initial=None, metrics_out=None):
    """train() as a loop of taped scenarios: each batch's gradients summed in batch order, clipped, one Adam step."""
    values = {name: np.array(v, dtype=np.float64) for name, v in (initial or init_parameters(cfg)).items()}
    optimizer = ReferenceAdam(tcfg)
    rng = np.random.default_rng(tcfg.seed)
    history = []
    for epoch in range(1, tcfg.epochs + 1):
        order = rng.permutation(len(dataset))
        for start in range(0, len(order), tcfg.batch_size):
            batch = order[start : start + tcfg.batch_size]
            grad_sum = {}
            for idx in batch:
                scenario = dataset[int(idx)]
                loss, grads = taped_gradients(scenario, cfg, values)
                if not math.isfinite(loss):
                    raise NumericError(f"non-finite loss {loss!r} at epoch {epoch}, scenario {scenario.id!r}")
                for name, g in grads.items():
                    prev = grad_sum.get(name)
                    grad_sum[name] = g if prev is None else prev + g
            grads, _ = reference_clip({name: g / len(batch) for name, g in grad_sum.items()}, tcfg.grad_clip_norm)
            values = optimizer.step(values, grads)
        report = evaluate(dataset, cfg, values)
        history.append(report)
        if metrics_out is not None:
            metrics_out.write(json.dumps(metrics_record(epoch, report)) + "\n")
    return TrainResult(params=values, history=history)


def reference_aggregate_metrics(per_scenario):
    """aggregate_metrics as a loop over (probabilities, labels, loss) triples, one scenario at a time."""
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
        preds = [1 if p >= 0.5 else 0 for p in probs]
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
