"""Dense rank-<=2 float64 tensors with reverse-mode automatic differentiation.

A GradientTape records one node per primitive operation in construction
order, which is already a topological order, so backward() simply walks the
node list in reverse and accumulates gradients into every named parameter
registered on the tape. Parameters the loss never touched come back with an
all-zero gradient.

All arithmetic is 64-bit; the finite-difference tolerances used by
finite_diff_check are not reliable in 32-bit. Forward ops are pure functions
of their inputs. A tape and the tensors recorded on it belong to a single
thread.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class TapeConsumedError(RuntimeError):
    """backward() was called a second time on a tape without reset()."""


class Tensor:
    """A (rows, cols) float64 array, optionally recorded on a GradientTape.

    Scalars are stored 1x1 and row vectors 1xn. Constants carry tape=None;
    parameters and everything computed from them carry the tape they were
    recorded on. ``grad`` is populated by GradientTape.backward for
    parameters only.
    """

    __slots__ = ("data", "tape", "grad")

    def __init__(self, data, tape: "GradientTape | None" = None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, arr.size)
        elif arr.ndim != 2:
            raise ShapeError(f"tensors are rank <= 2, got array of shape {arr.shape}")
        self.data = arr
        self.tape = tape
        self.grad: Array | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def tolist(self) -> list[list[float]]:
        return self.data.tolist()

    def __repr__(self) -> str:
        return f"Tensor({self.data.tolist()!r})"

    # Operator sugar; the module-level functions are the canonical ops.
    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, c: float) -> "Tensor":
        return scale(self, float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return scale(self, -1.0)


# A node is (inputs, output, backward_fn); backward_fn maps the gradient at
# the output to one gradient per input (None for inputs that need none).
_Node = tuple[tuple[Tensor, ...], Tensor, Callable[[Array], tuple[Array | None, ...]]]


class GradientTape:
    """Ordered record of operations plus the named parameters they read."""

    def __init__(self) -> None:
        self._nodes: list[_Node] = []
        self._params: dict[str, Tensor] = {}
        self._consumed = False

    @property
    def consumed(self) -> bool:
        return self._consumed

    def parameter(self, name: str, value) -> Tensor:
        """Register a named parameter and return its tensor on this tape."""
        if name in self._params:
            raise ValueError(f"parameter {name!r} already registered on this tape")
        t = Tensor(value, tape=self)
        self._params[name] = t
        return t

    def parameters(self) -> Mapping[str, Tensor]:
        return dict(self._params)

    def record(self, inputs: tuple[Tensor, ...], output: Tensor, backward_fn) -> None:
        self._nodes.append((inputs, output, backward_fn))

    def reset(self) -> None:
        """Clear recorded operations so the tape can run a fresh pass."""
        self._nodes.clear()
        self._params.clear()
        self._consumed = False

    def backward(self, loss: Tensor) -> dict[str, Array]:
        """Accumulate d(loss)/d(parameter) for every registered parameter.

        ``loss`` must be a 1x1 tensor recorded on this tape. Raises
        TapeConsumedError if called twice without reset(): silently running a
        second backward would accumulate stale gradients.
        """
        if self._consumed:
            raise TapeConsumedError("tape already consumed by backward(); call reset()")
        if loss.tape is not self:
            raise ValueError("loss tensor was not recorded on this tape")
        if loss.shape != (1, 1):
            raise ShapeError(f"backward needs a scalar (1x1) loss, got {loss.shape}")
        self._consumed = True

        grads: dict[int, Array] = {id(loss): np.ones((1, 1))}
        for inputs, output, backward_fn in reversed(self._nodes):
            g = grads.pop(id(output), None)
            if g is None:
                continue  # this node does not feed the loss
            for inp, gi in zip(inputs, backward_fn(g)):
                if gi is None or inp.tape is None:
                    continue
                prev = grads.get(id(inp))
                grads[id(inp)] = gi if prev is None else prev + gi

        out: dict[str, Array] = {}
        for name, p in self._params.items():
            g = grads.get(id(p))
            p.grad = np.zeros_like(p.data) if g is None else g
            out[name] = p.grad
        return out


def backward(loss: Tensor) -> dict[str, Array]:
    """Run reverse-mode accumulation on the tape that produced ``loss``."""
    if loss.tape is None:
        raise ValueError("loss is a constant; nothing to differentiate")
    return loss.tape.backward(loss)


def constant(values) -> Tensor:
    return Tensor(values, tape=None)


def zeros(rows: int, cols: int) -> Tensor:
    return Tensor(np.zeros((rows, cols)))


def _joint_tape(*tensors: Tensor) -> "GradientTape | None":
    tape = None
    for t in tensors:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ValueError("operands were recorded on different tapes")
    return tape


def _emit(tape, inputs: tuple[Tensor, ...], data: Array, backward_fn) -> Tensor:
    out = Tensor(data, tape=tape)
    if tape is not None:
        tape.record(inputs, out, backward_fn)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product a @ b."""
    if a.cols != b.rows:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data

    def bwd(g: Array):
        return g @ bd.T, ad.T @ g

    return _emit(_joint_tape(a, b), (a, b), ad @ bd, bwd)


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes differ, {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("add", a, b)
    return _emit(_joint_tape(a, b), (a, b), a.data + b.data, lambda g: (g, g))


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply every entry by the Python scalar ``c``."""
    c = float(c)
    return _emit(a.tape, (a,), a.data * c, lambda g: (g * c,))


def symmetric_scatter(
    base: Tensor, pairs: Sequence[tuple[int, int]], weights: Sequence[Tensor]
) -> Tensor:
    """Add weight k to square ``base`` at (i, j) and (j, i) for ``pairs[k] = (i, j)``.

    ``weights`` are (m, 1) columns (a 1x1 weight is a column of one) whose
    rows, in order, line up with ``pairs``. Pairs must be off-diagonal and
    each unordered pair may appear once, so no entry receives two weights
    and the gradient of weight k is exactly g[i, j] + g[j, i].
    """
    n = base.rows
    if base.cols != n:
        raise ShapeError(f"symmetric_scatter: base must be square, got {base.shape}")
    for w in weights:
        if w.cols != 1:
            raise ShapeError(f"symmetric_scatter: weights must be columns, got {w.shape}")
    rows = [w.rows for w in weights]
    if len(pairs) != sum(rows):
        raise ShapeError(f"symmetric_scatter: {len(pairs)} pairs but {sum(rows)} weights")
    values = [v for w in weights for v in w.data[:, 0].tolist()]
    out = base.data.copy()
    seen: set[tuple[int, int]] = set()
    for (i, j), v in zip(pairs, values):
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ShapeError(f"symmetric_scatter: pair {(i, j)} is not off-diagonal in {base.shape}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"symmetric_scatter: pair {key} appears more than once")
        seen.add(key)
        out[i, j] += v
        out[j, i] += v
    ends = list(itertools.accumulate(rows))

    def bwd(g: Array):
        i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        flat = (g[i, j] + g[j, i]).reshape(-1, 1)
        return (g, *(flat[end - r : end] for end, r in zip(ends, rows)))

    return _emit(_joint_tape(base, *weights), (base, *weights), out, bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise quotient of same-shape tensors."""
    _require_same_shape("div", a, b)
    ad, bd = a.data, b.data

    def bwd(g: Array):
        return g / bd, -g * ad / (bd * bd)

    return _emit(_joint_tape(a, b), (a, b), ad / bd, bwd)


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is taken to be 0."""
    mask = a.data > 0
    return _emit(a.tape, (a,), np.where(mask, a.data, 0.0), lambda g: (g * mask,))


def sigmoid_values(x: Array) -> Array:
    """Numerically stable elementwise logistic function on a plain array."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two row vectors: (1,p) ++ (1,q) -> (1,p+q). p or q may be 0."""
    if a.rows != 1 or b.rows != 1:
        raise ShapeError(f"concat_rows expects row vectors, got {a.shape} and {b.shape}")
    p = a.cols

    def bwd(g: Array):
        return g[:, :p], g[:, p:]

    return _emit(_joint_tape(a, b), (a, b), np.concatenate([a.data, b.data], axis=1), bwd)


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack row vectors of equal width into an (m, n) matrix."""
    if not rows:
        raise ShapeError("stack_rows needs at least one row")
    width = rows[0].cols
    for r in rows:
        if r.rows != 1 or r.cols != width:
            raise ShapeError(f"stack_rows: every row must be (1, {width}), got {r.shape}")

    def bwd(g: Array):
        return tuple(g[i : i + 1, :] for i in range(len(rows)))

    return _emit(_joint_tape(*rows), tuple(rows), np.vstack([r.data for r in rows]), bwd)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows start:stop of ``a`` as a new tensor."""
    if not (0 <= start <= stop <= a.rows):
        raise ShapeError(f"slice_rows: [{start}:{stop}] out of range for {a.shape}")
    shape = a.shape

    def bwd(g: Array):
        full = np.zeros(shape)
        full[start:stop, :] = g
        return (full,)

    return _emit(a.tape, (a,), a.data[start:stop, :].copy(), bwd)


def mean_rows(a: Tensor) -> Tensor:
    """Arithmetic mean over rows: (m, n) -> (1, n)."""
    m = a.rows
    if m == 0:
        raise ShapeError("mean_rows needs at least one row")

    def bwd(g: Array):
        return (np.repeat(g / m, m, axis=0),)

    return _emit(a.tape, (a,), a.data.mean(axis=0, keepdims=True), bwd)


def bce_with_logits(logit: Tensor, label: int) -> Tensor:
    """Binary cross-entropy of a single logit against a {0,1} label.

    Evaluated in the overflow-safe form max(z,0) - z*y + log1p(exp(-|z|)),
    so saturated logits neither overflow nor lose the gradient sigma(z) - y.
    """
    if logit.shape != (1, 1):
        raise ShapeError(f"bce_with_logits needs a 1x1 logit, got {logit.shape}")
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    z = float(logit.data[0, 0])
    value = max(z, 0.0) - z * label + math.log1p(math.exp(-abs(z)))
    dz = float(sigmoid_values(np.array([[z]]))[0, 0]) - label

    def bwd(g: Array):
        return (g * dz,)

    return _emit(logit.tape, (logit,), np.array([[value]]), bwd)


@dataclass
class GradCheckReport:
    """Outcome of comparing tape gradients against central differences."""

    max_rel_error: float
    worst_param: str | None
    worst_index: tuple[int, int] | None
    tolerance: float
    step: float
    checked: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "max_rel_error": self.max_rel_error,
            "worst_param": self.worst_param,
            "worst_index": list(self.worst_index) if self.worst_index else None,
            "tolerance": self.tolerance,
            "step": self.step,
            "checked": self.checked,
            "passed": self.passed,
        }


def finite_diff_check(
    f: Callable[[Mapping[str, Array]], Tensor],
    params: Mapping[str, Array],
    h: float = 1e-5,
    tol: float = 1e-4,
    denom_floor: float = 1e-3,
) -> GradCheckReport:
    """Compare tape gradients of ``f`` against central finite differences.

    ``f`` maps a {name: array} parameter assignment to a scalar loss tensor
    built on a fresh tape with those same names registered. Every coordinate
    of every parameter is perturbed by +/- h. The relative error denominator
    is floored at ``denom_floor`` so coordinates whose true gradient is ~0
    (where central differences bottom out in rounding noise around 1e-11)
    cannot dominate the report; any genuine backward bug still shows up far
    above ``tol``. A NaN or infinite error (a NaN gradient or a NaN loss
    difference) counts as infinite, so it fails the check and is the one
    the report names.
    """
    base = {name: np.array(v, dtype=np.float64) for name, v in params.items()}
    loss = f(base)
    if loss.tape is None:
        raise ValueError("f must build its loss on a GradientTape")
    analytic = loss.tape.backward(loss)
    missing = set(base) - set(analytic)
    if missing:
        raise ValueError(f"f did not register parameters: {sorted(missing)}")

    worst = 0.0
    worst_param: str | None = None
    worst_index: tuple[int, int] | None = None
    checked = 0
    for name in base:
        values = base[name]
        grad = analytic[name]
        for idx in np.ndindex(*values.shape):
            orig = values[idx]
            values[idx] = orig + h
            f_plus = f(base).item()
            values[idx] = orig - h
            f_minus = f(base).item()
            values[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(grad[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), denom_floor)
            if not math.isfinite(rel):
                rel = math.inf
            checked += 1
            if rel > worst:
                worst, worst_param, worst_index = rel, name, (int(idx[0]), int(idx[1]))
    return GradCheckReport(
        max_rel_error=worst,
        worst_param=worst_param,
        worst_index=worst_index,
        tolerance=tol,
        step=h,
        checked=checked,
        passed=worst <= tol,
    )
