"""Tensor shape rules, op forward values, and gradients against central differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intent_graph import autodiff as ad
from intent_graph.autodiff import (
    GradientTape,
    ShapeError,
    TapeConsumedError,
    Tensor,
    finite_diff_check,
)
from intent_graph.graph import edge_weight, star_graph
from intent_graph.recurrent import GRUCellParams, gru_step

import reference_ops as ops


def test_scalar_and_vector_promotion():
    assert Tensor(3.0).shape == (1, 1)
    assert Tensor([1.0, 2.0, 3.0]).shape == (1, 3)
    assert Tensor([[1.0], [2.0]]).shape == (2, 1)


def test_rank_three_rejected():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2, 2)))


def test_dtype_is_float64():
    t = Tensor(np.array([1, 2], dtype=np.int32))
    assert t.data.dtype == np.float64


# -- forward values ----------------------------------------------------------


def test_matmul_value():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0], [6.0]])
    assert np.array_equal(ad.matmul(a, b).data, [[17.0], [39.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_elementwise_ops_values():
    a = Tensor([1.0, -2.0])
    b = Tensor([3.0, 4.0])
    assert np.array_equal(ad.add(a, b).data, [[4.0, 2.0]])
    assert np.array_equal(ops.sub(a, b).data, [[-2.0, -6.0]])
    assert np.array_equal(ops.hadamard(a, b).data, [[3.0, -8.0]])
    assert np.array_equal(ad.scale(a, -0.5).data, [[-0.5, 1.0]])
    assert np.allclose(ops.div(a, b).data, [[1 / 3, -0.5]])


def test_symmetric_scatter_values_gradient_and_checks():
    tape = GradientTape()
    u = tape.parameter("u", np.array([[0.25]]))
    v = tape.parameter("v", np.array([[0.5]]))
    out = ops.symmetric_scatter(Tensor(np.eye(3)), [(0, 1), (2, 1)], [u, v])
    assert np.array_equal(out.data, [[1.0, 0.25, 0.0], [0.25, 1.0, 0.5], [0.0, 0.5, 1.0]])
    g = np.arange(9.0).reshape(3, 3)
    grads = tape.backward(ops.sum_all(ops.hadamard(out, Tensor(g))))
    assert grads["u"].tolist() == [[g[0, 1] + g[1, 0]]]
    assert grads["v"].tolist() == [[g[2, 1] + g[1, 2]]]
    # no weights leaves the base untouched
    assert np.array_equal(ops.symmetric_scatter(Tensor(np.eye(2)), [], []).data, np.eye(2))
    for base, pairs, weights in [
        (Tensor(np.ones((2, 3))), [(0, 1)], [Tensor(0.5)]),  # not square
        (Tensor(np.eye(3)), [(0, 1)], []),  # count mismatch
        (Tensor(np.eye(3)), [(0, 1)], [Tensor([0.5, 0.5])]),  # weight not 1x1
        (Tensor(np.eye(3)), [(1, 1)], [Tensor(0.5)]),  # diagonal
        (Tensor(np.eye(3)), [(0, 3)], [Tensor(0.5)]),  # out of range
    ]:
        with pytest.raises(ShapeError):
            ops.symmetric_scatter(base, pairs, weights)
    with pytest.raises(ValueError, match="more than once"):
        ops.symmetric_scatter(Tensor(np.eye(3)), [(0, 1), (1, 0)], [Tensor(0.5), Tensor(0.5)])


def test_relu_subgradient_zero_at_zero():
    tape = GradientTape()
    x = tape.parameter("x", np.array([[-1.0, 0.0, 2.0]]))
    y = ops.sum_all(ops.relu(x))
    grads = tape.backward(y)
    assert np.array_equal(grads["x"], [[0.0, 0.0, 1.0]])


def test_sigmoid_extreme_logits_stay_finite():
    out = ops.sigmoid(Tensor([-800.0, 0.0, 800.0])).data
    assert np.all(np.isfinite(out))
    assert out[0, 1] == 0.5
    assert 0.0 <= out[0, 0] < 1e-300
    assert out[0, 2] == 1.0  # saturates in float64; must not overflow


def _masked_sigmoid(x):
    """The one-branch-per-sign form that sigmoid_values replaced, as a byte reference."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize(
    "x",
    [
        np.random.default_rng(0).standard_normal((64, 33)) * 4.0,
        np.random.default_rng(1).standard_normal((1, 2000)) * 300.0,
        np.array([[0.0, -0.0, 745.5, -745.5, 1e308, -1e308, 37.0, -37.0, 5e-324, -5e-324]]),
        np.zeros((1, 0)),
        np.zeros((0, 3)),
    ],
    ids=["rows", "wide-range", "specials", "0-width", "0-rows"],
)
def test_sigmoid_values_is_bytewise_the_masked_form(x):
    got, want = ad.sigmoid_values(x), _masked_sigmoid(x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_clamp_open_unit_values_and_identity_gradient():
    out = ops.clamp_open_unit(Tensor([0.0, 0.5, 1.0])).data
    assert 0.0 < out[0, 0] < 1e-300
    assert out[0, 1] == 0.5
    assert 0.999999999999999 < out[0, 2] < 1.0
    tape = GradientTape()
    x = tape.parameter("x", np.array([[0.0, 0.5, 1.0]]))
    grads = tape.backward(ops.sum_all(ops.clamp_open_unit(x)))
    assert np.array_equal(grads["x"], [[1.0, 1.0, 1.0]])


def test_concat_rows_and_width_zero():
    a = Tensor([1.0, 2.0])
    empty = ad.zeros(1, 0)
    assert np.array_equal(ad.concat_rows(empty, a).data, [[1.0, 2.0]])
    assert np.array_equal(ad.concat_rows(a, a).data, [[1.0, 2.0, 1.0, 2.0]])


def test_columns_cut_a_row_and_pad_the_gradient():
    tape = GradientTape()
    x = tape.parameter("x", np.array([[1.0, 2.0, 3.0]]))
    assert np.array_equal(ad.columns(x, 1, 3).data, [[2.0, 3.0]])
    assert ad.columns(x, 2, 2).shape == (1, 0)  # empty cut is legal
    with pytest.raises(ShapeError):
        ad.columns(x, 2, 4)
    grads = tape.backward(ops.sum_all(ops.hadamard(ad.columns(x, 1, 3), Tensor([[4.0, 5.0]]))))
    assert np.array_equal(grads["x"], [[0.0, 4.0, 5.0]])
    # cuts that split a row pass their gradients through exactly, even a zero's sign
    tape = GradientTape()
    x = tape.parameter("x", np.array([[1.0, 2.0, 3.0]]))
    halves = ad.concat_rows(ad.columns(x, 2, 3), ad.columns(x, 0, 2))
    g = tape.backward(ops.sum_all(ops.hadamard(halves, Tensor([[-0.0, 0.0, -0.0]]))))["x"]
    assert g.tobytes() == np.array([[0.0, -0.0, -0.0]]).tobytes()


def test_stack_slice_roundtrip():
    rows = [Tensor([1.0, 2.0]), Tensor([3.0, 4.0]), Tensor([5.0, 6.0])]
    stacked = ad.stack_rows(rows)
    assert stacked.shape == (3, 2)
    mid = ops.slice_rows(stacked, 1, 2)
    assert np.array_equal(mid.data, [[3.0, 4.0]])
    assert ops.slice_rows(stacked, 2, 2).shape == (0, 2)  # empty slice is legal
    with pytest.raises(ShapeError):
        ops.slice_rows(stacked, 1, 4)


def test_dot_and_mean_rows_and_sum_all():
    a = Tensor([1.0, 2.0, 3.0])
    b = Tensor([4.0, 5.0, 6.0])
    assert ops.dot(a, b).item() == 32.0
    m = Tensor([[1.0, 3.0], [5.0, 7.0]])
    assert np.array_equal(ad.mean_rows(m).data, [[3.0, 5.0]])
    assert ops.sum_all(m).item() == 16.0


def test_bce_frozen_values():
    # loss(z=0, y=1) = ln 2; loss(z=20, y=1) = log1p(exp(-20)) ~ 2.06e-9
    assert ad.bce_with_logits(Tensor(0.0), 1).item() == pytest.approx(math.log(2.0), abs=1e-15)
    assert ad.bce_with_logits(Tensor(20.0), 1).item() < 1e-8
    assert ad.bce_with_logits(Tensor(-20.0), 0).item() < 1e-8
    big = ad.bce_with_logits(Tensor(500.0), 0).item()
    assert big == pytest.approx(500.0, rel=1e-12)  # stable form, no exp overflow
    with pytest.raises(ValueError):
        ad.bce_with_logits(Tensor(0.0), 2)


def test_bce_gradient_is_sigmoid_minus_label():
    tape = GradientTape()
    z = tape.parameter("z", np.array([[0.3]]))
    grads = tape.backward(ad.bce_with_logits(z, 1))
    expect = 1.0 / (1.0 + math.exp(-0.3)) - 1.0
    assert grads["z"][0, 0] == pytest.approx(expect, rel=1e-12)


# -- tape semantics ----------------------------------------------------------


def test_backward_requires_scalar():
    tape = GradientTape()
    x = tape.parameter("x", np.ones((2, 2)))
    with pytest.raises(ShapeError):
        tape.backward(ops.relu(x))


def test_backward_twice_raises_then_reset_allows():
    tape = GradientTape()
    x = tape.parameter("x", np.array([[2.0]]))
    loss = ops.sum_all(ops.hadamard(x, x))
    first = tape.backward(loss)
    assert first["x"][0, 0] == 4.0
    with pytest.raises(TapeConsumedError):
        tape.backward(loss)
    tape.reset()
    x2 = tape.parameter("x", np.array([[3.0]]))
    again = tape.backward(ops.sum_all(ops.hadamard(x2, x2)))
    assert again["x"][0, 0] == 6.0


def test_untouched_parameter_gets_zero_gradient():
    tape = GradientTape()
    x = tape.parameter("x", np.array([[1.0]]))
    unused = tape.parameter("unused", np.ones((2, 3)))
    grads = tape.backward(ops.sum_all(x))
    assert np.array_equal(grads["unused"], np.zeros((2, 3)))
    assert unused.grad is not None


def test_duplicate_parameter_name_rejected():
    tape = GradientTape()
    tape.parameter("w", np.ones((1, 1)))
    with pytest.raises(ValueError):
        tape.parameter("w", np.ones((1, 1)))


def test_mixing_tapes_rejected():
    t1, t2 = GradientTape(), GradientTape()
    a = t1.parameter("a", np.ones((1, 2)))
    b = t2.parameter("b", np.ones((1, 2)))
    with pytest.raises(ValueError):
        ad.add(a, b)


def test_constants_do_not_need_a_tape():
    tape = GradientTape()
    x = tape.parameter("x", np.array([[1.0, 2.0]]))
    y = ad.add(x, ad.constant(np.array([[10.0, 20.0]])))
    grads = tape.backward(ops.sum_all(y))
    assert np.array_equal(grads["x"], [[1.0, 1.0]])


# -- gradients vs central differences ---------------------------------------

# Constant operands for the fused edge-scoring rows: three edges, a (1, 4)
# center from "a", projections into a width-4 edge space. The target side is
# positive (from "c" > 0), so its ReLU passes everything and the edges carry
# gradient whatever the draw.
_EDGE = np.random.default_rng(11)
_EDGE_REL = Tensor(_EDGE.standard_normal((3, 8)))
_EDGE_TGT = Tensor(_EDGE.uniform(0.1, 1.0, (3, 5)))
_EDGE_MIX_I = Tensor(_EDGE.standard_normal((12, 3)) * 0.2)
_EDGE_MIX_O = Tensor(_EDGE.uniform(0.0, 0.1, (5, 3)))


# Constant operands for the gru_step row: a cell with I = 1 and H = 3 whose
# three gate matrices are mixes of "b"; x and h are read off "a" and "c", and h
# is used again after the step.
_GRU = np.random.default_rng(12)
_GRU_MIX = [Tensor(_GRU.standard_normal((4, 4)) * 0.5) for _ in range(2)]
_GRU_X = Tensor(_GRU.standard_normal((4, 1)) * 0.5)
_GRU_H = Tensor(_GRU.standard_normal((4, 3)) * 0.1)


def _gru_loss(p):
    b = p["b"]
    cell = GRUCellParams(
        W_z=b,
        W_r=ad.matmul(_GRU_MIX[0], b),
        W_h=ad.matmul(_GRU_MIX[1], b),
        b_z=ad.mean_rows(b),
        b_r=ops.slice_rows(b, 0, 1),
        b_h=ops.slice_rows(b, 3, 4),
    )
    h = ad.matmul(ad.mean_rows(p["c"]), _GRU_H)
    out = gru_step(cell, ad.matmul(ad.mean_rows(p["a"]), _GRU_X), h)
    return ops.sum_all(ops.hadamard(out, h))


# Constant operands for the star_graph row: three objects of width 4 under a
# center read off "a"; spokes from "c" and the three pair weights from "a"
# squashed into (0, 1); a layer matrix from "b" used twice around a second
# one, with row normalisation, so every kind of use meets in one node.
_SG = np.random.default_rng(13)
_SG_OBJECTS = _SG.standard_normal((3, 4))
_SG_COL = [Tensor(_SG.standard_normal((4, 1)) * 0.5) for _ in range(2)]
_SG_MIX = [Tensor(_SG.standard_normal((3, 4)) * 0.5) for _ in range(2)]
_SG_OUT = Tensor(_SG.standard_normal((1, 8)))


def _star_graph_loss(p):
    w = ad.matmul(p["b"], _SG_MIX[0])
    out = star_graph(
        ad.mean_rows(p["a"]),
        _SG_OBJECTS,
        ops.sigmoid(ad.matmul(p["c"], _SG_COL[0])),
        ops.sigmoid(ad.matmul(p["a"], _SG_COL[1])),
        [w, ad.matmul(p["b"], _SG_MIX[1]), w],
        row_normalize=True,
    )
    return ops.sum_all(ops.hadamard(out, _SG_OUT))


def _central(f, params, h=1e-6):
    out = {}
    for name, v in params.items():
        g = np.zeros_like(v)
        for idx in np.ndindex(*v.shape):
            orig = v[idx]
            v[idx] = orig + h
            fp = f(params)
            v[idx] = orig - h
            fm = f(params)
            v[idx] = orig
            g[idx] = (fp - fm) / (2 * h)
        out[name] = g
    return out


def _loss_value(build):
    def f(params):
        tape = GradientTape()
        lifted = {k: tape.parameter(k, v) for k, v in params.items()}
        return build(lifted).item()

    return f


@pytest.mark.parametrize(
    "name,build",
    [
        ("matmul", lambda p: ops.sum_all(ad.matmul(p["a"], p["b"]))),
        ("hadamard", lambda p: ops.sum_all(ops.hadamard(p["a"], p["a"]))),
        ("div", lambda p: ops.sum_all(ops.div(p["a"], p["c"]))),
        ("sigmoid", lambda p: ops.sum_all(ops.sigmoid(p["a"]))),
        ("tanh", lambda p: ops.sum_all(ops.tanh(p["a"]))),
        ("mean_rows", lambda p: ops.sum_all(ad.mean_rows(ad.matmul(p["b"], p["a"])))),
        ("slice", lambda p: ops.sum_all(ops.slice_rows(ad.matmul(p["b"], p["a"]), 1, 3))),
        ("dot", lambda p: ops.dot(ad.mean_rows(p["a"]), ad.mean_rows(p["c"]))),
        (
            "symmetric_scatter",
            lambda p: ops.sum_all(
                ops.hadamard(
                    ad.matmul(p["a"], p["b"]),
                    ops.symmetric_scatter(
                        ad.matmul(p["c"], p["b"]),
                        [(0, 1), (2, 1)],
                        [
                            ops.dot(ad.mean_rows(p["a"]), ad.mean_rows(p["c"])),
                            ops.dot(ad.mean_rows(p["a"]), ad.mean_rows(p["a"])),
                        ],
                    ),
                )
            ),
        ),
        ("bce", lambda p: ad.bce_with_logits(ops.dot(ad.mean_rows(p["a"]), ad.mean_rows(p["c"])), 1)),
        (
            "edge_weight",
            lambda p: ops.sum_all(
                edge_weight(
                    ad.mean_rows(p["a"]),
                    _EDGE_REL,
                    _EDGE_TGT,
                    ad.matmul(_EDGE_MIX_I, p["a"]),
                    ad.matmul(_EDGE_MIX_O, p["c"]),
                )
            ),
        ),
        ("gru_step", lambda p: _gru_loss(p)),
        ("columns", lambda p: ops.sum_all(ad.columns(ad.matmul(p["a"], p["b"]), 1, 3))),
        ("star_graph", lambda p: _star_graph_loss(p)),
    ],
)
def test_op_gradients_match_central_differences(name, build):
    rng = np.random.default_rng(hash(name) % 2**32)
    params = {
        "a": rng.standard_normal((3, 4)),
        "b": rng.standard_normal((4, 3)),
        "c": rng.standard_normal((3, 4)) + 3.0,  # kept away from zero for div
    }
    tape = GradientTape()
    lifted = {k: tape.parameter(k, v) for k, v in params.items()}
    grads = tape.backward(build(lifted))
    numeric = _central(_loss_value(build), params)
    for key in params:
        assert np.allclose(grads[key], numeric[key], atol=1e-6), key


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_mlp_passes_finite_diff_check(seed):
    rng = np.random.default_rng(seed)
    params = {
        "w1": rng.standard_normal((3, 5)) * 0.5,
        "w2": rng.standard_normal((5, 1)) * 0.5,
        "x": rng.standard_normal((1, 3)),
    }

    def f(values):
        tape = GradientTape()
        p = {k: tape.parameter(k, v) for k, v in values.items()}
        h = ops.tanh(ad.matmul(p["x"], p["w1"]))
        return ad.bce_with_logits(ad.matmul(h, p["w2"]), 1)

    report = finite_diff_check(f, params)
    assert report.passed, report.to_dict()
    assert report.checked == 3 * 5 + 5 * 1 + 3
    assert report.max_rel_error <= report.tolerance


def test_finite_diff_check_requires_taped_loss():
    with pytest.raises(ValueError):
        finite_diff_check(lambda v: Tensor(1.0), {"w": np.ones((1, 1))})


def _nan_gradient_loss(values):
    """sum(w) whose hand-built backward returns NaN for every entry."""
    tape = GradientTape()
    w = tape.parameter("w", values["w"])
    return ad._emit(tape, (w,), np.array([[w.data.sum()]]), lambda g: (np.full(w.shape, np.nan),))


def _nan_difference_loss(values):
    """sum(w) with an exact backward, but NaN once w[0, 1] moves above 1."""
    tape = GradientTape()
    w = tape.parameter("w", values["w"])
    value = w.data.sum() if w.data[0, 1] <= 1.0 else np.nan
    return ad._emit(tape, (w,), np.array([[value]]), lambda g: (np.full(w.shape, g[0, 0]),))


@pytest.mark.parametrize(
    "f,where", [(_nan_gradient_loss, (0, 0)), (_nan_difference_loss, (0, 1))], ids=["nan_gradient", "nan_difference"]
)
def test_finite_diff_check_fails_on_nan(f, where):
    report = finite_diff_check(f, {"w": np.ones((1, 3))})
    assert not report.passed
    assert report.max_rel_error == math.inf
    assert (report.worst_param, report.worst_index) == ("w", where)
    assert report.checked == 3


def test_operator_sugar_matches_functions():
    tape = GradientTape()
    x = tape.parameter("x", np.array([[1.0, 2.0]]))
    y = tape.parameter("y", np.array([[3.0, 4.0]]))
    combined = ops.sum_all(ops.sub(ops.hadamard(x + y, y), -x))
    grads = tape.backward(combined)
    # d/dx [(x+y)y + x] = y + 1, d/dy = x + 2y
    assert np.array_equal(grads["x"], [[4.0, 5.0]])
    assert np.array_equal(grads["y"], [[7.0, 10.0]])
