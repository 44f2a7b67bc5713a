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
from intent_graph.graph import EdgeWeightParams, edge_weight, location_centric_edge


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
    assert np.array_equal(ad.sub(a, b).data, [[-2.0, -6.0]])
    assert np.array_equal(ad.hadamard(a, b).data, [[3.0, -8.0]])
    assert np.array_equal(ad.scale(a, -0.5).data, [[-0.5, 1.0]])
    assert np.allclose(ad.div(a, b).data, [[1 / 3, -0.5]])


def test_symmetric_scatter_values_gradient_and_checks():
    tape = GradientTape()
    u = tape.parameter("u", np.array([[0.25]]))
    v = tape.parameter("v", np.array([[0.5]]))
    out = ad.symmetric_scatter(Tensor(np.eye(3)), [(0, 1), (2, 1)], [u, v])
    assert np.array_equal(out.data, [[1.0, 0.25, 0.0], [0.25, 1.0, 0.5], [0.0, 0.5, 1.0]])
    g = np.arange(9.0).reshape(3, 3)
    grads = tape.backward(ad.sum_all(ad.hadamard(out, Tensor(g))))
    assert grads["u"].tolist() == [[g[0, 1] + g[1, 0]]]
    assert grads["v"].tolist() == [[g[2, 1] + g[1, 2]]]
    # no weights leaves the base untouched
    assert np.array_equal(ad.symmetric_scatter(Tensor(np.eye(2)), [], []).data, np.eye(2))
    for base, pairs, weights in [
        (Tensor(np.ones((2, 3))), [(0, 1)], [Tensor(0.5)]),  # not square
        (Tensor(np.eye(3)), [(0, 1)], []),  # count mismatch
        (Tensor(np.eye(3)), [(0, 1)], [Tensor([0.5, 0.5])]),  # weight not 1x1
        (Tensor(np.eye(3)), [(1, 1)], [Tensor(0.5)]),  # diagonal
        (Tensor(np.eye(3)), [(0, 3)], [Tensor(0.5)]),  # out of range
    ]:
        with pytest.raises(ShapeError):
            ad.symmetric_scatter(base, pairs, weights)
    with pytest.raises(ValueError, match="more than once"):
        ad.symmetric_scatter(Tensor(np.eye(3)), [(0, 1), (1, 0)], [Tensor(0.5), Tensor(0.5)])


def test_relu_subgradient_zero_at_zero():
    tape = GradientTape()
    x = tape.parameter("x", np.array([[-1.0, 0.0, 2.0]]))
    y = ad.sum_all(ad.relu(x))
    grads = tape.backward(y)
    assert np.array_equal(grads["x"], [[0.0, 0.0, 1.0]])


def test_sigmoid_extreme_logits_stay_finite():
    out = ad.sigmoid(Tensor([-800.0, 0.0, 800.0])).data
    assert np.all(np.isfinite(out))
    assert out[0, 1] == 0.5
    assert 0.0 <= out[0, 0] < 1e-300
    assert out[0, 2] == 1.0  # saturates in float64; must not overflow


def test_clamp_open_unit_values_and_identity_gradient():
    out = ad.clamp_open_unit(Tensor([0.0, 0.5, 1.0])).data
    assert 0.0 < out[0, 0] < 1e-300
    assert out[0, 1] == 0.5
    assert 0.999999999999999 < out[0, 2] < 1.0
    tape = GradientTape()
    x = tape.parameter("x", np.array([[0.0, 0.5, 1.0]]))
    grads = tape.backward(ad.sum_all(ad.clamp_open_unit(x)))
    assert np.array_equal(grads["x"], [[1.0, 1.0, 1.0]])


def test_concat_rows_and_width_zero():
    a = Tensor([1.0, 2.0])
    empty = ad.zeros(1, 0)
    assert np.array_equal(ad.concat_rows(empty, a).data, [[1.0, 2.0]])
    assert np.array_equal(ad.concat_rows(a, a).data, [[1.0, 2.0, 1.0, 2.0]])


def test_stack_slice_roundtrip():
    rows = [Tensor([1.0, 2.0]), Tensor([3.0, 4.0]), Tensor([5.0, 6.0])]
    stacked = ad.stack_rows(rows)
    assert stacked.shape == (3, 2)
    mid = ad.slice_rows(stacked, 1, 2)
    assert np.array_equal(mid.data, [[3.0, 4.0]])
    assert ad.slice_rows(stacked, 2, 2).shape == (0, 2)  # empty slice is legal
    with pytest.raises(ShapeError):
        ad.slice_rows(stacked, 1, 4)


def test_dot_and_mean_rows_and_sum_all():
    a = Tensor([1.0, 2.0, 3.0])
    b = Tensor([4.0, 5.0, 6.0])
    assert ad.dot(a, b).item() == 32.0
    m = Tensor([[1.0, 3.0], [5.0, 7.0]])
    assert np.array_equal(ad.mean_rows(m).data, [[3.0, 5.0]])
    assert ad.sum_all(m).item() == 16.0


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
        tape.backward(ad.relu(x))


def test_backward_twice_raises_then_reset_allows():
    tape = GradientTape()
    x = tape.parameter("x", np.array([[2.0]]))
    loss = ad.sum_all(ad.hadamard(x, x))
    first = tape.backward(loss)
    assert first["x"][0, 0] == 4.0
    with pytest.raises(TapeConsumedError):
        tape.backward(loss)
    tape.reset()
    x2 = tape.parameter("x", np.array([[3.0]]))
    again = tape.backward(ad.sum_all(ad.hadamard(x2, x2)))
    assert again["x"][0, 0] == 6.0


def test_untouched_parameter_gets_zero_gradient():
    tape = GradientTape()
    x = tape.parameter("x", np.array([[1.0]]))
    unused = tape.parameter("unused", np.ones((2, 3)))
    grads = tape.backward(ad.sum_all(x))
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
    grads = tape.backward(ad.sum_all(y))
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
_EDGE_MIX_C = Tensor(_EDGE.standard_normal((4, 3)) * 0.2)
_EDGE_MIX_O = Tensor(_EDGE.uniform(0.0, 0.1, (5, 3)))


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
        ("matmul", lambda p: ad.sum_all(ad.matmul(p["a"], p["b"]))),
        ("hadamard", lambda p: ad.sum_all(ad.hadamard(p["a"], p["a"]))),
        ("div", lambda p: ad.sum_all(ad.div(p["a"], p["c"]))),
        ("sigmoid", lambda p: ad.sum_all(ad.sigmoid(p["a"]))),
        ("tanh", lambda p: ad.sum_all(ad.tanh(p["a"]))),
        ("mean_rows", lambda p: ad.sum_all(ad.mean_rows(ad.matmul(p["b"], p["a"])))),
        ("slice", lambda p: ad.sum_all(ad.slice_rows(ad.matmul(p["b"], p["a"]), 1, 3))),
        ("dot", lambda p: ad.dot(ad.mean_rows(p["a"]), ad.mean_rows(p["c"]))),
        (
            "symmetric_scatter",
            lambda p: ad.sum_all(
                ad.hadamard(
                    ad.matmul(p["a"], p["b"]),
                    ad.symmetric_scatter(
                        ad.matmul(p["c"], p["b"]),
                        [(0, 1), (2, 1)],
                        [
                            ad.dot(ad.mean_rows(p["a"]), ad.mean_rows(p["c"])),
                            ad.dot(ad.mean_rows(p["a"]), ad.mean_rows(p["a"])),
                        ],
                    ),
                )
            ),
        ),
        ("bce", lambda p: ad.bce_with_logits(ad.dot(ad.mean_rows(p["a"]), ad.mean_rows(p["c"])), 1)),
        (
            "edge_weight",
            lambda p: ad.sum_all(
                edge_weight(
                    ad.mean_rows(p["a"]),
                    _EDGE_REL,
                    _EDGE_TGT,
                    EdgeWeightParams(ad.matmul(_EDGE_MIX_I, p["a"]), ad.matmul(_EDGE_MIX_O, p["c"])),
                )
            ),
        ),
        (
            "location_centric_edge",
            lambda p: ad.sum_all(
                location_centric_edge(
                    ad.mean_rows(p["a"]),
                    _EDGE_TGT,
                    EdgeWeightParams(ad.matmul(_EDGE_MIX_C, p["a"]), ad.matmul(_EDGE_MIX_O, p["c"])),
                )
            ),
        ),
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
        h = ad.tanh(ad.matmul(p["x"], p["w1"]))
        return ad.bce_with_logits(ad.matmul(h, p["w2"]), 1)

    report = finite_diff_check(f, params)
    assert report.passed, report.to_dict()
    assert report.checked == 3 * 5 + 5 * 1 + 3
    assert report.max_rel_error <= report.tolerance


def test_finite_diff_check_requires_taped_loss():
    with pytest.raises(ValueError):
        finite_diff_check(lambda v: Tensor(1.0), {"w": np.ones((1, 1))})


def test_operator_sugar_matches_functions():
    tape = GradientTape()
    x = tape.parameter("x", np.array([[1.0, 2.0]]))
    y = tape.parameter("y", np.array([[3.0, 4.0]]))
    combined = ad.sum_all((x + y) * y - (-x))
    grads = tape.backward(combined)
    # d/dx [(x+y)y + x] = y + 1, d/dy = x + 2y
    assert np.array_equal(grads["x"], [[4.0, 5.0]])
    assert np.array_equal(grads["y"], [[7.0, 10.0]])
