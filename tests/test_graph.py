"""Edge weights, adjacency assembly, and graph convolution.

The frozen constants below are hand-derived:

edge weight: ped box (0,0,2,2) and object box (1,1,3,3) give the relation
[1,1,1,1,1,1,3,3]; with v_a=[1,-1] the concatenated v_i sums to 12, so a
proj_i of (+0.1 | -0.1) columns gives ReLU([1.2,-1.2]) = [1.2, 0]. With
v_o=[0.5,2] and proj_o=[[1,1],[0.5,-1]], ReLU([1.5,-1.5]) = [1.5, 0];
the inner product is 1.8 and sigmoid(1.8) = 0.8581489350995123.

one conv layer, one object: A=[[1,.5],[.5,1]], X=[[1,2],[3,-1]],
W=[[1,0],[2,1]] gives AX=[[2.5,1.5],[3.5,0]] and AXW=[[5.5,1.5],[3.5,0]].
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intent_graph import autodiff as ad
from intent_graph import model
from intent_graph.autodiff import GradientTape, ShapeError, Tensor, finite_diff_check
from intent_graph.data import SynthConfig, generate_synthetic
from intent_graph.graph import (
    EdgeWeightParams,
    GraphConvParams,
    build_adjacency,
    context_vector,
    edge_weight,
    graph_conv,
    star_graph,
)
from intent_graph.model import ModelConfig, init_parameters
from intent_graph.scene import CATEGORY_COUNT

import reference_ops as ops

SIGMOID_1_8 = 0.8581489350995123


def _edge_params(tape=None):
    proj_i = np.hstack([np.full((10, 1), 0.1), np.full((10, 1), -0.1)])
    proj_o = np.array([[1.0, 1.0], [0.5, -1.0]])
    if tape is None:
        return EdgeWeightParams(Tensor(proj_i), Tensor(proj_o))
    return EdgeWeightParams(tape.parameter("proj_i", proj_i), tape.parameter("proj_o", proj_o))


# the frozen hand instance as a block of one edge: the relation of box
# (1, 1, 3, 3) to box (0, 0, 2, 2)
REL = Tensor([[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 3.0, 3.0]])


def test_edge_weight_frozen_value():
    w = edge_weight(Tensor([1.0, -1.0]), REL, Tensor([0.5, 2.0]), _edge_params())
    assert w.shape == (1, 1)
    assert w.item() == pytest.approx(SIGMOID_1_8, abs=1e-15)


def test_edge_weight_gradient_reaches_both_projections():
    def f(values):
        tape = GradientTape()
        p = EdgeWeightParams(
            tape.parameter("proj_i", values["proj_i"]),
            tape.parameter("proj_o", values["proj_o"]),
        )
        return edge_weight(Tensor([1.0, -1.0]), REL, Tensor([0.5, 2.0]), p)

    report = finite_diff_check(
        f, {"proj_i": _edge_params().proj_i.data, "proj_o": _edge_params().proj_o.data}
    )
    assert report.passed, report.to_dict()


def _rows(t: Tensor) -> list[Tensor]:
    return [Tensor(t.data[m : m + 1]) for m in range(t.rows)]


@pytest.mark.parametrize("case", ["taped_center", "constant_block", "no_edges", "object_class"])
def test_fused_edge_scores_are_bytewise_the_per_edge_chain(case):
    rng = np.random.default_rng(7)
    m = 0 if case == "no_edges" else 6
    dc, de = 5, 4
    do = dc + (CATEGORY_COUNT if case == "object_class" else 0)
    params = {
        "proj_i": rng.standard_normal((dc + 8, de)) * 0.6,
        "proj_o": rng.standard_normal((do, de)) * 0.6,
        "center": rng.standard_normal((1, dc)),
    }
    block = rng.standard_normal((m, dc))
    rel = Tensor(rng.standard_normal((m, 8)))
    tgt = Tensor(rng.standard_normal((m, do)))
    scatter = Tensor(rng.standard_normal((m + 1, m + 1)))

    def run(fused: bool):
        tape = GradientTape()
        p = EdgeWeightParams(tape.parameter("proj_i", params["proj_i"]), tape.parameter("proj_o", params["proj_o"]))
        center = tape.parameter("center", params["center"])
        src = Tensor(block) if case == "constant_block" else center
        if fused:
            w = edge_weight(src, rel, tgt, p)
            weights, values = [w], w.data
        else:
            src_rows = _rows(src) if src.rows == m else [src] * m
            weights = ops.edge_weight_chain(src_rows, _rows(rel), _rows(tgt), p)
            values = np.array([w.data[0] for w in weights]).reshape(m, 1)
        # the center also reaches the loss outside edge scoring, as in the model
        x = ad.stack_rows([center, *(Tensor(r) for r in block)])
        z = ad.matmul(build_adjacency(weights), x)
        loss = ad.add(ops.sum_all(ops.hadamard(z, ad.matmul(scatter, x))), ops.sum_all(center))
        return values, tape.backward(loss)

    (got, got_grads), (want, want_grads) = run(True), run(False)
    assert got.shape == (m, 1)
    assert got.tobytes() == want.tobytes()
    assert set(got_grads) == set(want_grads)
    for name in want_grads:
        assert got_grads[name].tobytes() == want_grads[name].tobytes(), name
    assert m == 0 or np.any(got_grads["proj_i"] != 0.0)


def test_edge_block_rejects_bad_shapes_and_taped_targets():
    p = _edge_params()
    two = Tensor(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        edge_weight(Tensor(np.ones((3, 2))), Tensor(np.ones((2, 8))), two, p)  # 3 sources, 2 targets
    with pytest.raises(ShapeError):
        edge_weight(Tensor([1.0, -1.0]), Tensor(np.ones((2, 7))), two, p)
    with pytest.raises(ShapeError):
        edge_weight(Tensor([1.0, -1.0, 0.0]), Tensor(np.ones((2, 8))), two, p)
    tape = GradientTape()
    with pytest.raises(ValueError, match="constants"):
        edge_weight(Tensor([1.0, -1.0]), Tensor(np.ones((2, 8))), tape.parameter("t", np.ones((2, 2))), p)


@pytest.mark.parametrize("mode,per_frame", [("star", 1), ("fully_connected", 2)])
def test_one_scoring_node_per_edge_block(monkeypatch, mode, per_frame):
    cfg = ModelConfig(D=6, D_e=5, hidden=6, T=3, K=2, graph_mode=mode, spatial_scale=1 / 1280)
    scenario = generate_synthetic(
        SynthConfig(n_scenarios=1, frames_per_scenario=5, D=6, seed=3, vehicle_count_range=(2, 4))
    )[0]
    tape = _CountingTape()
    recorded = []

    def counted(*args):
        before = tape.recorded
        out = edge_weight(*args)
        recorded.append((tape.recorded - before, out.rows))
        return out

    monkeypatch.setattr(model, "edge_weight", counted)
    model.forward_logits(scenario, cfg, init_parameters(cfg), tape=tape)
    assert len(recorded) == per_frame * cfg.T
    assert all(nodes == 1 for nodes, _ in recorded)
    assert sum(rows for _, rows in recorded) > len(recorded)  # blocks, not single edges


def test_edge_params_width_mismatch():
    with pytest.raises(ValueError):
        EdgeWeightParams(Tensor(np.ones((10, 2))), Tensor(np.ones((2, 3))))


def test_saturating_edge_score_still_yields_a_valid_weight():
    # a huge inner product would round sigmoid to exactly 1.0; the weight
    # must stay strictly inside (0,1) so adjacency assembly accepts it
    p = EdgeWeightParams(Tensor(np.full((10, 2), 50.0)), Tensor(np.full((2, 2), 50.0)))
    w = edge_weight(Tensor([1.0, 1.0]), REL, Tensor([1.0, 1.0]), p)
    assert 0.0 < w.item() < 1.0
    build_adjacency([w])


# -- adjacency ----------------------------------------------------------------


def _w(v: float) -> Tensor:
    return Tensor(np.array([[v]]))


def test_star_adjacency_layout():
    a = build_adjacency([_w(0.5), _w(0.25)]).data
    want = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.0], [0.25, 0.0, 1.0]])
    assert np.array_equal(a, want)


def test_adjacency_rejects_out_of_range_weights():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError, match="open interval"):
            build_adjacency([_w(bad)])
        with pytest.raises(ValueError, match="edge weight 1 outside the open interval"):
            build_adjacency([Tensor([[0.5], [bad]])])


def test_adjacency_rejects_non_scalar_weight():
    with pytest.raises(ValueError):
        build_adjacency([Tensor([0.5, 0.5])])


def test_fully_connected_needs_every_pair():
    weights = [_w(0.5), _w(0.5), _w(0.5)]
    pairs = [_w(0.3), _w(0.3)]  # (0, 1) and (0, 2); (1, 2) missing
    with pytest.raises(ValueError, match="per object pair"):
        build_adjacency(weights, mode="fully_connected", pair_weights=pairs)
    with pytest.raises(ValueError, match="per object pair"):
        build_adjacency([Tensor(np.full((3, 1), 0.5))], mode="fully_connected")
    pairs.append(_w(0.9))
    a = build_adjacency(weights, mode="fully_connected", pair_weights=pairs).data
    assert a[2, 3] == a[3, 2] == 0.9
    assert a[1, 2] == a[2, 1] == 0.3


def test_pair_weights_rejected_in_star_mode():
    with pytest.raises(ValueError, match="fully_connected"):
        build_adjacency([_w(0.5)], mode="star", pair_weights=[_w(0.5)])


def test_row_normalized_rows_sum_to_one():
    a = build_adjacency([_w(0.5), _w(0.25)], row_normalize=True).data
    assert np.allclose(a.sum(axis=1), 1.0)


class _CountingTape(GradientTape):
    def __init__(self):
        super().__init__()
        self.recorded = 0

    def record(self, inputs, output, backward_fn):
        self.recorded += 1
        super().record(inputs, output, backward_fn)


_UNIT = st.floats(1e-6, 1 - 1e-6, allow_nan=False)


@settings(max_examples=50, deadline=None)
@given(st.lists(_UNIT, min_size=1, max_size=6), st.sampled_from(["star", "fully_connected"]), st.data())
def test_star_adjacency_invariants(raw, mode, data):
    n = len(raw)
    tape = _CountingTape()
    weights = [tape.parameter(f"w{j}", [[v]]) for j, v in enumerate(raw)]
    want = np.eye(n + 1)
    want[0, 1:] = want[1:, 0] = raw
    pair_weights = None
    if mode == "fully_connected":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        values = data.draw(st.lists(_UNIT, min_size=len(pairs), max_size=len(pairs)))
        pair_weights = []
        for (i, j), v in zip(pairs, values):
            pair_weights.append(tape.parameter(f"p{i}_{j}", [[v]]))
            want[i + 1, j + 1] = want[j + 1, i + 1] = v
    a = build_adjacency(weights, mode=mode, pair_weights=pair_weights)
    assert tape.recorded == 1  # one assembly node, whatever N and the pair count
    assert a.data.shape == (n + 1, n + 1)
    assert np.array_equal(a.data, a.data.T)
    assert np.array_equal(np.diag(a.data), np.ones(n + 1))
    # every off-diagonal entry is exactly a given weight (or 0 off the edge set)
    assert np.array_equal(a.data, want)
    off = a.data - np.diag(np.diag(a.data))
    nz = off[off != 0]
    assert np.all((nz > 0) & (nz < 1))


def test_adjacency_is_differentiable_in_the_weights():
    def f(values):
        tape = GradientTape()
        raw = tape.parameter("raw", values["raw"])
        w1 = ops.sigmoid(ad.slice_rows(ad.matmul(ad.constant(np.array([[1.0]])), raw), 0, 1))
        # two weights derived from the same parameter row
        w_a = ops.sigmoid(ops.dot(raw, ad.constant(np.array([[1.0, 2.0]]))))
        w_b = ops.sigmoid(ops.dot(raw, ad.constant(np.array([[-1.0, 0.5]]))))
        a = build_adjacency([w_a, w_b])
        x = ad.constant(np.arange(6.0).reshape(3, 2))
        z = graph_conv(a, x, GraphConvParams([tape.parameter("W", values["W"])], True, 2))
        return ops.sum_all(z)

    report = finite_diff_check(f, {"raw": np.array([[0.3, -0.2]]), "W": np.eye(2) * 0.7})
    assert report.passed, report.to_dict()


# -- convolution ---------------------------------------------------------------


A_1OBJ = Tensor(np.array([[1.0, 0.5], [0.5, 1.0]]))
X_1OBJ = Tensor(np.array([[1.0, 2.0], [3.0, -1.0]]))
W_CONV = np.array([[1.0, 0.0], [2.0, 1.0]])


def test_single_layer_conv_frozen_values():
    params = GraphConvParams([Tensor(W_CONV)], shared=True, num_layers=1)
    z = graph_conv(A_1OBJ, X_1OBJ, params).data
    assert np.allclose(z, [[5.5, 1.5], [3.5, 0.0]], atol=1e-12)


def test_zero_layers_returns_input_unchanged():
    params = GraphConvParams([], shared=True, num_layers=0)
    z = graph_conv(A_1OBJ, X_1OBJ, params)
    assert z is X_1OBJ


def test_relu_applied_between_but_not_after_layers():
    # one shared layer producing a negative entry; with 2 layers the
    # intermediate negative is clipped before the second product.
    w = Tensor(-np.eye(2))
    one = graph_conv(A_1OBJ, X_1OBJ, GraphConvParams([w], True, 1)).data
    assert one.min() < 0  # no trailing ReLU
    two = graph_conv(A_1OBJ, X_1OBJ, GraphConvParams([w], True, 2)).data
    manual_mid = np.maximum(A_1OBJ.data @ X_1OBJ.data @ -np.eye(2), 0.0)
    manual = A_1OBJ.data @ manual_mid @ -np.eye(2)
    assert np.allclose(two, manual, atol=1e-12)


def test_shared_conv_reuses_one_matrix():
    shared = GraphConvParams([Tensor(np.eye(2) * 0.5)], shared=True, num_layers=3)
    assert shared.layer(0) is shared.layer(2)
    with pytest.raises(ValueError):
        GraphConvParams([Tensor(np.eye(2))], shared=False, num_layers=2)
    with pytest.raises(ValueError):
        GraphConvParams([Tensor(np.eye(2))] * 2, shared=True, num_layers=2)


def test_conv_shape_validation():
    params = GraphConvParams([Tensor(np.eye(2))], shared=True, num_layers=1)
    with pytest.raises(ValueError):
        graph_conv(Tensor(np.ones((2, 3))), X_1OBJ, params)
    with pytest.raises(ValueError):
        graph_conv(A_1OBJ, Tensor(np.ones((3, 2))), params)


def test_context_vector_mean_and_empty():
    z = Tensor(np.array([[9.0, 9.0], [1.0, 3.0], [5.0, 7.0]]))
    assert np.array_equal(context_vector(z).data, [[3.0, 5.0]])
    lone = Tensor(np.array([[4.0, 2.0]]))
    assert np.array_equal(context_vector(lone).data, [[0.0, 0.0]])


def test_star_graph_bundle_and_validate():
    g = star_graph(Tensor([1.0, 2.0]), [Tensor([3.0, -1.0])], [_w(0.5)])
    assert g.a.shape == (2, 2)
    assert np.array_equal(g.x.data, [[1.0, 2.0], [3.0, -1.0]])
    ops.validate_star_graph(g)
    g.a.data[0, 1] = 0.9  # break symmetry behind the builder's back
    with pytest.raises(ValueError, match="symmetric"):
        ops.validate_star_graph(g)
    with pytest.raises(ValueError, match="weights"):
        star_graph(Tensor([1.0, 2.0]), [Tensor([3.0, -1.0])], [])


def test_zero_projections_give_exactly_half():
    # both embeddings collapse to zero, sigmoid(0) is exactly 0.5
    zero = EdgeWeightParams(Tensor(np.zeros((10, 2))), Tensor(np.zeros((2, 2))))
    w = edge_weight(Tensor(np.array([[1.0, -1.0]])), REL, Tensor(np.array([[0.5, 2.0]])), zero)
    assert w.data.item() == 0.5


def test_single_conv_layer_is_linear_in_the_features():
    rng = np.random.default_rng(5)
    a = build_adjacency([ad.constant(np.array([[0.3]])), ad.constant(np.array([[0.8]]))])
    params = GraphConvParams(layers=(Tensor(rng.standard_normal((3, 3))),), shared=True, num_layers=1)
    x1 = rng.standard_normal((3, 3))
    x2 = rng.standard_normal((3, 3))
    combined = graph_conv(a, Tensor(2.0 * x1 - 3.0 * x2), params).data
    separate = 2.0 * graph_conv(a, Tensor(x1), params).data - 3.0 * graph_conv(a, Tensor(x2), params).data
    np.testing.assert_allclose(combined, separate, atol=1e-12)


def test_vanishing_edge_weight_detaches_the_object():
    # the smallest positive weight times O(1) features is absorbed: the
    # center row is bit for bit the row of the graph without that object
    tiny = np.nextafter(0.0, 1.0)
    rows = [
        Tensor(np.array([[1.0, -2.0]])),
        Tensor(np.array([[0.5, 3.0]])),
        Tensor(np.array([[4.0, 1.0]])),
    ]
    params = GraphConvParams(
        layers=(Tensor(np.random.default_rng(1).standard_normal((2, 2))),),
        shared=True,
        num_layers=1,
    )
    half = ad.constant(np.array([[0.5]]))
    with_obj = graph_conv(
        build_adjacency([half, ad.constant(np.array([[tiny]]))]),
        ad.stack_rows(rows),
        params,
    ).data[0]
    without = graph_conv(build_adjacency([half]), ad.stack_rows(rows[:2]), params).data[0]
    assert np.array_equal(with_obj, without)


def test_identity_weights_on_lone_center_are_a_no_op():
    x = Tensor(np.array([[3.0, -2.0]]))
    params = GraphConvParams(layers=(Tensor(np.eye(2)),), shared=True, num_layers=1)
    out = graph_conv(build_adjacency([]), x, params)
    assert np.array_equal(out.data, x.data)
