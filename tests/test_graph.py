"""Edge weights, adjacency assembly, graph convolution and the one-node graph block.

The frozen constants below are hand-derived:

edge weight: ped box (0,0,2,2) and object box (1,1,3,3) give the relation
[1,1,1,1,1,1,3,3]; with v_a=[1,-1] the concatenated v_i sums to 12, so a
proj_i of (+0.1 | -0.1) columns gives ReLU([1.2,-1.2]) = [1.2, 0]. With
v_o=[0.5,2] and proj_o=[[1,1],[0.5,-1]], ReLU([1.5,-1.5]) = [1.5, 0];
the inner product is 1.8 and sigmoid(1.8) = 0.8581489350995123.

one conv layer, one object: A=[[1,.5],[.5,1]], X=[[1,2],[3,-1]],
W=[[1,0],[2,1]] gives AX=[[2.5,1.5],[3.5,0]] and AXW=[[5.5,1.5],[3.5,0]].
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intent_graph import autodiff as ad
from intent_graph import model
from intent_graph.autodiff import GradientTape, ShapeError, Tensor, finite_diff_check
from intent_graph.data import SynthConfig, generate_synthetic
from intent_graph.graph import (
    build_adjacency,
    edge_weight,
    frame_rows,
    graph_conv,
    open_unit,
    pair_indices,
    star_graph,
)
from intent_graph.model import ModelConfig, init_parameters
from intent_graph.recurrent import GRUCellParams, gru_step
from intent_graph.scene import CATEGORY_COUNT

import reference_ops as ops

SIGMOID_1_8 = 0.8581489350995123


PROJ_I = np.hstack([np.full((10, 1), 0.1), np.full((10, 1), -0.1)])
PROJ_O = np.array([[1.0, 1.0], [0.5, -1.0]])


def _edge_params():
    """The frozen hand projections (proj_i, proj_o) as constant tensors."""
    return Tensor(PROJ_I), Tensor(PROJ_O)


# the frozen hand instance as a block of one edge: the relation of box
# (1, 1, 3, 3) to box (0, 0, 2, 2)
REL = Tensor([[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 3.0, 3.0]])


def test_edge_weight_frozen_value():
    w = edge_weight(Tensor([1.0, -1.0]), REL, Tensor([0.5, 2.0]), *_edge_params())
    assert w.shape == (1, 1)
    assert w.item() == pytest.approx(SIGMOID_1_8, abs=1e-15)


def test_edge_weight_gradient_reaches_both_projections():
    def f(values):
        tape = GradientTape()
        proj = tape.parameter("proj_i", values["proj_i"]), tape.parameter("proj_o", values["proj_o"])
        return edge_weight(Tensor([1.0, -1.0]), REL, Tensor([0.5, 2.0]), *proj)

    report = finite_diff_check(*ops.taped(f), {"proj_i": PROJ_I, "proj_o": PROJ_O})
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
        p = tape.parameter("proj_i", params["proj_i"]), tape.parameter("proj_o", params["proj_o"])
        center = tape.parameter("center", params["center"])
        src = Tensor(block) if case == "constant_block" else center
        if fused:
            w = edge_weight(src, rel, tgt, *p)
            weights, values = [w], w.data
        else:
            src_rows = _rows(src) if src.rows == m else [src] * m
            weights = ops.edge_weight_chain(src_rows, _rows(rel), _rows(tgt), *p)
            values = np.array([w.data[0] for w in weights]).reshape(m, 1)
        # the center also reaches the loss outside edge scoring, as in the model
        x = ad.stack_rows([center, *(Tensor(r) for r in block)])
        a = ops.symmetric_scatter(ad.constant(np.eye(m + 1)), [(0, j + 1) for j in range(m)], weights)
        z = ad.matmul(a, x)
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
        edge_weight(Tensor(np.ones((3, 2))), Tensor(np.ones((2, 8))), two, *p)  # 3 sources, 2 targets
    with pytest.raises(ShapeError):
        edge_weight(Tensor([1.0, -1.0]), Tensor(np.ones((2, 7))), two, *p)
    with pytest.raises(ShapeError):
        edge_weight(Tensor([1.0, -1.0, 0.0]), Tensor(np.ones((2, 8))), two, *p)
    tape = GradientTape()
    with pytest.raises(ValueError, match="constants"):
        edge_weight(Tensor([1.0, -1.0]), Tensor(np.ones((2, 8))), tape.parameter("t", np.ones((2, 2))), *p)


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
    # projections into edge spaces of different widths (2 and 3) cannot be paired
    with pytest.raises(ShapeError, match="one edge space"):
        edge_weight(Tensor([1.0, -1.0]), REL, Tensor([0.5, 2.0]), Tensor(np.ones((10, 2))), Tensor(np.ones((2, 3))))


def test_saturating_edge_score_still_yields_a_valid_weight():
    # a huge inner product would round sigmoid to exactly 1.0; the weight
    # must stay strictly inside (0,1) so adjacency assembly accepts it
    big = Tensor(np.full((10, 2), 50.0)), Tensor(np.full((2, 2), 50.0))
    w = edge_weight(Tensor([1.0, 1.0]), REL, Tensor([1.0, 1.0]), *big)
    assert 0.0 < w.item() < 1.0
    star_graph(Tensor([1.0, 1.0]), np.ones((1, 2)), w)  # accepts it


# -- adjacency ----------------------------------------------------------------


def _adjacency(spokes, pairs=None, row_normalize=False) -> np.ndarray:
    """One frame's adjacency from plain lists of weights."""
    pairs = None if pairs is None else np.array([pairs], dtype=float)
    a, _ = build_adjacency(np.array([spokes], dtype=float).reshape(1, -1), pairs, row_normalize)
    return a[0]


def test_star_adjacency_layout():
    a = _adjacency([0.5, 0.25])
    want = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.0], [0.25, 0.0, 1.0]])
    assert np.array_equal(a, want)


def _frame(n, h=2):
    """A pedestrian row and n object rows of width h."""
    return Tensor(np.arange(1.0, h + 1.0)), np.arange(float(n * h)).reshape(n, h)


def test_adjacency_rejects_out_of_range_weights():
    for bad in (0.0, 1.0, -0.2, 1.7, np.nan):
        with pytest.raises(ValueError, match="open interval"):
            star_graph(*_frame(1), Tensor([[bad]]))
        with pytest.raises(ValueError, match="edge weight 1 outside the open interval"):
            star_graph(*_frame(2), Tensor([[0.5], [bad]]))
        with pytest.raises(ValueError, match="object pair weight 0 outside the open interval"):
            star_graph(*_frame(2), Tensor([[0.5], [0.5]]), Tensor([[bad]]))


def test_adjacency_rejects_non_scalar_weight():
    with pytest.raises(ValueError, match="column"):
        star_graph(*_frame(2), Tensor([0.5, 0.5]))  # a row, not a column
    with pytest.raises(ValueError, match="column"):
        star_graph(*_frame(2), Tensor([[0.5]]))  # one weight for two objects


def test_fully_connected_needs_every_pair():
    with pytest.raises(ValueError, match="object pair weights must be a \\(3, 1\\) column"):
        star_graph(*_frame(3), Tensor(np.full((3, 1), 0.5)), Tensor([[0.3], [0.3]]))  # (1, 2) missing
    a = _adjacency([0.5, 0.5, 0.5], [0.3, 0.3, 0.9])
    assert a[2, 3] == a[3, 2] == 0.9
    assert a[1, 2] == a[2, 1] == 0.3


def test_pair_indices_are_the_cached_read_only_upper_triangle():
    for n in range(9):
        i, j = pair_indices(n)
        want_i, want_j = np.triu_indices(n, 1)
        assert i.tolist() == want_i.tolist() and j.tolist() == want_j.tolist()
        assert not i.flags.writeable and not j.flags.writeable
        assert pair_indices(n)[0] is i
    with pytest.raises(ValueError, match="read-only"):
        pair_indices(4)[0][0] = 1


def test_row_normalized_rows_sum_to_one():
    a = _adjacency([0.5, 0.25], row_normalize=True)
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
    want = np.eye(n + 1)
    want[0, 1:] = want[1:, 0] = raw
    values = None
    if mode == "fully_connected":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        values = data.draw(st.lists(_UNIT, min_size=len(pairs), max_size=len(pairs)))
        for (i, j), v in zip(pairs, values):
            want[i + 1, j + 1] = want[j + 1, i + 1] = v
    a = _adjacency(raw, values)
    assert a.shape == (n + 1, n + 1)
    assert np.array_equal(a, a.T)
    assert np.array_equal(np.diag(a), np.ones(n + 1))
    # every off-diagonal entry is exactly a given weight (or 0 off the edge set)
    assert np.array_equal(a, want)
    off = a - np.diag(np.diag(a))
    nz = off[off != 0]
    assert np.all((nz > 0) & (nz < 1))
    tape = _CountingTape()
    spokes = tape.parameter("spokes", np.array(raw).reshape(-1, 1))
    pair_col = None if values is None else tape.parameter("pairs", np.array(values).reshape(-1, 1))
    star_graph(Tensor(np.ones(2)), np.ones((n, 2)), spokes, pair_col, [tape.parameter("W", np.eye(2))])
    assert tape.recorded == 1  # one graph node, whatever N and the pair count


def test_adjacency_is_differentiable_in_the_weights():
    def f(values):
        tape = GradientTape()
        raw = tape.parameter("raw", values["raw"])
        # two weights derived from the same parameter row
        spokes = ops.sigmoid(ad.matmul(ad.constant(np.array([[1.0, 2.0], [-1.0, 0.5]])), raw))
        w = tape.parameter("W", values["W"])
        out = star_graph(Tensor([[0.0, 1.0]]), np.arange(2.0, 6.0).reshape(2, 2), spokes, None, [w, w])
        return ops.sum_all(out)

    report = finite_diff_check(*ops.taped(f), {"raw": np.array([[0.3], [-0.2]]), "W": np.eye(2) * 0.7})
    assert report.passed, report.to_dict()


# -- convolution ---------------------------------------------------------------


A_1OBJ = np.array([[[1.0, 0.5], [0.5, 1.0]]])
X_1OBJ = np.array([[[1.0, 2.0], [3.0, -1.0]]])
W_CONV = np.array([[1.0, 0.0], [2.0, 1.0]])


def test_single_layer_conv_frozen_values():
    z, _ = graph_conv(A_1OBJ, X_1OBJ, [W_CONV])
    assert np.allclose(z[0], [[5.5, 1.5], [3.5, 0.0]], atol=1e-12)


def test_zero_layers_returns_input_unchanged():
    z, saved = graph_conv(A_1OBJ, X_1OBJ, [])
    assert z is X_1OBJ and saved == []


def test_relu_applied_between_but_not_after_layers():
    # one shared layer producing a negative entry; with 2 layers the
    # intermediate negative is clipped before the second product.
    w = -np.eye(2)
    one = graph_conv(A_1OBJ, X_1OBJ, [w])[0][0]
    assert one.min() < 0  # no trailing ReLU
    two = graph_conv(A_1OBJ, X_1OBJ, [w, w])[0][0]
    manual_mid = np.maximum(A_1OBJ[0] @ X_1OBJ[0] @ -np.eye(2), 0.0)
    manual = A_1OBJ[0] @ manual_mid @ -np.eye(2)
    assert np.allclose(two, manual, atol=1e-12)


def test_shared_conv_reuses_one_matrix():
    # a shared layer is one tensor listed per layer: the node reads it three
    # times and its gradient is the sum of the three uses
    tape = GradientTape()
    w = tape.parameter("W", np.eye(2) * 0.5)
    out = star_graph(*_frame(2), Tensor([[0.5], [0.25]]), None, [w, w, w])
    assert tape._nodes[-1][0][:3] == (w, w, w)
    grads = tape.backward(ops.sum_all(out))
    chain = GradientTape()
    ws = [chain.parameter(f"W{i}", np.eye(2) * 0.5) for i in range(3)]
    refined, ctx = ops.star_graph_chain(*_frame(2), Tensor([[0.5], [0.25]]), None, ws)
    parts = chain.backward(ops.sum_all(ad.concat_rows(refined, ctx)))
    assert np.array_equal(grads["W"], (parts["W2"] + parts["W1"]) + parts["W0"])


def test_conv_shape_validation():
    with pytest.raises(ValueError, match="layer matrices"):
        star_graph(*_frame(1), Tensor([[0.5]]), None, [Tensor(np.ones((2, 3)))])
    with pytest.raises(ValueError, match="object rows"):
        star_graph(Tensor([1.0, 2.0]), np.ones((1, 3)), Tensor([[0.5]]))
    with pytest.raises(ValueError, match="object rows"):
        star_graph(Tensor(np.ones((2, 2))), np.ones((1, 2)), Tensor([[0.5]]))


# weights at and around the ends of (0, 1), signed zeros, NaNs of both signs and the infinities
_SPECIALS = np.array([0.0, -0.0, 1.0, 0.5, 5e-324, np.nextafter(1.0, 0.0), np.nan, -np.nan, 1.5, -0.25, np.inf, -np.inf])


def _with_specials(rng, shape):
    a = rng.random(shape)
    mask = rng.random(shape) < 0.4
    a[mask] = rng.choice(_SPECIALS, int(mask.sum()))
    return a


def _old_adjacency(spokes, pair_weights, row_normalize):
    """build_adjacency as it was built from np.broadcast_to(np.eye(N + 1), ...).copy(), as a byte reference."""
    m, n = spokes.shape
    a = np.broadcast_to(np.eye(n + 1), (m, n + 1, n + 1)).copy()
    a[:, 0, 1:] = spokes
    a[:, 1:, 0] = spokes
    if pair_weights is not None:
        i, j = pair_indices(n)
        a[:, i + 1, j + 1] = pair_weights
        a[:, j + 1, i + 1] = pair_weights
    if not row_normalize:
        return a, None
    den = (a @ np.ones((n + 1, 1))) @ np.ones((1, n + 1))
    return a / den, (a, den)


def test_adjacency_open_unit_and_frame_rows_keep_the_bytes_of_their_numpy_wrappers():
    # build_adjacency writes its diagonal into zeros, open_unit is np.maximum then np.minimum and
    # frame_rows sums and divides: each must give the bytes of the eye copy, np.clip and np.mean
    rng = np.random.default_rng(21)
    with np.errstate(invalid="ignore", divide="ignore"):
        for n in (0, 1, 2, 5):
            for m in (1, 3):
                for pairs in (False, True):
                    for row_normalize in (False, True):
                        spokes = _with_specials(rng, (m, n))
                        pair_weights = _with_specials(rng, (m, n * (n - 1) // 2)) if pairs else None
                        got, got_norm = build_adjacency(spokes, pair_weights, row_normalize)
                        want, want_norm = _old_adjacency(spokes, pair_weights, row_normalize)
                        assert got.tobytes() == want.tobytes(), (n, m, pairs, row_normalize)
                        assert (got_norm is None) == (want_norm is None)
                        for g, w in zip(got_norm or (), want_norm or ()):
                            assert g.tobytes() == w.tobytes(), (n, m, pairs, row_normalize)
        scores = np.concatenate([_SPECIALS, rng.random(40), _with_specials(rng, 40)]).reshape(-1, 1)
        assert open_unit(scores).tobytes() == np.clip(scores, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)).tobytes()
        for rows in (1, 2, 4, 6, 8):  # 1, 3, 5 and 7 objects: a product by 1/3 is not a quotient by 3
            for m in (1, 4):
                z = _with_specials(rng, (m, rows, 6)) * rng.choice([-1.0, 1.0], (m, rows, 6))
                want = np.zeros((m, 12))
                want[:, :6] = z[:, 0]
                if rows > 1:
                    want[:, 6:] = z[:, 1:].mean(axis=1)
                assert frame_rows(z).tobytes() == want.tobytes(), (rows, m)


def test_context_vector_mean_and_empty():
    z = np.array([[[9.0, 9.0], [1.0, 3.0], [5.0, 7.0]]])
    assert np.array_equal(frame_rows(z), [[9.0, 9.0, 3.0, 5.0]])
    assert np.array_equal(frame_rows(np.array([[[4.0, 2.0]]])), [[4.0, 2.0, 0.0, 0.0]])
    assert np.array_equal(ops.context_vector(Tensor(z[0])).data, [[3.0, 5.0]])
    assert np.array_equal(ops.context_vector(Tensor([[4.0, 2.0]])).data, [[0.0, 0.0]])


def test_star_graph_bundle_and_validate():
    # zero layers: the frame row is the raw pedestrian row and the object mean
    out = star_graph(Tensor([1.0, 2.0]), np.array([[3.0, -1.0], [5.0, 3.0]]), Tensor([[0.5], [0.5]]))
    assert np.array_equal(out.data, [[1.0, 2.0, 4.0, 1.0]])
    with pytest.raises(ValueError, match="edge weights must be"):
        star_graph(Tensor([1.0, 2.0]), np.array([[3.0, -1.0]]), Tensor(np.zeros((0, 1))))


def test_zero_projections_give_exactly_half():
    # both embeddings collapse to zero, sigmoid(0) is exactly 0.5
    zero = Tensor(np.zeros((10, 2))), Tensor(np.zeros((2, 2)))
    w = edge_weight(Tensor(np.array([[1.0, -1.0]])), REL, Tensor(np.array([[0.5, 2.0]])), *zero)
    assert w.data.item() == 0.5


def test_single_conv_layer_is_linear_in_the_features():
    rng = np.random.default_rng(5)
    a = _adjacency([0.3, 0.8])[None]
    w = rng.standard_normal((3, 3))
    x1 = rng.standard_normal((1, 3, 3))
    x2 = rng.standard_normal((1, 3, 3))
    combined = graph_conv(a, 2.0 * x1 - 3.0 * x2, [w])[0]
    separate = 2.0 * graph_conv(a, x1, [w])[0] - 3.0 * graph_conv(a, x2, [w])[0]
    np.testing.assert_allclose(combined, separate, atol=1e-12)


def test_vanishing_edge_weight_detaches_the_object():
    # the smallest positive weight times O(1) features is absorbed: the
    # center row is bit for bit the row of the graph without that object
    tiny = np.nextafter(0.0, 1.0)
    rows = np.array([[1.0, -2.0], [0.5, 3.0], [4.0, 1.0]])
    w = np.random.default_rng(1).standard_normal((2, 2))
    with_obj = graph_conv(_adjacency([0.5, tiny])[None], rows[None], [w])[0][0, 0]
    without = graph_conv(_adjacency([0.5])[None], rows[None, :2], [w])[0][0, 0]
    assert np.array_equal(with_obj, without)


def test_identity_weights_on_lone_center_are_a_no_op():
    x = np.array([[[3.0, -2.0]]])
    out, _ = graph_conv(_adjacency([])[None], x, [np.eye(2)])
    assert np.array_equal(out, x)


# -- the graph block: one tape node, bit for bit the per-op chain ---------------


def _cell(rng, tape, width):
    names = ("W_z", "W_r", "W_h", "b_z", "b_r", "b_h")
    shapes = [(2 * width, width)] * 3 + [(1, width)] * 3
    return GRUCellParams(*(tape.parameter(f"gru.{n}", rng.standard_normal(s) * 0.4) for n, s in zip(names, shapes)))


@pytest.mark.parametrize("ctxt", [False, True], ids=["no-ctxt", "ctxt-gru"])
@pytest.mark.parametrize("row_normalize", [False, True], ids=["raw", "normalized"])
@pytest.mark.parametrize("mode", ["star", "fully_connected"])
def test_star_graph_is_bytewise_the_per_op_chain(mode, row_normalize, ctxt):
    h = 4
    for n in range(7):
        for num_layers in range(4):
            for shared in (True, False):
                rng = np.random.default_rng(100 * n + 10 * num_layers + shared)
                center = rng.standard_normal((1, h))
                objects = rng.standard_normal((n, h))
                spokes = rng.uniform(0.05, 0.95, (n, 1))
                pairs = rng.uniform(0.05, 0.95, (n * (n - 1) // 2, 1))
                mats = [rng.standard_normal((h, h)) * 0.6 for _ in range(1 if shared else num_layers)]
                cell_seed = int(rng.integers(2**31))
                h0 = rng.standard_normal((1, h)) * 0.3
                readout = rng.standard_normal((1, 2 * h))
                readout[0, [0, h]] = -0.0  # the chain adds +0.0 to these gradients when N > 0
                readout = Tensor(readout)

                def run(fused):
                    tape = GradientTape()
                    c = tape.parameter("center", center)
                    s = tape.parameter("spokes", spokes)
                    pw = tape.parameter("pairs", pairs) if mode == "fully_connected" else None
                    ws = [tape.parameter(f"W{i}", m) for i, m in enumerate(mats)]
                    layers = [ws[0] if shared else ws[i] for i in range(num_layers)]
                    if fused:
                        vec = star_graph(c, objects, s, pw, layers, row_normalize)
                    else:
                        refined, ctx = ops.star_graph_chain(c, objects, s, pw, layers, row_normalize)
                    if ctxt:
                        cell, state = _cell(np.random.default_rng(cell_seed), tape, h), tape.parameter("h0", h0)
                        if fused:
                            state = gru_step(cell, ad.columns(vec, h, 2 * h), state)
                            vec = ad.concat_rows(ad.columns(vec, 0, h), state)
                        else:
                            vec = ad.concat_rows(refined, gru_step(cell, ctx, state))
                    elif not fused:
                        vec = ad.concat_rows(refined, ctx)
                    # the center reaches the loss only through the graph, so a zero's sign stays visible
                    return vec.data, tape.backward(ops.sum_all(ops.hadamard(vec, readout)))

                (got, got_grads), (want, want_grads) = run(True), run(False)
                case = (n, num_layers, shared)
                assert got.tobytes() == want.tobytes(), case
                assert sorted(got_grads) == sorted(want_grads)
                for name in want_grads:
                    assert got_grads[name].tobytes() == want_grads[name].tobytes(), (case, name)
                if num_layers and n:
                    assert np.any(got_grads["spokes"] != 0.0), case


@pytest.mark.parametrize("mode", ["star", "fully_connected"])
def test_star_graph_records_one_tape_node_per_frame(monkeypatch, mode):
    scenarios = generate_synthetic(
        SynthConfig(n_scenarios=5, frames_per_scenario=7, D=6, seed=3, vehicle_count_range=(0, 5))
    )
    bare = [dataclasses.replace(f, objects=()) for f in scenarios[0].frames]
    scenarios.append(dataclasses.replace(scenarios[0], frames=tuple(bare)))
    seen = set()
    for num_layers in range(4):
        for shared in (True, False):
            cfg = ModelConfig(
                D=6, D_e=5, hidden=6, T=5, K=2, graph_mode=mode, spatial_scale=1 / 1280,
                num_layers=num_layers, shared_weights=shared,
            )
            recorded = []

            def counted(center, objects, *args):
                before = tape.recorded
                out = star_graph(center, objects, *args)
                recorded.append(tape.recorded - before)
                seen.add(len(objects))
                return out

            monkeypatch.setattr(model, "star_graph", counted)
            for scenario in scenarios:
                tape = _CountingTape()
                model.forward_logits(scenario, cfg, init_parameters(cfg), tape=tape)
            assert recorded == [1] * (cfg.T * len(scenarios))
    assert seen == {0, 1, 2, 3, 4, 6}
