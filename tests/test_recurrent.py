"""Gated recurrent cell, observation unrolling, and the prediction rollout."""

import numpy as np
import pytest

from intent_graph import autodiff as ad
from intent_graph.autodiff import GradientTape, Tensor, finite_diff_check
from intent_graph.data import SynthConfig, generate_synthetic, split
from intent_graph.model import ModelConfig, init_parameters
from intent_graph.recurrent import (
    GRUCellParams,
    TemporalConfig,
    gru_step,
    prediction_rollout,
    run_observation,
)
from intent_graph.training import scenario_loss_tensor

import reference_ops as ops


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _reference_gru(values, x, h):
    """The gate equations written out independently, numpy end to end."""
    xh = np.hstack([x, h])
    z = _sigmoid(xh @ values["W_z"] + values["b_z"])
    r = _sigmoid(xh @ values["W_r"] + values["b_r"])
    xrh = np.hstack([x, r * h])
    cand = np.tanh(xrh @ values["W_h"] + values["b_h"])
    return (1.0 - z) * h + z * cand


def _cell_values(rng, input_width, hidden):
    rows = input_width + hidden
    return {
        "W_z": rng.standard_normal((rows, hidden)) * 0.4,
        "W_r": rng.standard_normal((rows, hidden)) * 0.4,
        "W_h": rng.standard_normal((rows, hidden)) * 0.4,
        "b_z": rng.standard_normal((1, hidden)) * 0.1,
        "b_r": rng.standard_normal((1, hidden)) * 0.1,
        "b_h": rng.standard_normal((1, hidden)) * 0.1,
    }


def _lift(values, tape=None):
    if tape is None:
        return GRUCellParams(**{k: Tensor(v) for k, v in values.items()})
    return GRUCellParams(**{k: tape.parameter(k, v) for k, v in values.items()})


def test_gru_step_matches_reference_equations():
    rng = np.random.default_rng(0)
    values = _cell_values(rng, 3, 4)
    x = rng.standard_normal((1, 3))
    h = rng.standard_normal((1, 4))
    got = gru_step(_lift(values), Tensor(x), Tensor(h)).data
    want = _reference_gru(values, x, h)
    assert np.allclose(got, want, atol=1e-14)


def test_gru_three_steps_match_reference():
    rng = np.random.default_rng(1)
    values = _cell_values(rng, 2, 3)
    cell = _lift(values)
    inputs = [rng.standard_normal((1, 2)) for _ in range(3)]
    states = run_observation(cell, [Tensor(x) for x in inputs])
    h = np.zeros((1, 3))
    for x, got in zip(inputs, states):
        h = _reference_gru(values, x, h)
        assert np.allclose(got.data, h, atol=1e-14)


def test_hidden_starts_at_zero_unless_given():
    rng = np.random.default_rng(2)
    values = _cell_values(rng, 1, 2)
    x = [Tensor(np.array([[0.5]]))]
    default = run_observation(_lift(values), x)[-1].data
    explicit = run_observation(_lift(values), x, h0=ad.zeros(1, 2))[-1].data
    assert np.array_equal(default, explicit)
    warm = run_observation(_lift(values), x, h0=Tensor(np.ones((1, 2))))[-1].data
    assert not np.array_equal(default, warm)


def test_cell_shape_validation():
    # wrong-shaped cells are check_parameters' to reject (test_model); the
    # step still checks the activations it is handed
    rng = np.random.default_rng(3)
    cell = _lift(_cell_values(rng, 2, 3))
    with pytest.raises(ValueError):
        gru_step(cell, Tensor(np.ones((1, 3))), Tensor(np.ones((1, 3))))
    with pytest.raises(ValueError):
        gru_step(cell, Tensor(np.ones((1, 2))), Tensor(np.ones((1, 4))))


def test_gru_gradients_through_three_steps():
    rng = np.random.default_rng(4)
    values = _cell_values(rng, 2, 3)
    inputs = [rng.standard_normal((1, 2)) for _ in range(3)]

    def f(v):
        tape = GradientTape()
        cell = _lift(v, tape)
        last = run_observation(cell, [Tensor(x) for x in inputs])[-1]
        return ad.bce_with_logits(ops.dot(last, ad.constant(np.ones((1, 3)))), 1)

    report = finite_diff_check(f, values)
    assert report.passed, report.to_dict()


# -- one tape node per step ------------------------------------------------------


def _unroll_on_tape(step, values, inputs, h0, weights):
    """Run ``step`` over ``inputs`` on a fresh tape with every input, h0 and cell
    weight a parameter; each state feeds a readout right after its step and a
    sum over all states at the end, so h's three uses in the next step
    interleave with consumers recorded before and after it."""
    tape = GradientTape()
    cell = _lift(values, tape)
    xs = [tape.parameter(f"x{t}", x) for t, x in enumerate(inputs)]
    h = tape.parameter("h0", h0)
    readout = Tensor(weights[:, :1])
    loss, states = None, []
    for x in xs:
        h = step(cell, x, h)
        states.append(h)
        term = ad.matmul(h, readout)
        loss = term if loss is None else ad.add(loss, term)
    for k, state in enumerate(states):
        loss = ad.add(loss, ops.sum_all(ops.hadamard(state, Tensor(weights[:, k + 1 : k + 2].T))))
    grads = tape.backward(loss)
    return [st.data for st in states], grads


@pytest.mark.parametrize("input_width", [0, 6, 10], ids=["I=0-rollout", "I=D-pedestrian", "I=2H-aggregation"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_step_is_bytewise_the_per_op_chain(input_width, seed):
    rng = np.random.default_rng(seed)
    hidden = 5
    values = _cell_values(rng, input_width, hidden)
    inputs = [rng.standard_normal((1, input_width)) * 2.0 for _ in range(4)]
    h0 = rng.standard_normal((1, hidden)) * 0.5
    weights = rng.standard_normal((hidden, 5))
    fused_states, fused_grads = _unroll_on_tape(gru_step, values, inputs, h0, weights)
    chain_states, chain_grads = _unroll_on_tape(ops.gru_step_chain, values, inputs, h0, weights)
    for got, want in zip(fused_states, chain_states):
        assert got.tobytes() == want.tobytes()
    assert sorted(fused_grads) == sorted(chain_grads)
    for name in chain_grads:
        assert fused_grads[name].shape == chain_grads[name].shape, name
        assert fused_grads[name].tobytes() == chain_grads[name].tobytes(), name


def test_one_step_records_one_tape_node():
    rng = np.random.default_rng(10)
    tape = GradientTape()
    cell = _lift(_cell_values(rng, 3, 4), tape)
    x, h = Tensor(rng.standard_normal((1, 3))), tape.parameter("h", rng.standard_normal((1, 4)))
    before = len(tape._nodes)
    gru_step(cell, x, h)
    assert len(tape._nodes) == before + 1


def test_recipe_scenario_records_at_most_36_tape_nodes(learn_recipe):
    # per frame: one GRU step, one edge block and one graph block
    data = generate_synthetic(SynthConfig(**learn_recipe["synth"]))
    train_set, _ = split(data, **learn_recipe["split"])
    cfg = ModelConfig(num_layers=2, **learn_recipe["model"])
    values = init_parameters(cfg)
    counts = []
    for scenario in train_set:
        tape = GradientTape()
        scenario_loss_tensor(scenario, cfg, values, tape)
        counts.append(len(tape._nodes))
    assert max(counts) <= 36, counts


def test_dense_fully_connected_scenario_records_at_most_40_tape_nodes(learn_recipe):
    # the train-fc-dense shape: 8 objects per frame, so 28 object pairs
    synth = dict(learn_recipe["synth"], n_scenarios=4, vehicle_count_range=(7, 7))
    cfg = ModelConfig(num_layers=2, graph_mode="fully_connected", **learn_recipe["model"])
    values = init_parameters(cfg)
    counts = []
    for scenario in generate_synthetic(SynthConfig(**synth)):
        assert {len(f.objects) for f in scenario.frames} == {8}
        tape = GradientTape()
        scenario_loss_tensor(scenario, cfg, values, tape)
        counts.append(len(tape._nodes))
    assert max(counts) <= 40, counts


# -- prediction rollout --------------------------------------------------------


def test_rollout_requires_zero_input_cell():
    rng = np.random.default_rng(5)
    readout = Tensor(np.ones((3, 1))), Tensor(np.zeros((1, 1)))
    wide = _lift(_cell_values(rng, 2, 3))
    with pytest.raises(ValueError, match="width-0"):
        prediction_rollout(wide, Tensor(np.zeros((1, 3))), 2, *readout)


def test_rollout_horizon_validation():
    rng = np.random.default_rng(6)
    cell = _lift(_cell_values(rng, 0, 3))
    readout = Tensor(np.ones((3, 1))), Tensor(np.zeros((1, 1)))
    with pytest.raises(ValueError):
        prediction_rollout(cell, Tensor(np.zeros((1, 3))), 0, *readout)


def test_rollout_matches_reference_and_evolves():
    rng = np.random.default_rng(7)
    values = _cell_values(rng, 0, 3)
    h0 = rng.standard_normal((1, 3))
    readout_w = rng.standard_normal((3, 1))
    readout_b = np.array([[0.25]])
    cell = _lift(values)
    logits = prediction_rollout(cell, Tensor(h0), 4, Tensor(readout_w), Tensor(readout_b))
    assert len(logits) == 4
    h = h0
    empty = np.zeros((1, 0))
    expected = []
    for _ in range(4):
        h = _reference_gru(values, empty, h)
        expected.append(float((h @ readout_w + readout_b)[0, 0]))
    got = [t.item() for t in logits]
    assert np.allclose(got, expected, atol=1e-14)
    assert len(set(np.round(got, 12))) > 1  # the zero-input state keeps moving


def test_rollout_gradients():
    rng = np.random.default_rng(8)
    values = _cell_values(rng, 0, 3)
    values["w"] = rng.standard_normal((3, 1))
    values["b"] = np.zeros((1, 1))
    h0 = rng.standard_normal((1, 3))

    def f(v):
        tape = GradientTape()
        cell = GRUCellParams(**{k: tape.parameter(k, v[k]) for k in ("W_z", "W_r", "W_h", "b_z", "b_r", "b_h")})
        logits = prediction_rollout(cell, Tensor(h0), 3, tape.parameter("w", v["w"]), tape.parameter("b", v["b"]))
        total = ad.bce_with_logits(logits[0], 1)
        for z in logits[1:]:
            total = total + ad.bce_with_logits(z, 0)
        return total

    report = finite_diff_check(f, values)
    assert report.passed, report.to_dict()


def test_temporal_config_defaults():
    tc = TemporalConfig()
    assert tc.use_temporal and tc.use_ped_gru and not tc.use_ctxt_gru


def test_hidden_state_stays_strictly_inside_the_unit_box():
    # convex blend of the previous state and a tanh candidate: starting from
    # zeros the state can never leave (-1, 1) no matter the inputs
    rng = np.random.default_rng(9)
    params = _lift(_cell_values(rng, 6, 4))
    h = ad.constant(np.zeros((1, 4)))
    for _ in range(50):
        x = Tensor(rng.standard_normal((1, 6)) * 10.0)
        h = gru_step(params, x, h)
        assert np.all(np.abs(h.data) < 1.0)
