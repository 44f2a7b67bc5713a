"""The window cache under arbitrary sequences of passes, as a Hypothesis state machine.

A Scenario keeps its packed observed frames on its ``window`` slot, keyed by
(T, graph_mode), and every later pass of that key reads them: alone as they
are, or side by side with other records' windows. The machine draws passes
over a pool of records (generated, loaded, hand-built, copied, and some
that every pass or some modes refuse) under a few model shapes, and checks
after every pass that:

- its result, or its error's type and message, is the one the same call
  gives on cold copies of the records (``dataclasses.replace``), under
  ``tobytes()``; a lone forward() also equals the taped forward_logits;
- every record a pass succeeded on holds a window of that pass's key;
- a pack that raised left every record's window as it was;

and after every rule that every window holds read-only arrays under the
key of the pack that made it, and that every live entry of the layout
memo (``model._layout_of``) is read-only and, byte for byte, the layout an
uncached build of its key gives.

Between passes it may read a loaded frame's objects, which builds them, or
swap a loaded record for a copy whose frame holds those objects as a tuple,
so passes mix records packed from their columns with walked ones.
"""

import dataclasses
import functools
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from intent_graph import model
from intent_graph.data import SynthConfig, generate_synthetic, load, write_dataset
from intent_graph.model import ModelConfig, forward, forward_batch, forward_logits, init_parameters
from intent_graph.recurrent import TemporalConfig
from intent_graph.scene import BoundingBox, LoadedObjects, ObjectCategory, ObjectObservation
from intent_graph.training import TrainConfig, evaluate, scenario_gradients, train

# (T, K, graph_mode, num_layers): two modes that read relations share T = 4, and two shapes share each graph mode
SHAPES = (
    (4, 3, "star", 2),
    (3, 2, "star", 0),
    (4, 3, "fully_connected", 1),
    (3, 2, "fully_connected", 3),
    (4, 3, "concat_baseline", 2),
    (3, 2, "pedestrian_only", 1),
)


@functools.cache
def _config(shape):
    t_obs, k, mode, layers = shape
    cfg = ModelConfig(
        D=6, D_e=5, hidden=6 if mode in ("star", "fully_connected") else 7, T=t_obs, K=k, num_layers=layers,
        graph_mode=mode, temporal=TemporalConfig(use_ctxt_gru=layers == 1), include_object_class=layers == 3,
        spatial_scale=1 / 1280, seed=11,
    )
    return cfg, init_parameters(cfg)


def _with_objects(scenario, id, objects_of):
    """A copy of ``scenario`` named ``id`` whose frame t holds objects_of(t, frame)."""
    frames = tuple(dataclasses.replace(f, objects=tuple(objects_of(t, f))) for t, f in enumerate(scenario.frames))
    return dataclasses.replace(scenario, id=id, frames=frames)


def _changed(scenario, id, frame, **changes):
    """A copy of ``scenario`` named ``id`` whose first object of ``frame`` takes ``changes``."""
    def objects_of(t, f):
        if t != frame:
            return f.objects
        return (dataclasses.replace(f.objects[0], **changes), *f.objects[1:])

    return _with_objects(scenario, id, objects_of)


@functools.cache
def _pool():
    """The records the machine passes, every one with 7 frames of width-6 features but "short"."""
    generated = generate_synthetic(SynthConfig(n_scenarios=3, frames_per_scenario=7, D=6, seed=21, vehicle_count_range=(1, 5)))
    base = generated[0]
    rng = np.random.default_rng(0)
    many = [
        ObjectObservation(ObjectCategory.CAR, BoundingBox(x, 300.0, x + 80.0, 360.0), rng.uniform(-1, 1, 6), float(rng.uniform(-9, 9)))
        for x in rng.uniform(0.0, 1200.0, 7)
    ]
    twin = ObjectObservation(ObjectCategory.TRUCK, BoundingBox(500.0, 300.0, 600.0, 380.0), np.array([1.0, 0, 0, 0, 0, 0]))
    tied = [twin, dataclasses.replace(twin, feature=np.array([0.5, 0, 0, 0, 0, 0])), twin, dataclasses.replace(twin, camera_offset_x=0.0)]
    tied_scene = _with_objects(base, "tied", lambda t, f: tied[t % 2 :])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pool.jsonl"
        draw = generate_synthetic(SynthConfig(n_scenarios=2, frames_per_scenario=7, D=6, seed=22, vehicle_count_range=(2, 6)))
        write_dataset(path, [*draw, dataclasses.replace(tied_scene, id="loaded-tied")])
        loaded = load(path)
    return [
        *generated,
        *loaded,
        dataclasses.replace(generated[1]),  # shares its frames with generated[1]
        _with_objects(base, "empty", lambda t, f: ()),
        _with_objects(base, "many", lambda t, f: many[: 3 + t]),
        tied_scene,
        _changed(base, "overflow", 2, box=BoundingBox(-1.7e308, 0.0, 1.7e308, 10.0)),  # its spoke relation overflows
        _changed(base, "nan-box", 1, box=BoundingBox(np.nan, 0.0, 10.0, 20.0)),  # a pack that reads objects refuses it
        _changed(base, "narrow", 1, feature=np.ones(3)),  # a width-3 object feature: likewise
        dataclasses.replace(generated[2], id="short", frames=generated[2].frames[:5]),  # too short for T + K = 7
    ]


def _arrays(layout):
    """Every array a layout holds."""
    arrays = [arr for arr in (layout.sizes, layout.src, layout.tgt) if arr is not None]
    return arrays + [arr for _, *group in layout.buckets for arr in group]


def _layout_bytes(layout):
    """A layout as comparable values: each bucket's N and every array's shape, dtype and bytes."""
    def flat(arr):
        return None if arr is None else (arr.shape, arr.dtype.str, arr.tobytes())

    groups = [(n, *map(flat, group)) for n, *group in layout.buckets]
    return flat(layout.sizes), groups, flat(layout.src), flat(layout.tgt)


def _outcome(call):
    """What ``call()`` gave, as bytes, or the type and message of what it raised."""
    try:
        return "ok", call()
    except AssertionError:
        raise
    except Exception as exc:  # noqa: BLE001 - any error must be the cold call's
        return "raised", type(exc), str(exc)


def _forward(records, cfg, values):
    return np.array(forward(records[0], cfg, values).logits).tobytes()


def _forward_batch(records, cfg, values):
    return forward_batch(records, cfg, values).tobytes()


def _evaluate(records, cfg, values):
    return repr(evaluate(records, cfg, values))


def _gradients(records, cfg, values):
    loss, grads = scenario_gradients(records[0], cfg, values)
    return np.float64(loss).tobytes(), grads.row.tobytes()


def _train(batch_size):
    def call(records, cfg, values):
        result = train(records, cfg, TrainConfig(epochs=1, batch_size=batch_size), initial=values)
        return result.params.row.tobytes(), repr(result.history)

    return call


REFUSED = 4  # the pool's last records, which some passes refuse: drawn a quarter as often as the others, so most passes succeed
shapes = st.sampled_from(SHAPES)
records = st.sampled_from([i for i in range(len(_pool())) for _ in range(1 if i >= len(_pool()) - REFUSED else 4)])
picks = st.lists(records, min_size=1, max_size=8)
loaded = st.sampled_from([i for i, s in enumerate(_pool()) if type(s.frames[0].objects) is LoadedObjects])
frames = st.integers(0, 6)


class WindowMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pool = [dataclasses.replace(s) for s in _pool()]  # cold windows for each run
        self.swapped = []  # records swapped out of the pool, kept so that no pool record can take their id
        self.keys = {}  # id of a pool record: the key of the last pack that gave it a window
        self.last = None  # the last pass's (shape, at, call)
        self.pack = model._pack
        model._pack = self._checked_pack
        self.memo = model._layout_of
        self.memo.cache_clear()  # each run starts with an empty memo
        self.entries = {}  # (counts, pairs): the layout the memo last gave for that key, so every live entry
        self.checked = {}  # the entries the invariant has found current: being read-only, they cannot change
        model._layout_of = self._recorded_layout

    def teardown(self):
        model._pack = self.pack
        model._layout_of = self.memo

    def _recorded_layout(self, counts, pairs):
        layout = self.entries[counts, pairs] = self.memo(counts, pairs)
        return layout

    def _checked_pack(self, scenarios, cfg):
        before = [s.window for s in scenarios]
        try:
            window = self.pack(scenarios, cfg)
        except Exception:
            assert all(s.window is w for s, w in zip(scenarios, before)), "a pack that raised left a window"
            raise
        pooled = {id(s) for s in self.pool}
        self.keys.update((id(s), (cfg.T, cfg.graph_mode)) for s in scenarios if id(s) in pooled)
        return window

    def _same_as_cold(self, shape, at, call):
        self.last = shape, at, call
        cfg, values = _config(shape)
        records = [self.pool[i] for i in at]
        got = _outcome(lambda: call(records, cfg, values))
        assert got == _outcome(lambda: call([dataclasses.replace(s) for s in records], cfg, values))
        if got[0] == "ok":
            assert all(s.window.key == (cfg.T, cfg.graph_mode) for s in records)
        return got

    @invariant()
    def windows_and_layouts_are_read_only_and_current(self):
        for s in self.pool:
            window = s.window
            if window is None:
                assert id(s) not in self.keys
                continue
            assert window.key == self.keys[id(s)]
            assert not any(arr.flags.writeable for arr in window[1:] if arr is not None), "a window holds a writable array"
        for (counts, pairs), layout in self.entries.items():
            if self.checked.get((counts, pairs)) is layout:
                continue
            assert not any(arr.flags.writeable for arr in _arrays(layout)), "a memo entry holds a writable array"
            rebuilt = self.memo.__wrapped__(counts, pairs)  # uncached: it shares no array with the entry
            assert _layout_bytes(layout) == _layout_bytes(rebuilt), "a memo entry is not its key's layout"
            self.checked[counts, pairs] = layout

    @rule(shape=shapes, at=records)
    def forward_one(self, shape, at):
        got = self._same_as_cold(shape, [at], _forward)
        if got[0] == "ok":  # the taped oracle reads no window
            cfg, values = _config(shape)
            assert got[1] == np.array([t.item() for t in forward_logits(self.pool[at], cfg, values)]).tobytes()

    @rule(shape=shapes, at=picks)
    def forward_some(self, shape, at):
        self._same_as_cold(shape, at, _forward_batch)

    @rule(shape=shapes, at=picks)
    def evaluate_some(self, shape, at):
        self._same_as_cold(shape, at, _evaluate)

    @rule(shape=shapes, at=records)
    def gradients_of_one(self, shape, at):
        self._same_as_cold(shape, [at], _gradients)

    @rule(shape=shapes, at=picks, batch_size=st.integers(1, 8))
    def train_one_epoch(self, shape, at, batch_size):
        self._same_as_cold(shape, at, _train(batch_size))

    @rule(at=loaded, frame=frames)
    def read_loaded_objects(self, at, frame):  # builds them, or reads the tuple a swap put there
        objects = self.pool[at].frames[frame].objects
        assert tuple(objects) == tuple(objects) and len(tuple(objects)) == len(objects)

    @rule(at=loaded, frame=frames)
    def swap_in_walked_objects(self, at, frame):
        old = self.pool[at]
        walked = dataclasses.replace(old.frames[frame], objects=tuple(old.frames[frame].objects))
        self.pool[at] = dataclasses.replace(old, frames=(*old.frames[:frame], walked, *old.frames[frame + 1 :]))
        self.keys.pop(id(old), None)
        self.swapped.append(old)

    @precondition(lambda self: self.last is not None)
    @rule()
    def repeat_the_last_pass(self):  # on the windows it left: a warm pass, unless it raised before packing
        self._same_as_cold(*self.last)


WindowMachine.TestCase.settings = settings(
    max_examples=50,
    stateful_step_count=25,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestWindows = WindowMachine.TestCase
