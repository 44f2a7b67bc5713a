"""The three workloads: seeded inputs, set-up, one unit of work, and its outputs.

A unit is what one closed-loop caller does before the next unit starts:

* train-recipe / train-fc-dense: ``train()`` for a fixed number of epochs
  from the set-up parameters, a checkpoint save/load round trip, then one
  ``forward()`` per held-out scenario with the reloaded parameters.
* eval-dense: for each chunk of EVAL_CHUNK scenarios, one ``evaluate()``
  on the chunk, then one ``forward()`` per scenario of the chunk.

NOTES.md says why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import HostGauge

# eval-dense draws input set (seed mod POOL); reference.json pins the content
# hash and the expected outcome of every input set of every workload.
# Tuning the benchmark looked at seeds 0-9 only: seed 15 is held out for
# confirming a claimed gain on eval-dense.
POOL = 16

_MODEL = dict(D=16, D_e=16, hidden=16, T=4, K=4, spatial_scale=1 / 1280, num_layers=2)
_SPLIT_SEED = 5
_FRAMES = 12

# A loss may move this much (relative) when float sums are reordered; a
# perturbation of 1e-15 in every initial weight moves the recipe's loss by
# about 4e-16 after training, while any change to what is learned moves it
# by far more.
LOSS_RTOL = 1e-8

# Throughput and latency samples are CPU time of this single-threaded
# process, not wall time. The library does no I/O and starts no thread on
# these paths, so the two agree except while the host runs another tenant
# on this core, which adds tens of ms to random calls and swings
# predict_ms_p90 by 2x between runs on a shared host. A unit files every
# sample with the run's HostGauge, which scales it to reference-host speed
# (see hostspeed.py).

# eval-dense calls evaluate() on chunks of this many scenarios, which gives a
# run a few dozen throughput samples instead of one per pass.
EVAL_CHUNK = 64

_LIB_MODULES = ("autodiff", "data", "scene", "graph", "recurrent", "model", "training")


class Library:
    """The intent_graph modules of one fresh import.

    ``data.load`` and ``model.load_checkpoint`` are called through their
    modules, so a traced round sees them as spans. Every other call uses a
    reference taken here, before any patching: in particular the
    benchmark's own ``evaluate()`` call is not the ``training.epoch_eval``
    span, which is train()'s per-epoch re-evaluation only.
    """

    def __init__(self):
        for name in [m for m in sys.modules if m == "intent_graph" or m.startswith("intent_graph.")]:
            del sys.modules[name]
        self.modules = {name: importlib.import_module(f"intent_graph.{name}") for name in _LIB_MODULES}
        data, model, training = self.modules["data"], self.modules["model"], self.modules["training"]
        self.data, self.model = data, model
        self.SynthConfig, self.generate_synthetic = data.SynthConfig, data.generate_synthetic
        self.split, self.write_dataset = data.split, data.write_dataset
        self.ModelConfig, self.init_parameters = model.ModelConfig, model.init_parameters
        self.save_checkpoint, self.forward, self.future_labels = model.save_checkpoint, model.forward, model.future_labels
        self.TrainConfig, self.train, self.evaluate = training.TrainConfig, training.train, training.evaluate
        self.aggregate_metrics, self.loss = training.aggregate_metrics, training.loss


@dataclass
class Unit:
    """Outputs of one unit of work. Its timings went to the HostGauge:
    "forward" (one sample per forward() call) and "throughput" (scenarios
    per train() epoch, re-evaluation included, or per evaluate() call)."""

    attempted: int
    failed: int  # forwards with a non-finite output
    loss: float
    accuracy: float
    outputs: list  # everything the unit computed, for the determinism digest
    train_wall_s: float = 0.0  # wall time of the train() call, 0 for eval units
    problems: list[str] = field(default_factory=list)

    def digest(self) -> str:
        h = hashlib.sha256()
        for item in self.outputs:
            if isinstance(item, dict):
                for name in sorted(item):
                    h.update(name.encode())
                    h.update(item[name].tobytes())
            else:
                h.update(repr(item).encode())
        return h.hexdigest()


class _EpochClock:
    """File-like sink for train(metrics_out=...): files each epoch with the
    gauge, as ``scenarios`` of throughput."""

    def __init__(self, gauge: HostGauge, scenarios: int):
        self.gauge, self.scenarios = gauge, scenarios
        self.lines: list[str] = []
        self.began = gauge.now()

    def write(self, text: str) -> None:
        self.gauge.record("throughput", self.began, self.scenarios)
        self.lines.append(text)
        self.began = self.gauge.now()


def _timed_forwards(lib: Library, scenarios, cfg, params, gauge: HostGauge) -> list:
    """forward() on each scenario, each filed with the gauge."""
    outputs = []
    for scenario in scenarios:
        start = gauge.now(defer=True)
        outputs.append(lib.forward(scenario, cfg, params))
        gauge.record("forward", start)
    return outputs


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def file_hashes(directory: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


@dataclass(frozen=True)
class TrainWorkload:
    """Inputs are frozen: every --seed trains on the same data from the same
    initial weights. Between seeded draws of the data or of the initial
    weights the final loss differs by 11-19% (interquartile range over
    median), which would swamp any usable bound on the loss metric."""

    name: str
    synth: dict
    train_fraction: float
    model: dict
    train: dict
    # Passes of forward() over the held-out set per unit: enough that a run
    # has several hundred latency samples, so predict_ms_p90 has dozens
    # beyond it.
    forward_passes: int = 1
    files = ("train.jsonl", "test.jsonl")

    def input_index(self, seed: int) -> int:
        return 0

    def prepare(self, lib: Library, index: int, directory: Path) -> None:
        scenarios = lib.generate_synthetic(lib.SynthConfig(**self.synth))
        train_set, test_set = lib.split(scenarios, self.train_fraction, _SPLIT_SEED)
        lib.write_dataset(directory / "train.jsonl", train_set)
        lib.write_dataset(directory / "test.jsonl", test_set)

    def setup(self, lib: Library, directory: Path) -> dict:
        cfg = lib.ModelConfig(**self.model)
        return {
            "train": lib.data.load(directory / "train.jsonl"),
            "test": lib.data.load(directory / "test.jsonl"),
            "cfg": cfg,
            "tcfg": lib.TrainConfig(**self.train),
            "params": lib.init_parameters(cfg),
        }

    def nominal_attempts(self, state: dict) -> int:
        return state["tcfg"].epochs * len(state["train"]) + self.forward_passes * len(state["test"])

    def warm_up(self, lib: Library, state: dict) -> None:
        short = lib.TrainConfig(**dict(self.train, epochs=1))
        lib.train(state["train"][:8], state["cfg"], short, initial=state["params"])
        for scenario in state["test"][:8]:
            lib.forward(scenario, state["cfg"], state["params"])

    def unit(self, lib: Library, state: dict, workdir: Path, gauge: HostGauge) -> Unit:
        cfg, train_set = state["cfg"], state["train"]
        start_wall = time.perf_counter()
        clock = _EpochClock(gauge, len(train_set))
        result = lib.train(train_set, cfg, state["tcfg"], initial=state["params"], metrics_out=clock)
        train_wall_s = time.perf_counter() - start_wall

        checkpoint = workdir / f"{self.name}-checkpoint.json"
        lib.save_checkpoint(checkpoint, cfg, result.params)
        loaded_cfg, params = lib.model.load_checkpoint(checkpoint)
        problems = []
        if loaded_cfg != cfg or any(params[k].tobytes() != v.tobytes() for k, v in result.params.items()):
            problems.append("checkpoint round trip changed the config or the parameters")

        outputs = _timed_forwards(lib, self.forward_passes * state["test"], cfg, params, gauge)
        logits = [out.logits for out in outputs]
        failed = sum(not _finite(values) for values in logits)
        final = result.history[-1]
        return Unit(
            attempted=self.nominal_attempts(state),
            failed=failed,
            loss=final.loss,
            accuracy=final.avg_accuracy_1_to_K,
            outputs=[result.params, clock.lines, logits],
            train_wall_s=train_wall_s,
            problems=problems,
        )


@dataclass(frozen=True)
class EvalWorkload:
    name: str
    synth: dict
    model: dict
    files = ("data.jsonl", "model.json")

    def input_index(self, seed: int) -> int:
        return seed % POOL

    def prepare(self, lib: Library, index: int, directory: Path) -> None:
        lib.write_dataset(directory / "data.jsonl", lib.generate_synthetic(lib.SynthConfig(**self.synth, seed=index)))
        cfg = lib.ModelConfig(**self.model, seed=index)
        lib.save_checkpoint(directory / "model.json", cfg, lib.init_parameters(cfg))

    def setup(self, lib: Library, directory: Path) -> dict:
        cfg, params = lib.model.load_checkpoint(directory / "model.json")
        return {"data": lib.data.load(directory / "data.jsonl"), "cfg": cfg, "params": params}

    def nominal_attempts(self, state: dict) -> int:
        return 2 * len(state["data"])

    def warm_up(self, lib: Library, state: dict) -> None:
        lib.evaluate(state["data"][:16], state["cfg"], state["params"])

    def unit(self, lib: Library, state: dict, workdir: Path, gauge: HostGauge) -> Unit:
        data, cfg, params = state["data"], state["cfg"], state["params"]
        logits, per_scenario, failed, problems = [], [], 0, []
        for first in range(0, len(data), EVAL_CHUNK):
            chunk = data[first : first + EVAL_CHUNK]
            start = gauge.now()
            report = lib.evaluate(chunk, cfg, params)
            gauge.record("throughput", start, len(chunk))

            outputs = _timed_forwards(lib, chunk, cfg, params, gauge)
            per_chunk = []
            for scenario, out in zip(chunk, outputs):
                labels = lib.future_labels(scenario, cfg)
                per_chunk.append((list(out.probabilities), labels, lib.loss(out, labels)))
                logits.append(out.logits)
                failed += not _finite(out.logits)
            if lib.aggregate_metrics(per_chunk) != report:
                problems.append(f"evaluate() report on scenarios {first}.. differs from the aggregation of their forward() outputs")
            per_scenario += per_chunk
        # Summed in dataset order, exactly as evaluate() over the whole dataset.
        report = lib.aggregate_metrics(per_scenario)
        return Unit(
            attempted=self.nominal_attempts(state),
            failed=failed,
            loss=report.loss,
            accuracy=report.avg_accuracy_1_to_K,
            outputs=[report, logits],
            problems=problems,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # The frozen learnability recipe of tests/conftest.py at a short epoch count.
        TrainWorkload(
            name="train-recipe",
            synth=dict(n_scenarios=64, frames_per_scenario=_FRAMES, D=16, seed=0),
            train_fraction=0.5,
            model=dict(_MODEL, seed=3),
            train=dict(learning_rate=0.003, batch_size=1, seed=3, epochs=5),
            forward_passes=3,
        ),
        # Every frame carries exactly 8 objects (crosswalk + 7 parked
        # vehicles), so every scenario has the same O(N^2) pair count and
        # forward latencies form one cluster rather than a mix whose median
        # can jump between clusters (see NOTES.md).
        TrainWorkload(
            name="train-fc-dense",
            synth=dict(n_scenarios=64, frames_per_scenario=_FRAMES, D=16, seed=0, vehicle_count_range=(7, 7)),
            train_fraction=0.25,
            model=dict(_MODEL, graph_mode="fully_connected", seed=3),
            train=dict(learning_rate=0.003, batch_size=8, seed=3, epochs=2),
        ),
        EvalWorkload(
            name="eval-dense",
            synth=dict(n_scenarios=256, frames_per_scenario=_FRAMES, D=16, vehicle_count_range=(6, 8)),
            model=dict(_MODEL),
        ),
    )
}
