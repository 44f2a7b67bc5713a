"""Print SHA-256 digests of everything training and inference compute, to show a change kept every bit.

Run from the repository root (pytest does not collect this file):

    python3 tests/bit_digest.py

It prints six lines, ``<name> <sha256>`` and, for the two benchmark runs,
the final training loss:

* ``48-config``: the 48 batch configs of tests/test_model.py (4 graph modes
  x 4 temporal variants x 3 layer stacks) on its 7-scenario mixed batch.
  Per config: each scenario's loss and gradients from scenario_gradients,
  the metrics lines and final parameters of a 2-epoch train() at batch 1,
  3 and 8 (learning rate 0.01, seed 4), and repr(evaluate()).
* ``train-recipe``: the parameters train() returns on the train-recipe
  benchmark inputs, 5 epochs, their bytes in sorted name order.
* ``train-fc-dense``: the same on the train-fc-dense inputs, 4 epochs.
* ``load``: what data.load reads from the scenario files of the three
  benchmark input sets (eval-dense at seed 0): serialize() of each file's
  scenarios, then every loaded feature's bytes.
* ``predict``: the bytes of forward()'s logits, one scenario at a time, on
  the train-recipe and train-fc-dense test sets with the parameters of the
  two runs above, then on the eval-dense seed-0 set with its seed-0
  parameters: the one-scenario path that the benchmark's predict_ms times.
* ``evaluate``: the bytes of forward_batch's logits over the eval-dense
  seed-0 set with its seed-0 parameters, which it runs in passes of CHUNK
  (64) scenarios: the stacked rows at the batch size evaluate() uses.

The benchmark inputs are generated in process from the synth, split, model
and train settings of benchmarks/workloads.py; ``load`` writes them to a
temporary directory with each workload's own prepare(). A refactor that
claims the same bits must print the same six lines before and after.
"""

import hashlib
import io
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "benchmarks")]

from intent_graph.data import SynthConfig, generate_synthetic, load, serialize, split, write_dataset  # noqa: E402
from intent_graph.model import ModelConfig, forward, forward_batch, init_parameters, save_checkpoint  # noqa: E402
from intent_graph.training import TrainConfig, evaluate, scenario_gradients, train  # noqa: E402
from test_model import BATCH_STACKS, BATCH_TEMPORALS, _batch_cfg, _mixed_batch  # noqa: E402
from workloads import _SPLIT_SEED, WORKLOADS  # noqa: E402

MODES = ("star", "fully_connected", "concat_baseline", "pedestrian_only")


def _add_arrays(h, arrays, names: bool = True) -> None:
    for name in sorted(arrays):
        if names:
            h.update(name.encode())
        h.update(arrays[name].tobytes())


def batch_configs_digest() -> str:
    h = hashlib.sha256()
    batch = _mixed_batch()
    for mode in MODES:
        for temporal in sorted(BATCH_TEMPORALS):
            for stack in sorted(BATCH_STACKS):
                cfg = _batch_cfg(mode, temporal, stack)
                values = init_parameters(cfg)
                for scenario in batch:
                    loss, grads = scenario_gradients(scenario, cfg, values)
                    h.update(repr(loss).encode())
                    _add_arrays(h, grads)
                for batch_size in (1, 3, 8):
                    metrics = io.StringIO()
                    tcfg = TrainConfig(epochs=2, learning_rate=0.01, batch_size=batch_size, seed=4)
                    result = train(batch, cfg, tcfg, metrics_out=metrics)
                    h.update(metrics.getvalue().encode())
                    _add_arrays(h, result.params)
                h.update(repr(evaluate(batch, cfg, values)).encode())
    return h.hexdigest()


def workload_run(name: str, epochs: int) -> tuple:
    """The config, the TrainResult and the test set of a training workload trained for ``epochs``."""
    workload = WORKLOADS[name]
    train_set, test_set = split(generate_synthetic(SynthConfig(**workload.synth)), workload.train_fraction, _SPLIT_SEED)
    cfg = ModelConfig(**workload.model)
    result = train(train_set, cfg, TrainConfig(**dict(workload.train, epochs=epochs)), initial=init_parameters(cfg))
    return cfg, result, test_set


def workload_digest(result) -> str:
    h = hashlib.sha256()
    _add_arrays(h, result.params, names=False)
    return f"{h.hexdigest()} {result.history[-1].loss!r}"


def predict_digest(runs) -> str:
    eval_dense = WORKLOADS["eval-dense"]
    eval_cfg = ModelConfig(**eval_dense.model, seed=0)
    sets = [(cfg, result.params, test_set) for cfg, result, test_set in runs]
    sets.append((eval_cfg, init_parameters(eval_cfg), generate_synthetic(SynthConfig(**eval_dense.synth, seed=0))))
    h = hashlib.sha256()
    for cfg, params, scenarios in sets:
        for scenario in scenarios:
            h.update(np.array(forward(scenario, cfg, params).logits).tobytes())
    return h.hexdigest()


def evaluate_digest() -> str:
    eval_dense = WORKLOADS["eval-dense"]
    cfg = ModelConfig(**eval_dense.model, seed=0)
    scenarios = generate_synthetic(SynthConfig(**eval_dense.synth, seed=0))
    return hashlib.sha256(forward_batch(scenarios, cfg, init_parameters(cfg)).tobytes()).hexdigest()


def load_digest() -> str:
    # the names each workload's prepare() reads from its benchmark Library
    lib = SimpleNamespace(
        SynthConfig=SynthConfig, generate_synthetic=generate_synthetic, split=split, write_dataset=write_dataset,
        ModelConfig=ModelConfig, init_parameters=init_parameters, save_checkpoint=save_checkpoint,
    )
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(WORKLOADS):
            workload, directory = WORKLOADS[name], Path(tmp) / name
            directory.mkdir()
            workload.prepare(lib, workload.input_index(0), directory)
            for file in (f for f in workload.files if f.endswith(".jsonl")):
                scenarios = load(directory / file)
                h.update(serialize(scenarios).encode())
                for frame in (f for s in scenarios for f in s.frames):
                    for feature in (frame.pedestrian_feature, *(o.feature for o in frame.objects)):
                        h.update(feature.tobytes())
    return h.hexdigest()


def main() -> None:
    print("48-config", batch_configs_digest())
    runs = [workload_run("train-recipe", 5), workload_run("train-fc-dense", 4)]
    print("train-recipe", workload_digest(runs[0][1]))
    print("train-fc-dense", workload_digest(runs[1][1]))
    print("load", load_digest())
    print("predict", predict_digest(runs))
    print("evaluate", evaluate_digest())


if __name__ == "__main__":
    main()
