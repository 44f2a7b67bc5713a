"""Print SHA-256 digests of everything training and inference compute, to show a change kept every bit.

Run from the repository root (pytest does not collect this file):

    python3 tests/bit_digest.py

It prints three lines, ``<name> <sha256>`` and, for the two benchmark runs,
the final training loss:

* ``48-config``: the 48 batch configs of tests/test_model.py (4 graph modes
  x 4 temporal variants x 3 layer stacks) on its 7-scenario mixed batch.
  Per config: each scenario's loss and gradients from scenario_gradients,
  the metrics lines and final parameters of a 2-epoch train() at batch 1,
  3 and 8 (learning rate 0.01, seed 4), and repr(evaluate()).
* ``train-recipe``: the parameters train() returns on the train-recipe
  benchmark inputs, 5 epochs, their bytes in sorted name order.
* ``train-fc-dense``: the same on the train-fc-dense inputs, 4 epochs.

The benchmark inputs are generated in process from the synth, split, model
and train settings of benchmarks/workloads.py. A refactor that claims the
same bits must print the same three lines before and after.
"""

import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "benchmarks")]

from intent_graph.data import SynthConfig, generate_synthetic, split  # noqa: E402
from intent_graph.model import ModelConfig, init_parameters  # noqa: E402
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


def workload_digest(name: str, epochs: int) -> str:
    workload = WORKLOADS[name]
    train_set, _ = split(generate_synthetic(SynthConfig(**workload.synth)), workload.train_fraction, _SPLIT_SEED)
    cfg = ModelConfig(**workload.model)
    result = train(train_set, cfg, TrainConfig(**dict(workload.train, epochs=epochs)), initial=init_parameters(cfg))
    h = hashlib.sha256()
    _add_arrays(h, result.params, names=False)
    return f"{h.hexdigest()} {result.history[-1].loss!r}"


def main() -> None:
    print("48-config", batch_configs_digest())
    print("train-recipe", workload_digest("train-recipe", 5))
    print("train-fc-dense", workload_digest("train-fc-dense", 4))


if __name__ == "__main__":
    main()
