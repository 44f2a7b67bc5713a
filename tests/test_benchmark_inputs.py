"""The benchmark's pinned inputs must not drift.

``benchmarks/reference.json`` pins the SHA-256 of every input file that
``benchmarks/workloads.py`` prepares: the datasets and, for eval-dense, a
checkpoint. A change to the ``ModelConfig`` fields, the checkpoint JSON or the
dataset serialization changes those bytes, and the benchmark would then refuse
to compare runs; this test reports it first.
"""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from intent_graph.data import SynthConfig, generate_synthetic, split, write_dataset
from intent_graph.model import ModelConfig, init_parameters, save_checkpoint

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    sys.path.insert(0, str(BENCH))  # workloads.py imports hostspeed from its own directory
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
        del sys.modules[spec.name]
        sys.modules.pop("hostspeed", None)
    return module


WORKLOADS = _load_workloads()

# The functions prepare() calls, from this session's import of intent_graph.
# workloads.Library() would import the package afresh and split its class
# identities (ConfigError and the rest) from the ones the other tests hold.
LIB = SimpleNamespace(
    SynthConfig=SynthConfig,
    generate_synthetic=generate_synthetic,
    split=split,
    write_dataset=write_dataset,
    ModelConfig=ModelConfig,
    init_parameters=init_parameters,
    save_checkpoint=save_checkpoint,
)


PINNED = [(name, index) for name, sets in sorted(REFERENCE["workloads"].items()) for index in sorted(sets, key=int)]


@pytest.mark.parametrize("name, index", PINNED)
def test_prepared_inputs_match_the_pinned_hashes(tmp_path, name, index):
    workload = WORKLOADS.WORKLOADS[name]
    workload.prepare(LIB, int(index), tmp_path)
    got = WORKLOADS.file_hashes(tmp_path, workload.files)
    assert got == REFERENCE["workloads"][name][index]["inputs"]
