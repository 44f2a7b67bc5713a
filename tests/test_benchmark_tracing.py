"""The benchmark's tracer patches library attributes by name; they must exist.

``benchmarks/tracing.py`` wraps every (module, attribute) pair in ``WRAPPED``
and ``autodiff.GradientTape.record``. A rename in the library would only
surface when ``benchmarks/run.py --trace 1`` runs, so it is checked here,
and so is what the graph spans count on a traced training scenario.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_attribute_resolves():
    tracing = _load_tracing()
    missing = []
    for span, sites in tracing.WRAPPED.items():
        for module_name, attr in sites:
            owner = importlib.import_module(f"intent_graph.{module_name}")
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{span}: intent_graph.{module_name}.{attr}")
    assert not missing, missing
    assert callable(importlib.import_module("intent_graph.autodiff").GradientTape.record)


def test_graph_spans_count_one_node_per_frame():
    from intent_graph.autodiff import GradientTape
    from intent_graph.data import SynthConfig, generate_synthetic
    from intent_graph.model import ModelConfig, init_parameters

    tracing = _load_tracing()
    names = ("autodiff", "data", "scene", "graph", "recurrent", "model", "training")
    modules = {name: importlib.import_module(f"intent_graph.{name}") for name in names}
    cfg = ModelConfig(D=8, D_e=6, hidden=8, T=4, K=2, num_layers=2, spatial_scale=1 / 1280, seed=1)
    scenario = generate_synthetic(SynthConfig(n_scenarios=1, frames_per_scenario=6, D=8, seed=0))[0]
    tracer = tracing.Tracer()
    with tracing.instrumented(modules, tracer):
        modules["training"].scenario_loss_tensor(scenario, cfg, init_parameters(cfg), GradientTape())
    calls, _, _, nodes = tracer.stats["graph.star_graph"]
    assert (calls, nodes) == (cfg.T, cfg.T)
    assert tracer.stats["graph.build_adjacency"][0] == cfg.T
    assert tracer.stats["graph.build_adjacency"][3] == 0  # the kernel records nothing itself
