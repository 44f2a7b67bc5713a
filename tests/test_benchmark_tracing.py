"""The benchmark's tracer patches library attributes by name; they must exist.

``benchmarks/tracing.py`` wraps every (module, attribute) pair in ``WRAPPED``
and ``autodiff.GradientTape.record``. A rename in the library would only
surface when ``benchmarks/run.py --trace 1`` runs, so it is checked here.
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
