"""In-memory span recorder and the wrappers that feed it.

The library is left untouched: ``instrumented`` swaps the module attributes
through which callers look up each public function for a wrapper that opens
a span, and restores them on exit. Tape nodes are counted through the public
``GradientTape.record`` and charged to the innermost open span (self nodes).

A span's self time is its duration minus the time of its direct children.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass

# Span name -> (module, attribute) pairs to wrap. An attribute is listed once
# per module whose code looks it up, because ``from x import f`` copies the
# reference: patching only the defining module would miss those callers.
# ``None`` marks a method on a class (module, "Class.method").
WRAPPED = {
    "data.load": [("data", "load")],
    "model.load_checkpoint": [("model", "load_checkpoint")],
    "model.forward_logits": [("model", "forward_logits"), ("training", "forward_logits")],
    "scene.spatial_relation": [("model", "spatial_relation")],
    "graph.edge_weight": [("model", "edge_weight")],
    "graph.star_graph": [("model", "star_graph")],
    "graph.build_adjacency": [("graph", "build_adjacency")],
    "graph.graph_conv": [("model", "graph_conv")],
    "recurrent.run_observation": [("model", "run_observation")],
    "recurrent.gru_step": [("recurrent", "gru_step"), ("model", "gru_step")],
    "recurrent.prediction_rollout": [("model", "prediction_rollout")],
    "autodiff.backward": [("autodiff", "GradientTape.backward")],
    "training.scenario_loss_tensor": [("training", "scenario_loss_tensor")],
    "training.clip_gradients": [("training", "clip_gradients")],
    "training.adam_step": [("training", "AdamOptimizer.step")],
    # train() looks evaluate up in its own module; the benchmark's direct
    # evaluate() calls keep the original reference and are not this span.
    "training.epoch_eval": [("training", "evaluate")],
}
SPANS = tuple(WRAPPED)

# Spans whose first argument is a Scenario: entering one starts a new
# scenario id unless it is nested in a span that already did.
_SCENARIO_SPANS = ("training.scenario_loss_tensor", "model.forward_logits")


@dataclass
class _Open:
    span_id: int
    name: str
    parent: int
    scenario: str | None
    start: float
    child_s: float = 0.0
    nodes: int = 0


class Tracer:
    """Records spans and per-name totals; one instance per traced round."""

    def __init__(self, round_index: int = 0):
        self.round_index = round_index
        self.spans: list[tuple] = []  # (id, name, start, end, parent, scenario, self nodes)
        self.stats = {name: [0, 0.0, 0.0, 0] for name in SPANS}  # calls, self_s, total_s, nodes
        self.unspanned_nodes = 0
        self._stack: list[_Open] = []
        self._next_id = 0
        self._scenario_seq = 0
        self._scenario: str | None = None

    def enter(self, name: str, args) -> _Open:
        parent = self._stack[-1] if self._stack else None
        if name in _SCENARIO_SPANS and not (parent is not None and parent.name in _SCENARIO_SPANS):
            self._scenario_seq += 1
            self._scenario = f"{self.round_index}:{self._scenario_seq}:{getattr(args[0], 'id', '?')}"
        frame = _Open(self._next_id, name, -1 if parent is None else parent.span_id, self._scenario, time.perf_counter())
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Open) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order (innermost is {popped.name})")
        duration = end - frame.start
        entry = self.stats[frame.name]
        entry[0] += 1
        entry[1] += duration - frame.child_s
        entry[2] += duration
        entry[3] += frame.nodes
        if self._stack:
            self._stack[-1].child_s += duration
        self.spans.append((frame.span_id, frame.name, frame.start, end, frame.parent, frame.scenario, frame.nodes))

    def count_node(self) -> None:
        if self._stack:
            self._stack[-1].nodes += 1
        else:
            self.unspanned_nodes += 1

    def taped_edges(self) -> int:
        """Edge scorings recorded on a tape (an untaped edge_weight records no node)."""
        return sum(1 for s in self.spans if s[1] == "graph.edge_weight" and s[6] > 0)

    def write_spans(self, handle) -> None:
        for span_id, name, start, end, parent, scenario, nodes in self.spans:
            handle.write(
                json.dumps(
                    {
                        "round": self.round_index,
                        "id": span_id,
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": parent,
                        "scenario": scenario,
                        "tape_nodes": nodes,
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )


def _span_wrapper(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name, args)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)

    wrapper.__wrapped__ = fn
    return wrapper


@contextlib.contextmanager
def instrumented(modules: dict, tracer: Tracer):
    """Patch every wrapped function and GradientTape.record for the block."""
    saved = []
    try:
        for name, sites in WRAPPED.items():
            for module_name, attr in sites:
                owner = modules[module_name]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, _span_wrapper(tracer, name, original))
        tape_cls = modules["autodiff"].GradientTape
        record = tape_cls.record
        saved.append((tape_cls, "record", record))

        def counting_record(self, inputs, output, backward_fn):
            tracer.count_node()
            return record(self, inputs, output, backward_fn)

        tape_cls.record = counting_record
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
