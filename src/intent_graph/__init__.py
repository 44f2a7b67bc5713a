"""Crossing-intent prediction for pedestrians on spatiotemporal scene graphs.

The model encodes each frame as a star graph around the pedestrian, scores
edges from appearance and spatial relations, refines node features with
graph convolution, summarizes the frame sequence with gated recurrent
units, and rolls a zero-input recurrence forward to classify the next K
frames. Everything is plain float64 numpy with hand-written backwards that
train a whole minibatch in one stacked pass; a small reverse-mode autodiff
tape remains as their test oracle, and every gradient is
finite-difference checkable end to end.
"""

__version__ = "0.1.0"

from .autodiff import (
    GradCheckReport,
    GradientTape,
    ShapeError,
    Tensor,
    TapeConsumedError,
    backward,
    finite_diff_check,
)
from .configs import ConfigError
from .data import (
    FeatureWidthError,
    RecordParseError,
    SequenceFileError,
    SynthConfig,
    TimestampOrderError,
    generate_synthetic,
    label_prevalence,
    load,
    oracle_labels,
    oracle_thresholds,
    split,
    splitmix64,
    write_dataset,
)
from .graph import build_adjacency, edge_weight, graph_conv, star_graph
from .model import (
    CheckpointError,
    ModelConfig,
    PredictionOutput,
    ScenarioError,
    forward,
    forward_batch,
    forward_logits,
    future_labels,
    init_parameters,
    load_checkpoint,
    parameter_count,
    parameter_shapes,
    save_checkpoint,
)
from .recurrent import GRUCellParams, TemporalConfig, gru_step, prediction_rollout
from .scene import (
    BoundingBox,
    FrameObservation,
    ObjectCategory,
    ObjectObservation,
    Scenario,
    spatial_relation,
)
from .training import (
    EmptyDatasetError,
    EvalReport,
    NumericError,
    TrainConfig,
    TrainResult,
    evaluate,
    train,
)

__all__ = [
    "__version__",
    "BoundingBox",
    "CheckpointError",
    "ConfigError",
    "EmptyDatasetError",
    "EvalReport",
    "FeatureWidthError",
    "FrameObservation",
    "GradCheckReport",
    "GradientTape",
    "GRUCellParams",
    "ModelConfig",
    "NumericError",
    "ObjectCategory",
    "ObjectObservation",
    "PredictionOutput",
    "RecordParseError",
    "Scenario",
    "ScenarioError",
    "SequenceFileError",
    "ShapeError",
    "SynthConfig",
    "TapeConsumedError",
    "TemporalConfig",
    "Tensor",
    "TimestampOrderError",
    "TrainConfig",
    "TrainResult",
    "backward",
    "build_adjacency",
    "edge_weight",
    "evaluate",
    "finite_diff_check",
    "forward",
    "forward_batch",
    "forward_logits",
    "future_labels",
    "generate_synthetic",
    "graph_conv",
    "gru_step",
    "init_parameters",
    "label_prevalence",
    "load",
    "load_checkpoint",
    "oracle_labels",
    "oracle_thresholds",
    "parameter_count",
    "parameter_shapes",
    "prediction_rollout",
    "save_checkpoint",
    "spatial_relation",
    "split",
    "splitmix64",
    "star_graph",
    "train",
    "write_dataset",
]
