"""Command-line front end.

Subcommands: synth, train, eval, predict, gradcheck, ablate. Machine-readable
JSON goes to stdout; human-readable progress and summaries go to stderr, so
piping stdout into a file or ``jq`` always yields exactly one JSON document.

Exit codes: 0 success, 2 configuration problem (bad or unknown flags, bad
config file, bad checkpoint), 3 data problem (unreadable or malformed
dataset, empty selection), 4 numeric problem (non-finite loss or logit,
failed gradient check), 5 internal error (a bug in this program, not in its
input: an engine ShapeError or any other unexpected exception; its traceback
goes to stderr). On failure stdout still carries one JSON document:
{"error": {"kind", "message"}}, with kind one of config, data, numeric,
internal.

Config files are JSON with up to three sections, each feeding one dataclass:

    {"model": {...ModelConfig...}, "train": {...TrainConfig...},
     "synth": {...SynthConfig...}}

Unknown sections or keys are hard errors, not warnings. ``--seed N``
overrides the seed field of every section in play for that run. eval and
predict take the model from the checkpoint, so they accept neither
``--config`` nor ``--seed``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
import traceback
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

from . import __version__
from .autodiff import ShapeError, finite_diff_check
from .configs import ConfigError, check_int, check_real
from .data import (
    SequenceFileError,
    SynthConfig,
    generate_synthetic,
    label_prevalence,
    load,
    split,
    write_dataset,
    write_text_atomic,
)
from .model import (
    ModelConfig,
    PredictionOutput,
    ScenarioError,
    forward_batch,
    future_labels,
    init_parameters,
    load_checkpoint,
    parameter_count,
    save_checkpoint,
)
from .training import (
    EmptyDatasetError,
    NumericError,
    TrainConfig,
    check_finite_logits,
    evaluate,
    metrics_record,
    scenario_gradients,
    scenario_loss,
    train,
)

_SECTIONS = ("model", "train", "synth")

# Desk-scale gradient-check default: tiny everything, one vehicle plus the
# crosswalk gives two objects per frame, pixel coordinates scaled into a
# sigmoid-friendly range.
_GRADCHECK_FRAME_WIDTH = 1280.0
_GRADCHECK_MODEL = {
    "D": 4,
    "D_e": 4,
    "hidden": 4,
    "T": 2,
    "K": 2,
    "spatial_scale": 1.0 / _GRADCHECK_FRAME_WIDTH,
}


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _say(message: str) -> None:
    sys.stderr.write(message + "\n")


def _load_sections(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section(s) {sorted(unknown)}; expected {list(_SECTIONS)}")
    for name in _SECTIONS:
        if name in raw and not isinstance(raw[name], dict):
            raise ConfigError(f"config section {name!r} must be an object")
    # Validate every section up front, even ones this command ignores, so a
    # typo anywhere in the file fails loudly instead of silently doing nothing.
    validators = {"model": ModelConfig.from_dict, "train": TrainConfig.from_dict, "synth": SynthConfig.from_dict}
    for name, build in validators.items():
        if name in raw:
            build(raw[name])
    return raw


def _section(sections: Mapping, name: str, seed: int | None, defaults: Mapping | None = None) -> dict:
    merged = dict(defaults or {})
    merged.update(sections.get(name, {}))
    if seed is not None:
        merged["seed"] = seed
    return merged


def _load_datasets(paths: Sequence[str], min_frames: int | None = None):
    dataset = []
    for path in paths:
        dataset.extend(load(path, min_frames=min_frames))
    return dataset


@dataclass(frozen=True)
class RunManifest:
    """Exact invocation record, written next to --out right after that output.

    A failed run leaves none; if the manifest cannot be written, the fresh
    output is removed, and so is any older manifest, which would describe an
    output that is gone.
    """

    command: str
    argv: list[str]
    config: dict
    data: list[str]
    out: str
    version: str = __version__

    def write(self) -> None:
        manifest = self.out + ".manifest.json"
        try:
            write_text_atomic(manifest, json.dumps(asdict(self), indent=2) + "\n")
        except BaseException:
            os.remove(self.out)
            with contextlib.suppress(FileNotFoundError):
                os.remove(manifest)
            raise


def _cmd_synth(args) -> int:
    sections = _load_sections(args.config)
    scfg = SynthConfig.from_dict(_section(sections, "synth", args.seed))
    scenarios = generate_synthetic(scfg)
    write_dataset(args.out, scenarios, config=scfg)
    prevalence = label_prevalence(scenarios)
    _emit(
        {
            "command": "synth",
            "out": args.out,
            "n_scenarios": scfg.n_scenarios,
            "frames_per_scenario": scfg.frames_per_scenario,
            "prevalence": prevalence,
        }
    )
    _say(f"wrote {scfg.n_scenarios} scenarios to {args.out} ({prevalence:.1%} positive frames)")
    return 0


def _cmd_train(args) -> int:
    sections = _load_sections(args.config)
    mcfg = ModelConfig.from_dict(_section(sections, "model", args.seed))
    tcfg = TrainConfig.from_dict(_section(sections, "train", args.seed))
    dataset = _load_datasets(args.data, min_frames=mcfg.T + mcfg.K)
    _say(f"training on {len(dataset)} scenarios for {tcfg.epochs} epochs")
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as handle:
            result = train(dataset, mcfg, tcfg, metrics_out=handle)
    else:
        result = train(dataset, mcfg, tcfg)
    if args.out:
        save_checkpoint(args.out, mcfg, result.params)
        RunManifest(
            command="train",
            argv=list(sys.argv[1:]),
            config={"model": mcfg.to_dict(), "train": tcfg.to_dict()},
            data=list(args.data),
            out=args.out,
        ).write()
    final = result.history[-1]
    _emit(
        {
            "command": "train",
            "n_scenarios": len(dataset),
            "parameters": parameter_count(mcfg),
            "checkpoint": args.out,
            "metrics": args.metrics,
            "final": metrics_record(tcfg.epochs, final),
        }
    )
    _say(
        f"final train loss {final.loss:.4f}, avg acc {final.avg_accuracy_1_to_K:.3f}, "
        f"acc@K {final.accuracy_at_K:.3f}"
    )
    return 0


def _cmd_eval(args) -> int:
    mcfg, params = load_checkpoint(args.model)
    dataset = _load_datasets(args.data, min_frames=mcfg.T + mcfg.K)
    report = evaluate(dataset, mcfg, params)
    _emit({"command": "eval", "n_scenarios": len(dataset), **report.to_dict()})
    _say(
        f"evaluated {len(dataset)} scenarios: avg acc {report.avg_accuracy_1_to_K:.3f}, "
        f"acc@K {report.accuracy_at_K:.3f}, loss {report.loss:.4f}"
    )
    return 0


def _cmd_predict(args) -> int:
    mcfg, params = load_checkpoint(args.model)
    dataset = _load_datasets(args.data, min_frames=mcfg.T + mcfg.K)
    if args.scenario is not None:
        dataset = [s for s in dataset if s.id == args.scenario]
        if not dataset:
            raise EmptyDatasetError(f"no scenario with id {args.scenario!r}")
    results = [
        {"id": scenario.id, **PredictionOutput.from_logits(row).to_dict(), "labels": future_labels(scenario, mcfg)}
        for scenario, row in zip(dataset, check_finite_logits(dataset, forward_batch(dataset, mcfg, params)))
    ]
    _emit({"command": "predict", "results": results})
    _say(f"predicted {len(results)} scenario(s), horizon {mcfg.K}")
    return 0


def _cmd_gradcheck(args) -> int:
    check_real("--step", args.step, 0.0)
    check_real("--tol", args.tol, 0.0)
    sections = _load_sections(args.config)
    mcfg = ModelConfig.from_dict(_section(sections, "model", args.seed, defaults=_GRADCHECK_MODEL))
    scfg = SynthConfig.from_dict(
        _section(
            sections,
            "synth",
            args.seed,
            defaults={
                "n_scenarios": 1,
                "frames_per_scenario": mcfg.T + mcfg.K,
                "D": mcfg.D,
                "frame_width": _GRADCHECK_FRAME_WIDTH,
                "vehicle_count_range": [1, 1],
            },
        )
    )
    scenario = generate_synthetic(scfg)[0]
    params = init_parameters(mcfg)
    _say(f"checking {parameter_count(mcfg)} parameters with step {args.step:g}")

    report = finite_diff_check(
        lambda values: scenario_gradients(scenario, mcfg, values),
        lambda values: scenario_loss(scenario, mcfg, values),
        params,
        h=args.step,
        tol=args.tol,
    )
    if report.passed:
        _emit({"command": "gradcheck", **report.to_dict()})
        _say(f"gradient check passed: max rel error {report.max_rel_error:.3e}")
        return 0
    # keep stdout to a single JSON document: the report details travel in the error
    raise NumericError(
        f"gradient check failed: max rel error {report.max_rel_error:.3e} "
        f"at {report.worst_param}{report.worst_index} exceeds tol {report.tolerance:g}"
    )


def _apply_override(section_dicts: dict, path: str, value) -> None:
    head, _, rest = path.partition(".")
    if head not in ("model", "train") or not rest:
        raise ConfigError(
            f"grid key {path!r} must look like 'model.<field>' or 'train.<field>'"
        )
    target = section_dicts[head]
    keys = rest.split(".")
    for key in keys[:-1]:
        child = target.get(key, {})
        if not isinstance(child, dict):
            raise ConfigError(f"grid key {path!r} descends through a non-object value")
        target[key] = target = dict(child)  # a copy, so the sections the manifest records stay as read
    target[keys[-1]] = value


def _cmd_ablate(args) -> int:
    sections = _load_sections(args.config)
    try:
        grid = json.loads(args.grid)
    except ValueError as exc:
        raise ConfigError(f"--grid is not valid JSON: {exc}") from exc
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("--grid must be a non-empty JSON object of {dotted.path: [values]}")
    for key, options in grid.items():
        if not isinstance(options, list) or not options:
            raise ConfigError(f"grid entry {key!r} must map to a non-empty array of values")

    if not (0.0 < args.train_fraction < 1.0):
        raise ConfigError(f"--train-fraction must lie in (0, 1), got {args.train_fraction}")
    dataset = _load_datasets(args.data)
    train_set, test_set = split(dataset, args.train_fraction, args.seed if args.seed is not None else 0)
    if not train_set or not test_set:
        raise EmptyDatasetError(
            f"split left {len(train_set)} train / {len(test_set)} test scenarios; "
            "adjust --train-fraction or add data"
        )

    keys = sorted(grid)
    runs = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        overrides = dict(zip(keys, combo))
        section_dicts = {
            "model": dict(sections.get("model", {})),
            "train": dict(sections.get("train", {})),
        }
        for path, value in overrides.items():
            _apply_override(section_dicts, path, value)
        if args.seed is not None:
            section_dicts["model"]["seed"] = args.seed
            section_dicts["train"]["seed"] = args.seed
        mcfg = ModelConfig.from_dict(section_dicts["model"])
        tcfg = TrainConfig.from_dict(section_dicts["train"])
        shortest = min(len(s.frames) for s in dataset)
        if shortest < mcfg.T + mcfg.K:
            raise ScenarioError(
                f"run {overrides} needs {mcfg.T + mcfg.K} frames per scenario, shortest has {shortest}"
            )
        _say(f"ablate {overrides}: training {tcfg.epochs} epochs")
        result = train(train_set, mcfg, tcfg)
        test_report = evaluate(test_set, mcfg, result.params)
        runs.append(
            {
                "overrides": overrides,
                "parameters": parameter_count(mcfg),
                "train": result.history[-1].to_dict(),
                "test": test_report.to_dict(),
            }
        )
        _say(
            f"  train avg acc {result.history[-1].avg_accuracy_1_to_K:.3f}, "
            f"test avg acc {test_report.avg_accuracy_1_to_K:.3f}"
        )

    payload = {
        "command": "ablate",
        "train_fraction": args.train_fraction,
        "n_train": len(train_set),
        "n_test": len(test_set),
        "runs": runs,
    }
    if args.out:  # before _emit, so a failed write still leaves one JSON document on stdout
        write_text_atomic(args.out, json.dumps(payload, indent=2) + "\n")
        RunManifest(
            command="ablate",
            argv=list(sys.argv[1:]),
            config={"sections": {k: dict(sections.get(k, {})) for k in _SECTIONS}, "grid": grid},
            data=list(args.data),
            out=args.out,
        ).write()
    _emit(payload)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a config error, so it too yields one JSON document."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="intent-graph",
        description="Pedestrian crossing-intent prediction on spatiotemporal scene graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, model=False):
        # eval and predict take everything from the checkpoint: no --config or --seed
        if not model:
            p.add_argument("--config", help="JSON config file with model/train/synth sections")
            p.add_argument("--seed", type=int, help="override every seed in play for this run")
        if data:
            p.add_argument(
                "--data",
                action="append",
                required=True,
                metavar="PATH",
                help="scenario JSONL file; repeat to concatenate several",
            )
        if model:
            p.add_argument("--model", required=True, metavar="PATH", help="checkpoint JSON file")

    p = sub.add_parser("synth", help="generate a labeled synthetic dataset")
    common(p)
    p.add_argument("--out", required=True, metavar="PATH", help="output JSONL path")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="fit a model and save a checkpoint")
    common(p, data=True)
    p.add_argument("--out", metavar="PATH", help="checkpoint JSON path")
    p.add_argument("--metrics", metavar="PATH", help="per-epoch metrics JSONL path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    common(p, data=True, model=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("predict", help="print per-scenario crossing probabilities")
    common(p, data=True, model=True)
    p.add_argument("--scenario", metavar="ID", help="restrict to one scenario id")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model gradient")
    common(p)
    p.add_argument("--step", type=float, default=1e-5, help="perturbation size (default 1e-5)")
    p.add_argument("--tol", type=float, default=1e-4, help="max relative error (default 1e-4)")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("ablate", help="train and test a grid of config variants")
    common(p, data=True)
    p.add_argument(
        "--grid",
        default='{"model.num_layers": [0, 1, 2, 3]}',
        help='JSON object of {dotted.path: [values]}, e.g. \'{"model.graph_mode": ["star", "fully_connected"]}\'',
    )
    p.add_argument("--train-fraction", type=float, default=0.5, help="seeded scenario split (default 0.5)")
    p.add_argument("--out", metavar="PATH", help="also write the result JSON here")
    p.set_defaults(func=_cmd_ablate)

    return parser


def _fail(code: int, kind: str, exc: Exception) -> int:
    _emit({"error": {"kind": kind, "message": str(exc)}})
    _say(f"error ({kind}): {exc}")
    return code


def _internal(exc: Exception) -> int:
    _say("".join(traceback.format_exception(exc)).rstrip())
    _emit({"error": {"kind": "internal", "message": f"{type(exc).__name__}: {exc}"}})
    return 5


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", None) is not None:
            check_int("--seed", args.seed, 0)
        return args.func(args)
    except ConfigError as exc:
        return _fail(2, "config", exc)
    except ShapeError as exc:  # a ValueError, but raised by engine bugs, not by input
        return _internal(exc)
    except (SequenceFileError, ScenarioError, EmptyDatasetError, OSError, ValueError) as exc:
        return _fail(3, "data", exc)
    except NumericError as exc:
        return _fail(4, "numeric", exc)
    except Exception as exc:  # noqa: BLE001 - the one-JSON-document contract holds for bugs too
        return _internal(exc)


if __name__ == "__main__":
    sys.exit(main())
