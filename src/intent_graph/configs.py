"""Strict dataclass <- mapping construction shared by all config types.

Unknown keys are hard errors everywhere: a typo in a config file must fail
loudly instead of silently running with a default. ``finite_array`` is the
number rule that data files and checkpoints share with the configs.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from typing import Any, Mapping, Type, TypeVar

import numpy as np

T = TypeVar("T")


class ConfigError(Exception):
    """Invalid, unknown, or inconsistent configuration."""


def finite_array(values: list) -> np.ndarray | None:
    """``values`` as a float64 array, or None unless every entry is a finite number.

    The one number rule for data files, checkpoints and configs: each entry's
    type is exactly int or float (NumPy alone reads "1.5" and True as floats),
    an int fits the float range, and no entry is NaN or infinite.
    """
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        arr = np.array(values, dtype=np.float64)
    except OverflowError:
        return None
    return arr if np.isfinite(arr).all() else None


def is_finite_real(value) -> bool:
    """True for one value that ``finite_array`` accepts."""
    return finite_array([value]) is not None


def check_int(name: str, value, minimum: int, maximum: int | None = None) -> None:
    """Raise ConfigError unless ``value`` is an int that ``finite_array`` accepts, in range."""
    if type(value) is not int or not is_finite_real(value):
        raise ConfigError(f"{name} must be an integer within the float range, got {value!r}")
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None else f"in {minimum}..{maximum}"
        raise ConfigError(f"{name} must be {bound}, got {value}")


def check_real(name: str, value, low: float, high: float = math.inf, include_low: bool = False) -> None:
    """Raise ConfigError unless ``value`` is a finite number in (low, high), or [low, high) with ``include_low``."""
    if not (is_finite_real(value) and (low <= value if include_low else low < value) and value < high):
        raise ConfigError(f"{name} must be a finite number in {'[' if include_low else '('}{low}, {high}), got {value!r}")


def check_bool_fields(obj: Any) -> None:
    """Raise ConfigError unless every ``bool``-annotated field of ``obj`` holds a bool.

    A truthy string such as "no" would otherwise switch a feature on.
    """
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.type in (bool, "bool") and not isinstance(value, bool):
            raise ConfigError(f"{f.name} must be true or false, got {value!r}")


def from_mapping(cls: Type[T], mapping: Mapping[str, Any], where: str = "") -> T:
    """Build dataclass ``cls`` from ``mapping``, rejecting unknown keys.

    Nested dataclass fields accept nested mappings. ``where`` prefixes key
    paths in error messages (e.g. "model.").
    """
    if not isinstance(mapping, Mapping):
        raise ConfigError(f"{where or 'config'} must be a mapping, got {type(mapping).__name__}")
    field_names = {f.name for f in dataclasses.fields(cls)}  # type: ignore[arg-type]
    unknown = set(mapping) - field_names
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(where + k for k in unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in mapping.items():
        target = hints.get(key)
        if isinstance(target, type) and dataclasses.is_dataclass(target) and isinstance(value, Mapping):
            value = from_mapping(target, value, where=f"{where}{key}.")
        kwargs[key] = value
    try:
        return cls(**kwargs)  # type: ignore[call-arg]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where.rstrip('.') or 'config'} section: {exc}") from exc


def to_plain_dict(obj: Any) -> dict:
    """Recursive dataclass -> JSON-friendly dict (tuples become lists)."""
    out = dataclasses.asdict(obj)

    def _clean(v):
        if isinstance(v, dict):
            return {k: _clean(x) for k, x in v.items()}
        if isinstance(v, tuple):
            return [_clean(x) for x in v]
        if isinstance(v, list):
            return [_clean(x) for x in v]
        return v

    return _clean(out)
