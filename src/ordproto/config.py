"""The config dataclasses and their flat ``key = value`` files.

``GenConfig`` sets the synthetic cohort and ``TrainConfig`` a training run.
One table, ``_FIELD_TYPES``, reads each field's annotation: the type check
of both dataclasses and the file parser both take it from there.

Lines are ``key = value``; blank lines and ``#`` comments are skipped.
Lists are comma separated. Each key is its field's name, except the renamed
keys in ``_RENAMES``. Unknown keys, duplicate keys, and values that fail to
parse all raise BadConfigError naming the offending key.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, fields

from .errors import BadConfigError, DatasetIOError

# Each field annotation's entry type, and whether the field is a tuple of
# such entries. An annotation ending in "| None" also takes None.
_FIELD_TYPES = {
    "int": (int, False),
    "tuple[int, ...]": (int, True),
    "tuple[int, int] | None": (int, True),
    "float": (float, False),
    "float | None": (float, False),
    "tuple[float, ...]": (float, True),
    "bool": (bool, False),
}

# The fields whose file keys are not their names. A field of two keys takes
# one entry of its tuple from each, and both must be set together.
_RENAMES = {
    "n_classes": ("classes",),
    "base_lr": ("learning_rate",),
    "anchor_classes": ("anchor_low", "anchor_high"),
}


def _integers(name: str, values) -> tuple[int, ...]:
    """``values`` as Python ints; an entry that is no integer (numpy's are, bools not) raises."""
    try:
        if bool in map(type, values):
            raise TypeError("a bool is no integer here")
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise BadConfigError(f"{name} must hold integers, got {values!r}") from exc


def _integer(name: str, value) -> int:
    """``value`` as a Python int; anything but an integer (numpy's are, bools not) raises."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise BadConfigError(f"{name} must be an integer, got {value!r}")


def _reals(name: str, values) -> tuple[float, ...]:
    """``values`` as Python floats; an entry that is no real number (bools are not) raises."""
    try:
        if bool not in map(type, values) and all(isinstance(v, numbers.Real) for v in values):
            return tuple(map(float, values))
    except TypeError:  # not iterable
        pass
    raise BadConfigError(f"{name} must hold real numbers, got {values!r}")


def check_field_types(config) -> None:
    """Refuse the first wrongly typed field of a frozen config dataclass, by its annotation.

    Integer fields take integers, numpy's included, and keep them as Python
    ints; real-number fields take real numbers, and a tuple of them is kept
    as Python floats. Neither takes a bool. ``bool`` fields take only bools:
    any non-empty string is true, so a switch set to "false" would be on.
    """
    for field in fields(config):
        name, value = field.name, getattr(config, field.name)
        entry, many = _FIELD_TYPES[field.type]
        if value is None and "| None" in field.type:
            continue
        if entry is int:
            value = _integers(name, value) if many else _integer(name, value)
        elif many:
            value = _reals(name, value)
        elif entry is float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
            raise BadConfigError(f"{name} must be a real number, got {value!r}")
        elif entry is bool and not isinstance(value, bool):
            raise BadConfigError(f"{name} must be a bool, got {value!r}")
        object.__setattr__(config, name, value)


@dataclass(frozen=True)
class GenConfig:
    """Generator settings; band edges are the K-1 interior boundaries."""

    n_classes: int = 3
    class_counts: tuple[int, ...] = (130, 270, 200)
    input_dim: int = 16
    noise_sigma: float = 0.15
    band_edges: tuple[float, ...] = (1.0 / 3.0, 2.0 / 3.0)
    progression_cut: float | None = None  # default: midpoint of the middle bands

    def __post_init__(self):
        check_field_types(self)
        if self.n_classes < 3:
            raise BadConfigError("need at least 3 ordered classes")
        if len(self.class_counts) != self.n_classes:
            raise BadConfigError("class_counts must list one count per class")
        if any(c < 1 for c in self.class_counts):
            raise BadConfigError("every class count must be >= 1")
        if self.input_dim < 1:
            raise BadConfigError("input_dim must be >= 1")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise BadConfigError("noise_sigma must be finite and >= 0")
        edges = self.band_edges
        if len(edges) != self.n_classes - 1:
            raise BadConfigError("band_edges must hold n_classes - 1 interior boundaries")
        if any(not 0.0 < e < 1.0 for e in edges) or any(
            b <= a for a, b in zip(edges, edges[1:])
        ):
            raise BadConfigError("band_edges must be strictly increasing inside (0, 1)")
        lo, hi = self.middle_region
        if self.progression_cut is not None and not lo <= self.progression_cut < hi:
            raise BadConfigError(
                f"progression_cut must lie in the middle bands [{lo}, {hi})"
            )

    @property
    def bands(self) -> list[tuple[float, float]]:
        edges = (0.0, *self.band_edges, 1.0)
        return list(zip(edges[:-1], edges[1:]))

    @property
    def middle_region(self) -> tuple[float, float]:
        return self.band_edges[0], self.band_edges[-1]

    def resolved_cut(self) -> float:
        if self.progression_cut is not None:
            return float(self.progression_cut)
        lo, hi = self.middle_region
        return 0.5 * (lo + hi)


@dataclass(frozen=True)
class TrainConfig:
    n_classes: int = 3
    input_dim: int = 16
    hidden_dims: tuple[int, ...] = (64, 64)
    feature_dim: int = 32
    epochs: int = 60
    batch_size: int = 8
    base_lr: float = 2e-4
    lr_decay: float = 0.95
    adam_beta1: float = 0.5
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    ema_sigma: float = 0.9
    lambda_start: float = 0.0
    lambda_end: float = 1.0
    lambda_per_epoch: bool = False
    blackbox_lambda: float = 1.0
    use_ins2ins: bool = True
    use_ins2cls: bool = True
    use_cls2cls: bool = True
    detach_class_spread: bool = False
    anchor_classes: tuple[int, int] | None = None  # None: (1, n_classes), the two ends
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)

    def __post_init__(self):
        check_field_types(self)
        if self.anchor_classes is None:
            object.__setattr__(self, "anchor_classes", (1, self.n_classes))
        if self.n_classes < 2:
            raise BadConfigError("n_classes must be >= 2")
        if self.input_dim < 1 or self.feature_dim < 1 or any(d < 1 for d in self.hidden_dims):
            raise BadConfigError("all layer dims must be >= 1")
        if self.epochs < 1:
            raise BadConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise BadConfigError("batch_size must be >= 1")
        if self.batch_size < self.n_classes:
            raise BadConfigError(
                f"batch size {self.batch_size} cannot hold all {self.n_classes} classes"
            )
        if not 0.0 < self.ema_sigma < 1.0:
            raise BadConfigError("ema_sigma must lie strictly inside (0, 1)")
        if not 0.0 <= self.lambda_start <= self.lambda_end <= 1.0:
            raise BadConfigError("need 0 <= lambda_start <= lambda_end <= 1")
        # An infinite blackbox_lambda would turn every rank gradient into NaN.
        for name in ("base_lr", "lr_decay", "adam_epsilon", "blackbox_lambda"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise BadConfigError(f"{name} must be finite and positive, got {value!r}")
        for name in ("adam_beta1", "adam_beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise BadConfigError(f"{name} must lie in [0, 1), got {value!r}")
        if not self.seeds:
            raise BadConfigError("seeds must be non-empty")
        if min(self.seeds) < 0:
            raise BadConfigError(f"seeds must be >= 0, got {min(self.seeds)}")
        anchors = self.anchor_classes
        if len(anchors) != 2 or anchors[0] == anchors[1] or not (
            1 <= min(anchors) and max(anchors) <= self.n_classes
        ):
            raise BadConfigError(
                f"anchor_classes must be two distinct classes in 1..{self.n_classes}"
            )

    @property
    def dims(self) -> list[int]:
        return [self.input_dim, *self.hidden_dims, self.feature_dim]


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ValueError(f"expected true/false, got {raw!r}")


def read_kv_file(path) -> dict[str, str]:
    """Raw key -> value strings, rejecting duplicates and bad syntax."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DatasetIOError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise BadConfigError(f"config is not valid UTF-8: {exc}") from exc
    pairs: dict[str, str] = {}
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise BadConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise BadConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _load(path, config, what: str):
    """The ``config`` dataclass a file describes; values are parsed in field order.

    A tuple field's one key holds its comma-separated entries; each key of a
    renamed pair holds one entry.
    """
    pairs = read_kv_file(path)
    keys = {field: _RENAMES.get(field.name, (field.name,)) for field in fields(config)}
    unknown = sorted(set(pairs).difference(*keys.values()))
    if unknown:
        raise BadConfigError(f"unknown {what} config key {unknown[0]!r}")
    values = {}
    for field, names in keys.items():
        entry, many = _FIELD_TYPES[field.type]
        split = many and len(names) == 1
        got = tuple(_parse(entry, split, key, pairs[key]) for key in names if key in pairs)
        if got:
            values[field.name] = got if len(names) > 1 else got[0]
    for names in keys.values():
        if 0 < sum(key in pairs for key in names) < len(names):
            raise BadConfigError(f"{' and '.join(names)} must be set together")
    return config(**values)


def _parse(entry: type, split: bool, key: str, raw: str):
    """``raw`` as one ``entry``, or, when ``split``, as a tuple of its comma-separated entries."""
    parse = _parse_bool if entry is bool else entry
    try:
        return tuple(parse(part.strip()) for part in raw.split(",")) if split else parse(raw)
    except ValueError as exc:
        raise BadConfigError(f"bad value for {key!r}: {exc}") from exc


def load_gen_config(path) -> GenConfig:
    return _load(path, GenConfig, "generation")


def load_train_config(path) -> TrainConfig:
    return _load(path, TrainConfig, "training")
