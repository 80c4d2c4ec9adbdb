"""Flat ``key = value`` config files, parsed by the config dataclasses' annotations.

Lines are ``key = value``; blank lines and ``#`` comments are skipped.
Lists are comma separated. Each key is its field's name, parsed by the
parser for the field's annotation kind (``data._FIELD_KINDS``), except
the renamed keys in ``_RENAMES``. Unknown keys, duplicate keys, and values
that fail to parse all raise BadConfigError naming the offending key.
"""

from __future__ import annotations

from dataclasses import fields

from .data import _FIELD_KINDS, GenConfig
from .errors import BadConfigError, DatasetIOError
from .trainer import TrainConfig


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ValueError(f"expected true/false, got {raw!r}")


# One parser per annotation kind; a list's entries are parsed one by one.
_PARSERS = {
    "int": int,
    "ints": lambda raw: tuple(int(part.strip()) for part in raw.split(",")),
    "real": float,
    "reals": lambda raw: tuple(float(part.strip()) for part in raw.split(",")),
    "bool": _parse_bool,
}

# The fields whose file keys are not their names. A field of two keys takes
# one entry of its tuple from each, and both must be set together.
_RENAMES = {
    "n_classes": ("classes",),
    "base_lr": ("learning_rate",),
    "anchor_classes": ("anchor_low", "anchor_high"),
}


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
    """The ``config`` dataclass a file describes; values are parsed in field order."""
    pairs = read_kv_file(path)
    keys = {field: _RENAMES.get(field.name, (field.name,)) for field in fields(config)}
    unknown = sorted(set(pairs).difference(*keys.values()))
    if unknown:
        raise BadConfigError(f"unknown {what} config key {unknown[0]!r}")
    values = {}
    for field, names in keys.items():
        kind = _FIELD_KINDS[field.type]
        parse = _PARSERS[kind if len(names) == 1 else kind.removesuffix("s")]  # one entry per key
        got = tuple(_parse(parse, key, pairs[key]) for key in names if key in pairs)
        if got:
            values[field.name] = got if len(names) > 1 else got[0]
    for names in keys.values():
        if 0 < sum(key in pairs for key in names) < len(names):
            raise BadConfigError(f"{' and '.join(names)} must be set together")
    return config(**values)


def _parse(parse, key: str, raw: str):
    try:
        return parse(raw)
    except ValueError as exc:
        raise BadConfigError(f"bad value for {key!r}: {exc}") from exc


def load_gen_config(path) -> GenConfig:
    return _load(path, GenConfig, "generation")


def load_train_config(path) -> TrainConfig:
    return _load(path, TrainConfig, "training")
