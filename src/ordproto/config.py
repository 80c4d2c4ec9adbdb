"""Flat ``key = value`` config files with typed schemas.

Lines are ``key = value``; blank lines and ``#`` comments are skipped.
Lists are comma separated. Unknown keys, duplicate keys, and values that
fail to coerce all raise BadConfigError naming the offending key.
"""

from __future__ import annotations

from .data import GenConfig
from .errors import BadConfigError, DatasetIOError
from .trainer import TrainConfig


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ValueError(f"expected true/false, got {raw!r}")


def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in raw.split(","))


def _parse_float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(part.strip()) for part in raw.split(","))


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


def _apply_schema(pairs: dict[str, str], schema: dict, what: str) -> dict:
    unknown = sorted(set(pairs) - set(schema))
    if unknown:
        raise BadConfigError(f"unknown {what} config key {unknown[0]!r}")
    out = {}
    for key, (coerce, field) in schema.items():
        if key not in pairs:
            continue
        try:
            out[field] = coerce(pairs[key])
        except ValueError as exc:
            raise BadConfigError(f"bad value for {key!r}: {exc}") from exc
    return out


# config-file key -> (coercer, dataclass field)
GEN_SCHEMA = {
    "classes": (int, "n_classes"),
    "class_counts": (_parse_int_list, "class_counts"),
    "input_dim": (int, "input_dim"),
    "noise_sigma": (float, "noise_sigma"),
    "band_edges": (_parse_float_list, "band_edges"),
    "progression_cut": (float, "progression_cut"),
}

TRAIN_SCHEMA = {
    "classes": (int, "n_classes"),
    "input_dim": (int, "input_dim"),
    "hidden_dims": (_parse_int_list, "hidden_dims"),
    "feature_dim": (int, "feature_dim"),
    "epochs": (int, "epochs"),
    "batch_size": (int, "batch_size"),
    "learning_rate": (float, "base_lr"),
    "lr_decay": (float, "lr_decay"),
    "adam_beta1": (float, "adam_beta1"),
    "adam_beta2": (float, "adam_beta2"),
    "adam_epsilon": (float, "adam_epsilon"),
    "ema_sigma": (float, "ema_sigma"),
    "lambda_start": (float, "lambda_start"),
    "lambda_end": (float, "lambda_end"),
    "lambda_per_epoch": (_parse_bool, "lambda_per_epoch"),
    "blackbox_lambda": (float, "blackbox_lambda"),
    "use_ins2ins": (_parse_bool, "use_ins2ins"),
    "use_ins2cls": (_parse_bool, "use_ins2cls"),
    "use_cls2cls": (_parse_bool, "use_cls2cls"),
    "detach_class_spread": (_parse_bool, "detach_class_spread"),
    "anchor_low": (int, "_anchor_low"),
    "anchor_high": (int, "_anchor_high"),
    "seeds": (_parse_int_list, "seeds"),
}


def load_gen_config(path) -> GenConfig:
    fields = _apply_schema(read_kv_file(path), GEN_SCHEMA, "generation")
    return GenConfig(**fields)


def load_train_config(path) -> TrainConfig:
    fields = _apply_schema(read_kv_file(path), TRAIN_SCHEMA, "training")
    lo = fields.pop("_anchor_low", None)
    hi = fields.pop("_anchor_high", None)
    if (lo is None) != (hi is None):
        raise BadConfigError("anchor_low and anchor_high must be set together")
    if lo is not None:
        fields["anchor_classes"] = (lo, hi)
    return TrainConfig(**fields)
