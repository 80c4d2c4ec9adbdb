"""The names ``import ordproto`` exposes: one public entry per operation."""

from __future__ import annotations

import types

import ordproto

PUBLIC_NAMES = [
    "AdamState",
    "EncoderParams",
    "GenConfig",
    "GlobalPrototypeStore",
    "HeadParams",
    "LocalPrototypes",
    "PROGRESSIVE",
    "STABLE",
    "SyntheticOrdinalDataset",
    "TrainConfig",
    "TrainResult",
    "TrainingSet",
    "ablation_config",
    "adam_step",
    "backward",
    "binary_metrics",
    "buffer",
    "cross_entropy_loss",
    "cross_validate",
    "ema_update",
    "encode",
    "evaluate_on",
    "forward",
    "generate",
    "hybrid_ordinal_loss",
    "init_adam",
    "init_params",
    "kfold_split",
    "label_similarity",
    "load_checkpoint",
    "load_dataset",
    "load_store",
    "local_prototypes",
    "mann_whitney_one_sided",
    "progression_scores",
    "run_seeds",
    "save_checkpoint",
    "save_dataset",
    "save_store",
    "spearman",
    "stratified_batches",
    "train",
]


def test_public_names_are_the_listed_entries():
    names = [
        name
        for name, value in vars(ordproto).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(names) == sorted(PUBLIC_NAMES)
