"""The names ``import ordproto`` exposes: one public entry per validated operation.

The training loop's kernels, which trust their caller, stay in their modules.
"""

from __future__ import annotations

import types

import ordproto

PUBLIC_NAMES = [
    "EncoderParams",
    "GenConfig",
    "GlobalPrototypeStore",
    "PROGRESSIVE",
    "STABLE",
    "SyntheticOrdinalDataset",
    "TrainConfig",
    "TrainResult",
    "TrainingSet",
    "ablation_config",
    "binary_metrics",
    "cross_validate",
    "encode",
    "evaluate_on",
    "generate",
    "load_checkpoint",
    "load_dataset",
    "load_store",
    "progression_scores",
    "run_seeds",
    "save_checkpoint",
    "save_dataset",
    "save_store",
    "spearman",
    "train",
]


def test_public_names_are_the_listed_entries():
    names = [
        name
        for name, value in vars(ordproto).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(names) == sorted(PUBLIC_NAMES)
