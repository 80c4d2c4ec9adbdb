"""The names ``import ordproto`` exposes: one public entry per validated operation.

The training loop's kernels, which trust their caller, stay in their modules,
and the config module, which every other module reads, imports none of them.
"""

from __future__ import annotations

import ast
import types
from pathlib import Path

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


def test_config_imports_only_errors_from_the_package():
    # The configs own their rules: config.py needs no other ordproto module.
    tree = ast.parse((Path(ordproto.__file__).parent / "config.py").read_text())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
    package = [m for m in modules if m.startswith(".") or m.split(".")[0] == "ordproto"]
    assert package == [".errors"]
